"""Keyword rules that classify extracted behavior snippets, plus the
system-method clustering used when authoring new rules."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .behavior import BehaviorSnippet
from .ir import descriptor_to_dotted


class RuleError(ValueError):
    pass


class BehaviorType(str, Enum):
    COMPATIBILITY_ISSUE_FIX = "compatibility_issue_fix"
    FEATURE_ADAPTATION = "feature_adaptation"
    PRIVACY_RELATED = "privacy_related"


@dataclass(frozen=True)
class Rule:
    category: str
    keyword: str  # case-sensitive substring
    behavior_type: BehaviorType
    notes: str = ""


@dataclass
class RuleSet:
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        seen: set[tuple[str, str]] = set()
        self.category_index: dict[str, list[Rule]] = {}
        for rule in self.rules:
            if not rule.keyword:
                raise RuleError(f"rule in {rule.category!r} has an empty keyword")
            pair = (rule.category, rule.keyword)
            if pair in seen:
                raise RuleError(f"duplicate rule {pair}")
            seen.add(pair)
            self.category_index.setdefault(rule.category, []).append(rule)

    @property
    def categories(self) -> list[str]:
        return sorted(self.category_index)


def parse_rules(text: str, origin: str = "<rules>") -> RuleSet:
    """Parse `category | keyword | behavior_type [| notes]` rows."""
    rules: list[Rule] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) not in (3, 4):
            raise RuleError(f"{origin} line {line_no}: expected 3 or 4 fields")
        category, keyword, type_name = parts[0], parts[1], parts[2]
        notes = parts[3] if len(parts) == 4 else ""
        if not category:
            raise RuleError(f"{origin} line {line_no}: empty category")
        if not keyword:
            raise RuleError(f"{origin} line {line_no}: empty keyword")
        try:
            behavior_type = BehaviorType(type_name)
        except ValueError:
            raise RuleError(
                f"{origin} line {line_no}: unknown behavior type {type_name!r}"
            ) from None
        rules.append(Rule(category, keyword, behavior_type, notes))
    if not rules:
        raise RuleError(f"{origin}: no rules loaded")
    return RuleSet(rules=tuple(rules))


def load_rules(path: str | Path) -> RuleSet:
    return parse_rules(Path(path).read_text(encoding="utf-8"), str(path))


def default_rules() -> RuleSet:
    from importlib.resources import files

    text = (files("devscan") / "data" / "rules.txt").read_text(encoding="utf-8")
    return parse_rules(text, "rules.txt")


@dataclass(frozen=True)
class RuleMatch:
    category: str
    rule: Rule
    where: str  # literal | invoked_method | class_descriptor
    text: str


def _snippet_haystacks(snippet: BehaviorSnippet):
    for lit in snippet.region_literals:
        yield "literal", lit
    for name in snippet.invoked_names:
        yield "invoked_method", name
    for type_name in snippet.referenced_types:
        yield "class_descriptor", type_name


def classify(snippet: BehaviorSnippet, rules: RuleSet) -> list[RuleMatch]:
    """All rules whose keyword occurs in the snippet; multi-label.

    A keyword matches as a case-sensitive substring of region literals,
    invoked method names (owner.name) or referenced class names. Matches
    are ordered by (category, keyword).
    """
    matches: list[RuleMatch] = []
    for rule in sorted(rules.rules, key=lambda r: (r.category, r.keyword)):
        for where, text in _snippet_haystacks(snippet):
            if rule.keyword in text:
                matches.append(RuleMatch(rule.category, rule, where, text))
                break
    return matches


def categories_of(snippet: BehaviorSnippet, rules: RuleSet) -> list[str]:
    return sorted({m.category for m in classify(snippet, rules)})


DEFAULT_SYSTEM_PREFIXES = (
    "android/",
    "java/",
    "javax/",
    "com/samsung/",
    "com/huawei/",
    "com/miui/",
    "com/vivo/",
    "com/coloros/",
    "com/oneplus/",
    "com/meizu/",
    "com/asus/",
    "com/evenwell/",
    "com/color/",
)


def _is_system_method(signature: str, prefixes: tuple[str, ...]) -> bool:
    owner = signature.split("->", 1)[0]
    if owner.startswith("L"):
        owner = owner[1:]
    return any(owner.startswith(p) for p in prefixes)


@dataclass(frozen=True)
class SnippetCluster:
    key: tuple[str, ...]  # sorted system-method signatures
    members: tuple[int, ...]  # indices into the clustered snippet list


def cluster_by_system_methods(
    snippets: list[BehaviorSnippet],
    system_prefixes: tuple[str, ...] = DEFAULT_SYSTEM_PREFIXES,
) -> list[SnippetCluster]:
    """Group snippets invoking exactly the same set of system methods.

    Snippets whose filtered system-method set is empty form one residual
    cluster. The result partitions the input.
    """
    buckets: dict[tuple[str, ...], list[int]] = {}
    for i, snippet in enumerate(snippets):
        key = tuple(
            sorted(
                sig
                for sig in snippet.invoked_system_methods
                if _is_system_method(sig, system_prefixes)
            )
        )
        buckets.setdefault(key, []).append(i)
    clusters = []
    for key in sorted(buckets):
        members = tuple(buckets[key])
        cluster = SnippetCluster(key=key, members=members)
        clusters.append(cluster)
    return clusters


def _candidate_strings(snippet: BehaviorSnippet) -> set[str]:
    out = set(lit for lit in snippet.region_literals if lit)
    for sig in snippet.invoked_system_methods:
        owner, rest = sig.split("->", 1)
        name = rest.split("(", 1)[0]
        dotted_owner = descriptor_to_dotted(owner)
        out.add(dotted_owner)
        out.add(name)
        out.add(f"{dotted_owner}.{name}")
    return out


def suggest_keywords(
    cluster: SnippetCluster,
    snippets: list[BehaviorSnippet],
    top: int = 20,
) -> list[str]:
    """Rank candidate keywords for a cluster, for the human rule author.

    Candidates are literals and method-name fragments present in a majority
    of members, ranked by member coverage then by rarity across the whole
    snippet corpus, ties broken lexicographically.
    """
    if not cluster.members:
        raise RuleError("empty cluster")
    member_sets = [_candidate_strings(snippets[i]) for i in cluster.members]
    coverage: Counter[str] = Counter()
    for s in member_sets:
        coverage.update(s)
    candidates = [c for c, n in coverage.items() if 2 * n > len(cluster.members)]

    global_freq: Counter[str] = Counter()
    for snippet in snippets:
        global_freq.update(_candidate_strings(snippet))

    ranked = sorted(
        candidates,
        key=lambda c: (-coverage[c] / len(cluster.members), global_freq[c], c),
    )
    return ranked[:top]
