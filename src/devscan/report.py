"""Per-app analysis reports and corpus-level aggregation."""

from __future__ import annotations

import functools
import gc
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .apk import (
    PackerSignature,
    default_packer_signatures,
    detect_packing,
    list_apk_entries,
)
from .behavior import BehaviorSnippet, extract_region, find_device_guards
from .devicedb import DeviceInfoDB, IdentifierKind, default_device_db
from .graphs import build_call_graph, build_cfgs
from .rules import RuleSet, categories_of, default_rules
from .smali import ProgramLoadError, load_program
from .taint import TaintEngine, find_sources

SCHEMA_VERSION = 1

UNCLASSIFIED = "unclassified"


class Status:
    OK = "ok"
    PARTIAL_TIMEOUT = "partial_timeout"
    FAILED = "failed"


class Bucket:
    KNOWN_SDK = "known_sdk"
    DEVELOPER = "developer"
    OBFUSCATED = "obfuscated"


@dataclass
class Budgets:
    wall_clock_seconds: float = 3600.0  # per-app analysis cap


@dataclass
class AppReport:
    app_id: str
    market: str = "default"
    analysis_status: str = Status.OK
    failure_reason: str | None = None
    wall_time_seconds: float = 0.0
    packing: dict | None = None
    source_counts: dict = field(default_factory=dict)
    guards: int = 0
    snippets: list[dict] = field(default_factory=list)
    brands: list[str] = field(default_factory=list)
    oses: list[str] = field(default_factory=list)
    models: list[str] = field(default_factory=list)
    functionalities: list[str] = field(default_factory=list)
    source_attribution: dict = field(default_factory=dict)
    taint_converged: bool = True
    diagnostics: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **vars(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "AppReport":
        data = dict(data)
        data.pop("schema_version", None)
        return cls(**data)


def canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def sdk_prefixes_default() -> tuple[str, ...]:
    from importlib.resources import files

    out = []
    text = (files("devscan") / "data" / "sdk_prefixes.txt").read_text(encoding="utf-8")
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return tuple(out)


def bucket_package(package: str, sdk_prefixes: tuple[str, ...]) -> str:
    """known_sdk by prefix; obfuscated by the short-segment heuristic.

    Packages with three or more segments count as obfuscated when every
    segment after the second is at most two characters (obfuscators keep
    the declared root package); shorter packages when every segment is.
    """
    for prefix in sdk_prefixes:
        if package == prefix or package.startswith(prefix + "."):
            return Bucket.KNOWN_SDK
    segments = package.split(".")
    if len(segments) >= 3:
        if all(len(s) <= 2 for s in segments[2:]):
            return Bucket.OBFUSCATED
    elif all(len(s) <= 2 for s in segments):
        return Bucket.OBFUSCATED
    return Bucket.DEVELOPER


def attribute_sources(report: AppReport, sdk_prefixes: tuple[str, ...]) -> dict:
    """package -> {bucket, frequency}; frequency counts snippets touching it."""
    attribution: dict[str, dict] = {}
    for snippet in report.snippets:
        for package in snippet.get("package_names", []):
            entry = attribution.setdefault(
                package,
                {"bucket": bucket_package(package, sdk_prefixes), "frequency": 0},
            )
            entry["frequency"] += 1
    return dict(sorted(attribution.items()))


def _snippet_dict(snippet: BehaviorSnippet, categories: list[str]) -> dict:
    data = snippet.to_json_dict()
    data["categories"] = categories if categories else [UNCLASSIFIED]
    return data


def _collector_paused(analysis):
    """Run ``analysis`` with the cyclic garbage collector disabled, then
    re-enable it only if it was enabled before."""

    @functools.wraps(analysis)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return analysis(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
def analyze_app(
    smali_root: str | Path,
    apk: str | Path | None = None,
    db: DeviceInfoDB | None = None,
    rules: RuleSet | None = None,
    budgets: Budgets | None = None,
    app_id: str | None = None,
    market: str = "default",
    packer_signatures: tuple[PackerSignature, ...] | None = None,
    on_taint=None,
) -> AppReport:
    """Run the full pipeline on one app.

    Packed apps are filtered out before any code analysis. The wall-clock
    budget is enforced inside the taint fixpoint; on exhaustion the report
    carries partial results with status partial_timeout.

    The analysis builds no reference cycles, so reference counting frees
    all of its garbage: the process-wide cyclic collector is paused for
    the duration of the call and restored afterwards, also when a stage
    raises. ``on_taint`` runs inside that pause, and another thread
    running meanwhile goes without cycle collection until the call
    returns.
    """
    budgets = budgets or Budgets()
    db = db or default_device_db()
    rules = rules or default_rules()
    app_id = app_id or Path(smali_root).name
    report = AppReport(app_id=app_id, market=market)

    start = time.monotonic()
    deadline = start + budgets.wall_clock_seconds

    def elapsed() -> float:
        return time.monotonic() - start

    if apk is not None:
        signatures = (
            packer_signatures if packer_signatures is not None else default_packer_signatures()
        )
        try:
            entries = list_apk_entries(apk)
        except (OSError, ValueError) as exc:
            report.analysis_status = Status.FAILED
            report.failure_reason = f"apk: {exc}"
            report.wall_time_seconds = elapsed()
            return report
        verdict = detect_packing(entries, signatures)
        report.packing = {
            "packed": verdict.packed,
            "matched": [list(m) for m in verdict.matched],
        }
        if verdict.packed:
            report.analysis_status = Status.FAILED
            report.failure_reason = "packed"
            report.wall_time_seconds = elapsed()
            return report

    try:
        program, diagnostics = load_program(smali_root)
    except ProgramLoadError as exc:
        report.analysis_status = Status.FAILED
        report.failure_reason = str(exc)
        report.diagnostics = [d.to_json_dict() for d in exc.diagnostics]
        report.wall_time_seconds = elapsed()
        return report
    report.diagnostics = [d.to_json_dict() for d in diagnostics]

    cfgs = build_cfgs(program)
    call_graph = build_call_graph(program)
    sources = find_sources(program, cfgs)
    counts: dict[str, int] = {}
    for src in sources:
        counts[src.kind.value] = counts.get(src.kind.value, 0) + 1
    report.source_counts = dict(sorted(counts.items()))

    taint = TaintEngine(cfgs, call_graph, sources, deadline=deadline).solve()
    report.taint_converged = taint.converged
    if on_taint is not None:
        on_taint(taint)

    guards = find_device_guards(taint, cfgs, db)
    del taint  # no later stage reads it: a reference on_taint keeps still holds it
    report.guards = len(guards)

    brands: set[str] = set()
    oses: set[str] = set()
    models: set[str] = set()
    functionalities: set[str] = set()
    for guard in guards:
        snippet = extract_region(guard, cfgs, call_graph)
        cats = categories_of(snippet, rules)
        report.snippets.append(_snippet_dict(snippet, cats))
        functionalities.update(cats if cats else [UNCLASSIFIED])
        for m in guard.identifiers:
            if m.kind == IdentifierKind.BRAND:
                brands.add(m.db_entry)
            elif m.kind == IdentifierKind.OS:
                oses.add(m.db_entry)
            else:
                models.add(m.db_entry)
    report.brands = sorted(brands)
    report.oses = sorted(oses)
    report.models = sorted(models)
    report.functionalities = sorted(functionalities)
    report.source_attribution = attribute_sources(report, sdk_prefixes_default())

    report.wall_time_seconds = elapsed()
    if report.wall_time_seconds >= budgets.wall_clock_seconds:
        report.analysis_status = Status.PARTIAL_TIMEOUT
    return report


# ---------------------------------------------------------------------------
# corpus aggregation


def _new_group() -> dict:
    return {
        "apps_total": 0,
        "unpacked": 0,
        "analyzed": 0,
        "with_behaviors": 0,
        "sum_brands": 0,
        "sum_oses": 0,
        "sum_models": 0,
        "sum_functionalities": 0,
        "brand_counts": {},
        "os_counts": {},
        "category_counts": {},
        "source_attribution": {},
    }


def _add_report(group: dict, report: AppReport) -> None:
    group["apps_total"] += 1
    packed = report.failure_reason == "packed"
    if not packed:
        group["unpacked"] += 1
    if report.analysis_status == Status.OK:
        group["analyzed"] += 1
        if report.snippets:
            group["with_behaviors"] += 1
            group["sum_brands"] += len(report.brands)
            group["sum_oses"] += len(report.oses)
            group["sum_models"] += len(report.models)
            group["sum_functionalities"] += len(report.functionalities)
            for b in report.brands:
                group["brand_counts"][b] = group["brand_counts"].get(b, 0) + 1
            for o in report.oses:
                group["os_counts"][o] = group["os_counts"].get(o, 0) + 1
            for c in report.functionalities:
                group["category_counts"][c] = group["category_counts"].get(c, 0) + 1
    for package, entry in report.source_attribution.items():
        merged = group["source_attribution"].setdefault(
            package, {"bucket": entry["bucket"], "frequency": 0}
        )
        merged["frequency"] += entry["frequency"]


def _merge_group(into: dict, other: dict) -> None:
    for key in (
        "apps_total",
        "unpacked",
        "analyzed",
        "with_behaviors",
        "sum_brands",
        "sum_oses",
        "sum_models",
        "sum_functionalities",
    ):
        into[key] += other[key]
    for table in ("brand_counts", "os_counts", "category_counts"):
        for name, count in other[table].items():
            into[table][name] = into[table].get(name, 0) + count
    for package, entry in other["source_attribution"].items():
        merged = into["source_attribution"].setdefault(
            package, {"bucket": entry["bucket"], "frequency": 0}
        )
        merged["frequency"] += entry["frequency"]


def _finish_group(group: dict) -> dict:
    n = group["with_behaviors"]
    out = dict(group)
    out["avg_brands"] = group["sum_brands"] / n if n else 0.0
    out["avg_oses"] = group["sum_oses"] / n if n else 0.0
    out["avg_models"] = group["sum_models"] / n if n else 0.0
    out["avg_functionalities"] = group["sum_functionalities"] / n if n else 0.0
    for table in ("brand_counts", "os_counts", "category_counts"):
        out[table] = [
            [name, count]
            for name, count in sorted(
                group[table].items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
    out["source_attribution"] = dict(sorted(group["source_attribution"].items()))
    return out


@dataclass
class CorpusReport:
    groups: dict  # market -> raw group dict
    totals: dict

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "groups": {name: _finish_group(g) for name, g in sorted(self.groups.items())},
            "totals": _finish_group(self.totals),
        }


def aggregate(reports: list[AppReport]) -> CorpusReport:
    """Counts, distribution tables and averages over app reports, one group
    per market.

    Averages cover only apps with at least one snippet; raw sums travel in
    the output so partial aggregates merge exactly.
    """
    if not reports:
        raise ValueError("no reports to aggregate")
    groups: dict[str, dict] = {}
    totals = _new_group()
    for report in reports:
        group = groups.setdefault(report.market, _new_group())
        _add_report(group, report)
        _add_report(totals, report)
    return CorpusReport(groups=groups, totals=totals)


def merge_corpus_reports(parts: list[CorpusReport]) -> CorpusReport:
    if not parts:
        raise ValueError("no corpus reports to merge")
    groups: dict[str, dict] = {}
    totals = _new_group()
    for part in parts:
        for name, group in part.groups.items():
            into = groups.setdefault(name, _new_group())
            _merge_group(into, group)
        _merge_group(totals, part.totals)
    return CorpusReport(groups=groups, totals=totals)


def load_report(path: str | Path) -> AppReport:
    """One app report; a ValueError naming the file when it holds none."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return AppReport.from_json_dict(data)
    except (TypeError, ValueError) as exc:  # not an object, or not a report's keys
        raise ValueError(f"{path}: not an app report: {exc}") from None


def save_report(report: AppReport, path: str | Path) -> None:
    Path(path).write_text(canonical_json(report.to_json_dict()), encoding="utf-8")
