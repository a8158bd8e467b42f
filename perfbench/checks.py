"""Expected results and the report check shared by every workload.

An expectation is a dict with the app's `apk_entries`, `expect_status` (plus
`expect_failure_reason` when it must fail), `source_counts` by kind, and one
entry per guard: its method and branch index, comparison, identifiers by
kind and snippet categories. Optional guard keys (`guard_strings`,
`match_modes`, `matched_arm`, `reachable_methods`, `system_methods_include`,
`region`) are checked when present. The synthetic generators write this
shape directly; `fixture_expectation` builds it from a corpus manifest.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path


def fixture_expectation(manifest: dict) -> dict:
    """Expectation for a corpus fixture from its hand-written manifest."""
    snippets = {(s["guard_method"], s["guard_index"]): s for s in manifest["expected_snippets"]}
    guards = []
    for g in manifest["expected_guards"]:
        entry = dict(g)
        snippet = snippets.pop((g["method"], g["index"]), None)
        if snippet is None:
            raise ValueError(f"{manifest['fixture_id']}: guard {g['method']}@{g['index']} has no snippet")
        for key, value in snippet.items():
            if key not in ("guard_method", "guard_index"):
                entry[key] = value
        guards.append(entry)
    if snippets:
        raise ValueError(f"{manifest['fixture_id']}: snippets without a guard: {sorted(snippets)}")
    expected = {
        "app_id": manifest["fixture_id"],
        "apk_entries": manifest.get("apk_entries", []),
        "expect_status": manifest.get("expect_status", "ok"),
        "source_counts": dict(Counter(s["kind"] for s in manifest["expected_sources"])),
        "guards": guards,
    }
    if manifest.get("expect_failure_reason"):
        expected["expect_failure_reason"] = manifest["expect_failure_reason"]
    return expected


def _by_kind(identifiers: list[dict]) -> dict[str, list[str]]:
    out: dict[str, set[str]] = {}
    for ident in identifiers:
        out.setdefault(ident["kind"], set()).add(ident["db_entry"])
    return {kind: sorted(entries) for kind, entries in out.items()}


def _check_guard(snippet: dict, want: dict) -> list[str]:
    where = f"guard {want['method']}@{want['index']}"
    problems = []

    def expect(what: str, got, wanted) -> None:
        if got != wanted:
            problems.append(f"{where}: {what} {got!r} != {wanted!r}")

    expect("comparison", snippet["guard"]["comparison"], want["comparison"])
    expect(
        "identifiers",
        _by_kind(snippet["identifiers"]),
        {kind: sorted(v) for kind, v in want["identifiers"].items()},
    )
    expect("categories", snippet["categories"], want["categories"])
    if "guard_strings" in want:
        expect("guard_strings", snippet["guard_strings"], want["guard_strings"])
    if "match_modes" in want:
        modes = {i["db_entry"]: i["match_mode"] for i in snippet["identifiers"]}
        expect("match_modes", {k: modes.get(k) for k in want["match_modes"]}, want["match_modes"])
    if "matched_arm" in want:
        expect("matched_arm", snippet["matched_arm"], want["matched_arm"])
    if "reachable_methods" in want:
        expect("reachable_methods", snippet["reachable_methods"], sorted(want["reachable_methods"]))
    if "system_methods_include" in want:
        missing = set(want["system_methods_include"]) - set(snippet["invoked_system_methods"])
        expect("missing system methods", sorted(missing), [])
    if "region" in want:
        region = {arm: snippet["region"][arm] for arm in want["region"]}
        expect("region", region, want["region"])
    return problems


def check_report(report: dict, expected: dict) -> list[str]:
    """Every way `report` (a report's JSON dict) differs from `expected`."""
    problems = []

    def expect(what: str, got, wanted) -> None:
        if got != wanted:
            problems.append(f"{what} {got!r} != {wanted!r}")

    expect("status", report["analysis_status"], expected["expect_status"])
    if "expect_failure_reason" in expected:
        expect("failure_reason", report["failure_reason"], expected["expect_failure_reason"])
    if "taint_converged" in expected:
        expect("taint_converged", report["taint_converged"], expected["taint_converged"])
    expect("source_counts", report["source_counts"], expected["source_counts"])
    expect("guards", report["guards"], len(expected["guards"]))

    snippets = {(s["guard"]["method"], s["guard"]["index"]): s for s in report["snippets"]}
    wanted = {(g["method"], g["index"]): g for g in expected["guards"]}
    expect("guard sites", sorted(snippets), sorted(wanted))
    identifiers: dict[str, set[str]] = {"brand": set(), "os": set(), "model": set()}
    categories: set[str] = set()
    for key in sorted(snippets.keys() & wanted.keys()):
        problems += _check_guard(snippets[key], wanted[key])
    for g in expected["guards"]:
        for kind, entries in g["identifiers"].items():
            identifiers[kind].update(entries)
        categories.update(g["categories"])
    expect("brands", report["brands"], sorted(identifiers["brand"]))
    expect("oses", report["oses"], sorted(identifiers["os"]))
    expect("models", report["models"], sorted(identifiers["model"]))
    expect("functionalities", report["functionalities"], sorted(categories))
    return problems


def count_smali_lines(root: Path) -> tuple[int, int]:
    """(all lines, instruction lines) of the `.smali` files under `root`.

    An instruction line is a line inside a method body that starts with a
    mnemonic, so directives, labels, comments, payload data and blank lines
    do not count, however the frontend lowers what it reads.
    """
    lines = instructions = 0
    for path in sorted(root.rglob("*.smali")):
        in_method = False
        for raw in path.read_text(encoding="utf-8").splitlines():
            lines += 1
            text = raw.strip()
            if text.startswith(".method"):
                in_method = True
            elif text.startswith(".end method"):
                in_method = False
            elif in_method and text[:1].isalpha():
                instructions += 1
    return lines, instructions
