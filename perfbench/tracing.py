"""Spans around devscan's layer boundaries, recorded from outside the package.

`Tracer.wrap` replaces a module or class attribute that devscan looks up at
call time with a wrapper that records a span: name, start, end, parent span
and app id. Spans stay in memory until the run ends. A layer's self time is
its span's duration minus the part of that interval its child spans cover.

`LAYER_TARGETS` lists the attributes wrapped for the per-layer metrics,
`LayerStats` sums the counts observed at the same boundaries, and
`layer_metrics` turns spans and counts into those metrics.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    app: str


def _statm_rss_bytes() -> int:
    """Current resident memory; 0 where /proc is not available."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.app = ""
        self.rss_growth: dict[int, int] = {}  # span index -> bytes
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.app))
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(self, owner, attr: str, name: str, observe=None, rss: bool = False) -> None:
        """Trace calls to `owner.attr`; `observe(args, result)` runs after each.

        Raises AttributeError when devscan no longer has the attribute, so a
        rename fails the traced run instead of silently dropping a layer.
        """
        original = getattr(owner, attr)
        raw = vars(owner)[attr]  # a class keeps staticmethod wrappers here
        if not callable(original):
            raise TypeError(f"{name}: {owner!r}.{attr} is not callable")
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rss_before = _statm_rss_bytes() if rss else 0
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if rss:
                tracer.rss_growth[index] = _statm_rss_bytes() - rss_before
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "app": s.app}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children.get(i, ())
        )
        covered = 0.0
        cur_start = cur_end = None
        for start, end in intervals:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.end - s.start - covered)
    return out


# Root spans the benchmark opens itself around each app.
ANALYZE = "report.analyze_app"
SERIALIZE = "report.serialize"


class LayerStats:
    """Counters observed at the wrapped boundaries, summed over apps."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.taint_results: list = []  # held until the app's root spans close

    # -- observers, one per wrapped boundary that yields a count --------

    def on_load_program(self, args, result) -> None:
        program, diagnostics = result
        self.counts["classes"] += len(program.classes)
        self.counts["dropped_classes"] += len(diagnostics)

    def on_call_graph(self, args, result) -> None:
        self.counts["call_edges"] += len(result.edges)
        self.counts["resolved_edges"] += sum(1 for e in result.edges if e.resolved)

    def on_sources(self, args, result) -> None:
        self.counts["sources"] += len(result)

    def on_solve(self, args, result) -> None:
        engine = args[0]
        self.counts["method_passes"] += engine.iterations
        self.counts["solved_methods"] += len(engine.cfgs)
        self.taint_results.append(result)

    def on_guard_sites(self, args, result) -> None:
        self.counts["guard_sites"] += len(result)

    def on_match(self, args, result) -> None:
        self.counts["match_calls"] += 1

    def on_region(self, args, result) -> None:
        self.counts["region_methods"] += len(result.reachable_methods)
        self.counts["truncated_regions"] += int(result.truncated)

    def on_categories(self, args, result) -> None:
        self.counts["snippets"] += 1
        self.counts["unclassified"] += int(not result)

    def finish_app(self, report: dict, report_bytes: int) -> None:
        """Count what needs the finished app, outside every span."""
        for result in self.taint_results:
            self.counts["tainted_points"] += sum(
                1 for points in result.per_point().values() for regs in points.values() if regs
            )
        self.taint_results.clear()
        self.counts["guards"] += report["guards"]
        self.counts["report_bytes"] += report_bytes


def install(tracer: Tracer, stats: LayerStats) -> None:
    """Wrap every boundary in LAYER_TARGETS; fails loudly on a renamed name."""
    import devscan.behavior
    import devscan.report
    import devscan.taint

    modules = {
        "report": devscan.report,
        "behavior": devscan.behavior,
        "TaintEngine": devscan.taint.TaintEngine,
    }
    for span_name, (owner, attr, observer, rss) in LAYER_TARGETS.items():
        observe = getattr(stats, observer) if observer else None
        tracer.wrap(modules[owner], attr, span_name, observe=observe, rss=rss)


# span name -> (owner, attribute analyze_app or find_device_guards looks up,
#               LayerStats observer, record RSS growth)
LAYER_TARGETS = {
    "apk.default_packer_signatures": ("report", "default_packer_signatures", None, False),
    "apk.list_apk_entries": ("report", "list_apk_entries", None, False),
    "apk.detect_packing": ("report", "detect_packing", None, False),
    "devicedb.default_device_db": ("report", "default_device_db", None, False),
    "rules.default_rules": ("report", "default_rules", None, False),
    "smali.load_program": ("report", "load_program", "on_load_program", False),
    "graphs.build_cfgs": ("report", "build_cfgs", None, False),
    "graphs.build_call_graph": ("report", "build_call_graph", "on_call_graph", False),
    "taint.find_sources": ("report", "find_sources", "on_sources", False),
    "taint.solve": ("TaintEngine", "solve", "on_solve", True),
    "behavior.find_device_guards": ("report", "find_device_guards", None, False),
    "behavior.find_guard_sites": ("behavior", "find_guard_sites", "on_guard_sites", False),
    "behavior.collect_guard_strings": ("behavior", "collect_guard_strings", None, False),
    "devicedb.match_identifier": ("behavior", "match_identifier", "on_match", False),
    "behavior.extract_region": ("report", "extract_region", "on_region", False),
    "rules.categories_of": ("report", "categories_of", "on_categories", False),
}


def layer_metrics(
    tracer: Tracer, stats: LayerStats, apps: int, smali_lines: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    Times are self seconds per app and counts are per app, both averaged
    over the traced apps; ratios are taken over the sums.
    """
    self_s: dict[str, float] = {}
    for span, t in zip(tracer.spans, self_times(tracer.spans)):
        self_s[span.name] = self_s.get(span.name, 0.0) + t
    rss = sorted(tracer.rss_growth.values())
    c = stats.counts

    def per_app(total: float) -> float:
        return total / apps

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def s(*names: str) -> float:
        return per_app(sum(self_s.get(n, 0.0) for n in names))

    load_s = self_s.get("smali.load_program", 0.0)
    return {
        "taint.solve_s": (s("taint.solve"), "s"),
        "taint.method_passes": (per_app(c["method_passes"]), "count"),
        "taint.passes_per_method": (ratio(c["method_passes"], c["solved_methods"]), "ratio"),
        "taint.rss_growth_mb": (rss[len(rss) // 2] / 2**20 if rss else 0.0, "MB"),
        "taint.tainted_points": (per_app(c["tainted_points"]), "count"),
        "taint.find_sources_s": (s("taint.find_sources"), "s"),
        "taint.sources": (per_app(c["sources"]), "count"),
        "smali.load_program_s": (s("smali.load_program"), "s"),
        "smali.lines_per_s": (ratio(smali_lines, load_s), "1/s"),
        "smali.classes": (per_app(c["classes"]), "count"),
        "smali.dropped_classes": (per_app(c["dropped_classes"]), "count"),
        "graphs.build_cfgs_s": (s("graphs.build_cfgs"), "s"),
        "graphs.build_call_graph_s": (s("graphs.build_call_graph"), "s"),
        "graphs.call_edges": (per_app(c["call_edges"]), "count"),
        "graphs.resolved_ratio": (ratio(c["resolved_edges"], c["call_edges"]), "ratio"),
        "behavior.find_guard_sites_s": (s("behavior.find_guard_sites"), "s"),
        "behavior.collect_guard_strings_s": (s("behavior.collect_guard_strings"), "s"),
        "behavior.extract_region_s": (s("behavior.extract_region"), "s"),
        "behavior.guard_sites": (per_app(c["guard_sites"]), "count"),
        "behavior.guards": (per_app(c["guards"]), "count"),
        "behavior.confirm_ratio": (ratio(c["guards"], c["guard_sites"]), "ratio"),
        "behavior.region_methods": (per_app(c["region_methods"]), "count"),
        "behavior.truncated_regions": (per_app(c["truncated_regions"]), "count"),
        "devicedb.match_s": (s("devicedb.match_identifier"), "s"),
        "devicedb.match_calls": (per_app(c["match_calls"]), "count"),
        "devicedb.load_s": (s("devicedb.default_device_db"), "s"),
        "rules.classify_s": (s("rules.categories_of"), "s"),
        "rules.unclassified_ratio": (ratio(c["unclassified"], c["snippets"]), "ratio"),
        "rules.load_s": (s("rules.default_rules"), "s"),
        "apk.check_s": (s("apk.default_packer_signatures", "apk.list_apk_entries",
                          "apk.detect_packing"), "s"),
        "report.serialize_s": (s(SERIALIZE), "s"),
        "report.report_bytes": (per_app(c["report_bytes"]), "bytes"),
        "report.analyze_app_s": (per_app(sum(
            sp.end - sp.start for sp in tracer.spans if sp.name == ANALYZE)), "s"),
        "report.unattributed_s": (s(ANALYZE), "s"),
    }
