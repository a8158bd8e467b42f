#!/usr/bin/env python3
"""devscan's benchmark: one closed-loop client, one app at a time, no threads.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, each in a fresh process

Run it from the root of a source checkout: it imports devscan from `src/`
and exits with status 2 when that tree is missing. Each app is analyzed the
way `devscan batch` analyzes a manifest row: `analyze_app` with the app's
APK and no device DB, rules or packer signatures, so the default data is
reloaded per app, then `canonical_json(report.to_json_dict())`, as
`scan --out` writes it. Every report is checked against the expected
result; a mismatch or an exception is printed and counted, never dropped.

With `--trace 0` the run prints the end-to-end metrics. With `--trace 1` it
analyzes the same apps untraced and then traced, checks that both runs
give the same reports apart from `wall_time_seconds`, and prints the
per-layer metrics of README.md plus `trace.overhead_ratio`. The spans are
written to `.perfbench_out/`. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zipfile
from dataclasses import dataclass
from pathlib import Path

import gen_call_web
import gen_synth_wide
from checks import check_report, count_smali_lines, fixture_expectation
from tracing import ANALYZE, SERIALIZE, LayerStats, Tracer, install, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("fixtures", "call_web", "synth_wide")

# The 27 annotated corpus apps; budget_bomb is left out because it is built
# to time out. Pinned so that fixtures added later do not change the mix.
FIXTURES = (
    "autostart_huawei", "autostart_vivo", "autostart_xiaomi", "build_fields",
    "comparisons_bool", "comparisons_more", "deep_chain", "diamond", "funtouch_os",
    "iget_field", "interproc_ret", "kill_redef", "libskip", "loop_moves", "meizu_imei",
    "multi_guard", "nullcheck", "oaid_samsung", "oppo_perm", "packed_app", "param_pass",
    "receiver_pass", "short_ident", "split_literal", "sysprop_direct", "untainted_cmp",
    "zero_sources",
)

# Seconds per app assumed when sizing a synthetic workload's pool of
# distinct apps: about half of what one app takes on a 2-vCPU x86 VM. A
# machine up to twice as fast still gets a fresh app for every sample; on a
# faster one the loop ends early when the pool runs out, so inputs never repeat.
POOL_APP_SECONDS = {"call_web": 0.6, "synth_wide": 3.0}

SETUP_RUNS = 15
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import devscan
from devscan.apk import default_packer_signatures
from devscan.devicedb import default_device_db
from devscan.report import sdk_prefixes_default
from devscan.rules import default_rules
default_device_db(); default_rules(); default_packer_signatures(); sdk_prefixes_default()
print(time.perf_counter() - t0)
"""

TIMEOUT = 3600.0  # `devscan batch --timeout` default


@dataclass
class App:
    app_id: str
    smali_root: Path
    apk: Path | None
    expected: dict
    instructions: int  # instruction lines in the input, counted here
    lines: int  # all smali lines


def _write_apk(path: Path, entries: list[str]) -> Path:
    with zipfile.ZipFile(path, "w") as zf:
        for name in entries:
            zf.writestr(name, b"x")
    return path


def _make_app(app_id: str, smali_root: Path, apk_dir: Path, expected: dict) -> App:
    apk = None
    if expected.get("apk_entries"):
        apk = _write_apk(apk_dir / f"{app_id}.apk", expected["apk_entries"])
    lines, instructions = count_smali_lines(smali_root)
    return App(app_id, smali_root, apk, expected, instructions, lines)


def fixture_apps(work: Path, ids: tuple[str, ...] = FIXTURES) -> list[App]:
    from devscan.fixtures import corpus_root

    apps = []
    for fid in ids:
        manifest = json.loads((corpus_root() / fid / "manifest.json").read_text(encoding="utf-8"))
        expected = fixture_expectation(manifest)
        apps.append(_make_app(fid, corpus_root() / fid / "smali", work, expected))
    return apps


def workload_apps(workload: str, seed: int, seconds: float, work: Path):
    """The apps a run analyzes, in order, generated before any timing."""
    rng = random.Random(seed)
    if workload == "fixtures":
        apps = fixture_apps(work)

        def passes():
            while True:
                order = apps[:]
                rng.shuffle(order)
                yield from order

        return passes()
    generate = {"call_web": gen_call_web.generate, "synth_wide": gen_synth_wide.generate}[workload]
    pool = []
    for _ in range(math.ceil(seconds / POOL_APP_SECONDS[workload]) + 1):
        app_seed = rng.randrange(2**32)
        out = work / f"{workload}_{app_seed}"
        expected = generate(app_seed, out)
        pool.append(_make_app(expected["app_id"], out / "smali", work, expected))
    return iter(pool)


def measure_setup() -> list[float]:
    """Seconds to import devscan and load its default data, fresh each time."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:  # the first run also writes bytecode caches
            samples.append(float(proc.stdout.strip()))
    return samples


def analyze(app: App, tracer=None) -> tuple[str, float]:
    """Report text of one app and the seconds spent producing it."""
    from devscan.report import Budgets, analyze_app, canonical_json

    kwargs = dict(apk=app.apk, budgets=Budgets(wall_clock_seconds=TIMEOUT), app_id=app.app_id)
    if tracer is None:
        t0 = time.perf_counter()
        report = analyze_app(app.smali_root, **kwargs)
        text = canonical_json(report.to_json_dict())
        return text, time.perf_counter() - t0
    tracer.app = app.app_id
    root = tracer.begin(ANALYZE)
    try:
        report = analyze_app(app.smali_root, **kwargs)
    finally:
        tracer.end(root)
    ser = tracer.begin(SERIALIZE)
    try:
        text = canonical_json(report.to_json_dict())
    finally:
        tracer.end(ser)
    spans = tracer.spans
    return text, (spans[root].end - spans[root].start) + (spans[ser].end - spans[ser].start)


@dataclass(slots=True)
class Sample:
    app: App
    seconds: float
    problems: list[str]
    report: dict | None = None  # kept only on request, and None when analysis raised
    report_bytes: int = 0


def run_app(app: App, tracer=None, keep: bool = False) -> Sample:
    t0 = time.perf_counter()
    try:
        text, seconds = analyze(app, tracer)
    except Exception:
        print(f"perfbench: {app.app_id} raised\n{traceback.format_exc()}", file=sys.stderr)
        return Sample(app, time.perf_counter() - t0, ["raised"])
    report = json.loads(text)
    problems = check_report(report, app.expected)
    for p in problems:
        print(f"perfbench: WRONG {app.app_id}: {p}", file=sys.stderr)
    return Sample(app, seconds, problems, report if keep else None, len(text.encode()))


def timed_loop(apps, seconds: float, keep: bool = False) -> list[Sample]:
    # set-up garbage is collected now, and what survives it is never scanned again
    gc.collect()
    gc.freeze()
    samples: list[Sample] = []
    busy = 0.0
    for app in apps:
        samples.append(run_app(app, keep=keep))
        busy += samples[-1].seconds
        # stop at the app boundary nearest the deadline
        if busy + busy / len(samples) / 2 >= seconds:
            break
    return samples


def _without_wall_time(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "wall_time_seconds"}


def end_to_end(apps, seconds: float) -> tuple[list[Sample], dict, list[str]]:
    setup = measure_setup()
    samples = timed_loop(apps, seconds)
    times = sorted(s.seconds for s in samples)
    wrong = sum(1 for s in samples if s.problems)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "instrs_per_s": (sum(s.app.instructions for s in samples) / sum(times), "1/s"),
        "app_s_p50": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "correct_ratio": (1 - wrong / len(samples), "ratio"),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters",
        f"app_s_p50, instrs_per_s: {len(samples)} apps, {sum(times):.3f} s analyzed",
        f"wrong_ratio: {wrong}/{len(samples)} = {wrong / len(samples):.6f}",
    ]
    if len(times) >= 1000:  # at least ten samples lie beyond p99
        notes.append(f"app_s_p99: {statistics.quantiles(times, n=100)[98]:.6f} s "
                     f"of {len(times)} apps")
    return samples, metrics, notes


def per_layer(workload: str, seed: int, apps, seconds: float) -> tuple[list[Sample], dict, list[str]]:
    plain = timed_loop(apps, seconds / 2, keep=True)
    tracer, stats = Tracer(), LayerStats()
    install(tracer, stats)
    traced = []
    try:
        for sample in plain:
            traced.append(run_app(sample.app, tracer, keep=True))
            if traced[-1].report is not None:
                stats.finish_app(traced[-1].report, traced[-1].report_bytes)
    finally:
        tracer.unwrap_all()
    mismatched = 0
    for a, b in zip(plain, traced):
        if a.report is not None and b.report is not None and \
                _without_wall_time(a.report) != _without_wall_time(b.report):
            mismatched += 1
            b.problems.append("traced report differs from untraced report")
            print(f"perfbench: WRONG {a.app.app_id}: traced report differs", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_jsonl(spans_path)
    metrics = layer_metrics(tracer, stats, len(traced), sum(s.app.lines for s in traced))
    overhead = sum(s.seconds for s in traced) / sum(s.seconds for s in plain) - 1
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    notes = [
        f"{len(traced)} apps traced after the same apps untraced; "
        f"{mismatched} traced reports differ; spans in {spans_path}",
    ]
    return plain + traced, metrics, notes


def run_workload(args) -> int:
    if not (SRC / "devscan" / "__init__.py").is_file():
        print(f"perfbench: no devscan sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import devscan

    if Path(devscan.__file__).resolve().parent != (SRC / "devscan").resolve():
        print(f"perfbench: imported devscan from {devscan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        apps = workload_apps(args.workload, args.seed, args.seconds, work)
        # fill lazy state (imports, caches) before timing; checked like any app
        warm = run_app(fixture_apps(work, ("oppo_perm",))[0])
        if args.trace:
            samples, metrics, notes = per_layer(args.workload, args.seed, apps, args.seconds)
        else:
            samples, metrics, notes = end_to_end(apps, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples.append(warm)
    failed = sum(1 for s in samples if s.problems)
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
        )
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="devscan benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
