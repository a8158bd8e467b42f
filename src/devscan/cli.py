"""Command-line interface.

Exit codes: 0 ok, 1 usage, 2 input error, 3 partial (timeout), 4 internal,
141 stdout closed by its reader (the shell's status for a SIGPIPE death).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .apk import ApkError, load_packer_signatures
from .devicedb import DeviceDbError, load_device_db, merge_device_dbs
from .graphs import build_call_graph, build_cfgs, call_graph_to_dot, cfg_to_dot
from .report import (
    AppReport,
    Budgets,
    Status,
    aggregate,
    analyze_app,
    canonical_json,
    load_report,
    save_report,
)
from .rules import RuleError, load_rules, default_rules
from .smali import ProgramLoadError, load_program

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_PARTIAL = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive(kind):
    """argparse type: a ``kind`` above 0 (so no NaN, and no int below 1)."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise ValueError(text)
        return value

    parse.__name__ = f"positive {kind.__name__}"
    return parse


def _emit_diagnostics(diagnostics) -> None:
    for diag in diagnostics:
        print(json.dumps(diag if isinstance(diag, dict) else diag.to_json_dict()), file=sys.stderr)


def _load_inputs(args):
    db = load_device_db(args.db) if getattr(args, "db", None) else None
    rules = load_rules(args.rules) if getattr(args, "rules", None) else None
    signatures = (
        load_packer_signatures(args.packer_signatures)
        if getattr(args, "packer_signatures", None)
        else None
    )
    return db, rules, signatures


def cmd_scan(args) -> int:
    db, rules, signatures = _load_inputs(args)
    budgets = Budgets(wall_clock_seconds=args.timeout)

    def dump_taint(result):
        # one definition may carry several origins: order them too, so the
        # lines do not follow set hashing
        for fact in sorted(
            result.facts,
            key=lambda f: (
                f.method, f.register, f.valid_range,
                (f.origin.method, f.origin.index, f.origin.kind.value),
                tuple(s.value for s in f.chain),
            ),
        ):
            print(json.dumps(fact.to_json_dict()), file=sys.stderr)

    report = analyze_app(
        args.smali_root,
        apk=args.apk,
        db=db,
        rules=rules,
        budgets=budgets,
        app_id=args.app_id,
        market=args.market,
        packer_signatures=signatures,
        on_taint=dump_taint if args.dump_taint else None,
    )
    _emit_diagnostics(report.diagnostics)
    text = canonical_json(report.to_json_dict())
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    if report.analysis_status == Status.PARTIAL_TIMEOUT:
        return EXIT_PARTIAL
    if report.analysis_status == Status.FAILED:
        return EXIT_INPUT
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def _batch_inputs(db_path: str | None, rules_path: str | None):
    """The batch's `--db` and `--rules`, loaded once per process, not per row."""
    db = load_device_db(db_path) if db_path else None
    rules = load_rules(rules_path) if rules_path else None
    return db, rules


def _batch_row(row: tuple[str, str, str | None, str], args_dict: dict) -> dict:
    app_id, smali_root, apk, market = row
    db, rules = _batch_inputs(args_dict["db"], args_dict["rules"])
    try:
        report = analyze_app(
            smali_root,
            apk=apk,
            db=db,
            rules=rules,
            budgets=Budgets(wall_clock_seconds=args_dict["timeout"]),
            app_id=app_id,
            market=market,
        )
    except Exception as exc:  # one bad app must not take the batch down
        print(f"devscan: {app_id}: internal error", file=sys.stderr)
        traceback.print_exc()
        report = AppReport(
            app_id=app_id,
            market=market,
            analysis_status=Status.FAILED,
            failure_reason=f"internal: {type(exc).__name__}: {exc}",
        )
    out_path = Path(args_dict["out_dir"]) / f"{app_id}.json"
    save_report(report, out_path)
    return {"app_id": app_id, "status": report.analysis_status, "out": str(out_path)}


def _parse_manifest(path: Path) -> list[tuple[str, str, str | None, str]]:
    rows = []
    first_line: dict[str, int] = {}
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ValueError(f"{path} line {line_no}: expected app_id<TAB>smali_root")
        app_id, smali_root = parts[0], parts[1]
        if not smali_root:
            raise ValueError(f"{path} line {line_no}: empty smali_root")
        if app_id in ("", ".", "..") or "/" in app_id or "\\" in app_id:
            raise ValueError(f"{path} line {line_no}: bad app_id {app_id!r}, not a file name")
        if app_id in first_line:
            raise ValueError(
                f"{path} line {line_no}: bad app_id {app_id!r}, "
                f"already on line {first_line[app_id]}"
            )
        first_line[app_id] = line_no
        apk = parts[2] if len(parts) > 2 and parts[2] else None
        market = parts[3] if len(parts) > 3 and parts[3] else "default"
        rows.append((app_id, smali_root, apk, market))
    return rows


def cmd_batch(args) -> int:
    rows = _parse_manifest(Path(args.manifest))
    # files may have changed since an earlier batch in this process
    _batch_inputs.cache_clear()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    args_dict = {
        "db": args.db,
        "rules": args.rules,
        "timeout": args.timeout,
        "out_dir": str(out_dir),
    }
    results = []
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_batch_row, row, args_dict) for row in rows]
            for future in futures:
                results.append(future.result())
    else:
        for row in rows:
            results.append(_batch_row(row, args_dict))
    for res in results:
        print(f"{res['app_id']}\t{res['status']}\t{res['out']}")
    return EXIT_OK


def cmd_aggregate(args) -> int:
    paths = sorted(Path(args.report_dir).glob("*.json"))
    if not paths:
        print(f"no reports in {args.report_dir}", file=sys.stderr)
        return EXIT_INPUT
    reports = [load_report(p) for p in paths]
    corpus = aggregate(reports)
    text = canonical_json(corpus.to_json_dict())
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_db(args) -> int:
    if args.db_command == "validate":
        db = load_device_db(args.file)
        brands, oses, models = db.size()
        print(f"{args.file}: {brands} brands, {oses} os names, {models} models")
        return EXIT_OK
    dbs = [load_device_db(f) for f in args.files]
    merged = merge_device_dbs(dbs)
    lines = ["# merged device database"]
    for kind, entries in (
        ("brand", merged.brands),
        ("os", merged.os_names),
        ("model", merged.models),
    ):
        for canon in sorted(entries):
            lines.append(f"{kind},{entries[canon]}")
    for value in sorted(merged.overlap_whitelist):
        lines.append(f"overlap,{value}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_rules(args) -> int:
    if args.rules_command == "lint":
        ruleset = load_rules(args.file)
        print(f"{args.file}: {len(ruleset.rules)} rules, {len(ruleset.categories)} categories")
        return EXIT_OK
    if args.rules_command == "list":
        ruleset = load_rules(args.file) if args.file else default_rules()
        for rule in ruleset.rules:
            print(f"{rule.category} | {rule.keyword} | {rule.behavior_type.value}")
        return EXIT_OK
    # rules test <smali_root>: run the pipeline, print categories per snippet
    db, rules, _ = _load_inputs(args)
    report = analyze_app(args.smali_root, db=db, rules=rules)
    _emit_diagnostics(report.diagnostics)
    for i, snippet in enumerate(report.snippets):
        guard = snippet["guard"]
        cats = ",".join(snippet["categories"])
        print(f"snippet {i}: {guard['method']} @{guard['index']} -> {cats}")
    if not report.snippets:
        print("no snippets found")
    return EXIT_OK


def cmd_dump_cfg(args) -> int:
    program, diagnostics = load_program(args.smali_root)
    _emit_diagnostics(diagnostics)
    if args.call_graph:
        print(call_graph_to_dot(build_call_graph(program)))
        return EXIT_OK
    cfgs = build_cfgs(program)
    if args.method:
        if args.method not in cfgs:
            print(f"no method {args.method}", file=sys.stderr)
            return EXIT_INPUT
        print(cfg_to_dot(cfgs[args.method]))
        return EXIT_OK
    for sig in sorted(cfgs):
        print(f"// {sig}")
        print(cfg_to_dot(cfgs[sig]))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="devscan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"devscan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="analyze one app from its smali tree")
    scan.add_argument("smali_root")
    scan.add_argument("--apk", help="APK archive for the packing gate")
    scan.add_argument("--db", help="device database CSV")
    scan.add_argument("--rules", help="classification rule file")
    scan.add_argument("--packer-signatures", help="packer signature TSV")
    scan.add_argument(
        "--timeout", type=_positive(float), default=3600.0, help="wall-clock budget in seconds"
    )
    scan.add_argument("--out", help="write the report JSON here instead of stdout")
    scan.add_argument("--app-id")
    scan.add_argument("--market", default="default")
    scan.add_argument(
        "--dump-taint",
        action="store_true",
        help="dump taint facts as JSON lines on stderr",
    )
    scan.set_defaults(func=cmd_scan)

    batch = sub.add_parser("batch", help="analyze many apps from a TSV manifest")
    batch.add_argument("manifest", help="rows: app_id<TAB>smali_root[<TAB>apk[<TAB>market]]")
    batch.add_argument("--out-dir", required=True)
    batch.add_argument("--jobs", type=_positive(int), default=1)
    batch.add_argument("--db")
    batch.add_argument("--rules")
    batch.add_argument("--timeout", type=_positive(float), default=3600.0)
    batch.set_defaults(func=cmd_batch)

    agg = sub.add_parser("aggregate", help="merge per-app reports into per-market corpus tables")
    agg.add_argument("report_dir")
    agg.add_argument("--out")
    agg.set_defaults(func=cmd_aggregate)

    db = sub.add_parser("db", help="device database utilities")
    db_sub = db.add_subparsers(dest="db_command", required=True)
    db_import = db_sub.add_parser("import", help="merge database files")
    db_import.add_argument("files", nargs="+")
    db_import.add_argument("--out")
    db_validate = db_sub.add_parser("validate")
    db_validate.add_argument("file")
    db.set_defaults(func=cmd_db)

    rules = sub.add_parser("rules", help="rule file utilities")
    rules_sub = rules.add_subparsers(dest="rules_command", required=True)
    rules_lint = rules_sub.add_parser("lint")
    rules_lint.add_argument("file")
    rules_list = rules_sub.add_parser("list")
    rules_list.add_argument("file", nargs="?")
    rules_test = rules_sub.add_parser("test", help="classify snippets of a fixture tree")
    rules_test.add_argument("smali_root")
    rules_test.add_argument("--rules")
    rules_test.add_argument("--db")
    rules.set_defaults(func=cmd_rules)

    dump = sub.add_parser("dump-cfg", help="dump CFGs or the call graph as DOT")
    dump.add_argument("smali_root")
    dump.add_argument("--method", help="limit to one method signature")
    dump.add_argument("--call-graph", action="store_true")
    dump.set_defaults(func=cmd_dump_cfg)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader stopped early (`devscan dump-cfg ... | head`); point
        # stdout at devnull so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (ApkError, DeviceDbError, RuleError, ProgramLoadError, FileNotFoundError, ValueError) as exc:
        print(f"devscan: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"devscan: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
