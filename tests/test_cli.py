import errno
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import devscan
import devscan.cli
from devscan.cli import main
from devscan.fixtures import corpus_root


def smali_root(fid):
    return str(corpus_root() / fid / "smali")


def test_scan_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["scan", smali_root("oppo_perm"), "--out", str(out), "--app-id", "oppo"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["app_id"] == "oppo"
    assert data["functionalities"] == ["Permission Management"]


def test_scan_stdout(capsys):
    code = main(["scan", smali_root("zero_sources")])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["analysis_status"] == "ok"


def test_scan_missing_root_is_input_error(tmp_path, capsys):
    assert main(["scan", str(tmp_path / "nope")]) == 2


def test_scan_file_root_is_not_a_directory(tmp_path, capsys):
    root = tmp_path / "app.smali"
    root.write_text("", encoding="utf-8")
    assert main(["scan", str(root)]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["analysis_status"] == "failed"
    assert "is not a directory" in data["failure_reason"]


@pytest.mark.parametrize("command", ["scan", "aggregate"])
def test_out_that_is_a_directory_is_input_error(tmp_path, capsys, command):
    """A --out that cannot be written is an input error, not an internal one."""
    if command == "scan":
        source = smali_root("oppo_perm")
    else:
        source = tmp_path / "reports"
        source.mkdir()
        assert main(["scan", smali_root("oppo_perm"), "--out", str(source / "oppo.json")]) == 0
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert main([command, str(source), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("devscan: ") and "internal error" not in err


@pytest.mark.parametrize("command", ["scan", "aggregate"])
@pytest.mark.parametrize(
    "where, code", [("directory", errno.EISDIR), ("missing parent", errno.ENOENT)]
)
def test_unwritable_out_fails_before_the_work(tmp_path, capsys, monkeypatch, command, where, code):
    """A --out that cannot be written fails with the write's error before any
    app is analyzed or report read, and creates nothing."""

    def never(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(devscan.cli, "analyze_app", never)
    monkeypatch.setattr(devscan.cli, "load_report", never)
    source = smali_root("oppo_perm")
    if command == "aggregate":
        source = tmp_path / "reports"
        source.mkdir()
        (source / "oppo.json").write_text("{}", encoding="utf-8")
    out = tmp_path / "out"
    if where == "directory":
        out.mkdir()
    else:
        out = out / "report.json"
    before = sorted(tmp_path.rglob("*"))
    assert main([command, str(source), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"devscan: [Errno {code}] {os.strerror(code)}: {str(out)!r}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_scan_packed_apk(tmp_path, capsys):
    apk = tmp_path / "packed.apk"
    with zipfile.ZipFile(apk, "w") as zf:
        zf.writestr("lib/armeabi/libjiagu.so", b"x")
        zf.writestr("classes.dex", b"x")
    code = main(["scan", smali_root("packed_app"), "--apk", str(apk)])
    assert code == 2


def test_scan_timeout_exit_code(budget_bomb, capsys):
    code = main(["scan", str(budget_bomb), "--timeout", "2"])
    assert code == 3


TWO_ORIGINS = """
.class public Lt/A;
.super Ljava/lang/Object;

.method public static f()Ljava/lang/String;
    .registers 3
    sget-object v0, Landroid/os/Build;->BRAND:Ljava/lang/String;
    sget-object v1, Landroid/os/Build;->MODEL:Ljava/lang/String;
    invoke-virtual {v0, v1}, Ljava/lang/String;->concat(Ljava/lang/String;)Ljava/lang/String;
    move-result-object v2
    return-object v2
.end method
"""


def test_dump_taint_order_ignores_hash_seed(tmp_path):
    """v2 holds one definition with two origins; its lines keep one order."""
    (tmp_path / "smali" / "t").mkdir(parents=True)
    (tmp_path / "smali" / "t" / "A.smali").write_text(TWO_ORIGINS, encoding="utf-8")
    src = str(Path(devscan.__file__).resolve().parents[1])
    digests = set()
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "devscan.cli", "scan", str(tmp_path / "smali"),
             "--dump-taint", "--out", str(tmp_path / "report.json")],
            env=env, capture_output=True, check=True,
        )
        assert done.stderr.count(b"\n") == 4
        digests.add(hashlib.sha256(done.stderr).hexdigest())
    assert len(digests) == 1


def _scan_beside_oppo_perm(tmp_path, bad_class):
    """Scan oppo_perm alone and with `bad_class` added as Bad.smali."""
    root = tmp_path / "smali"
    shutil.copytree(smali_root("oppo_perm"), root)
    (root / "Bad.smali").write_text(bad_class, encoding="utf-8")
    reports = {}
    for name, tree in (("alone", smali_root("oppo_perm")), ("with_bad", root)):
        out = tmp_path / f"{name}.json"
        assert main(["scan", str(tree), "--out", str(out)]) == 0
        reports[name] = json.loads(out.read_text())
    return root, reports["alone"], reports["with_bad"]


def test_scan_drops_only_class_with_malformed_descriptor(tmp_path, capsys):
    root, alone, with_bad = _scan_beside_oppo_perm(
        tmp_path,
        ".class public Lcom/app/Bad;\n.super Ljava/lang/Object;\n"
        ".method public f(Landroid/content/Context)V\n    .registers 2\n"
        "    return-void\n.end method\n",
    )
    assert with_bad["analysis_status"] == "ok"
    assert (with_bad["guards"], with_bad["snippets"]) == (alone["guards"], alone["snippets"])
    assert alone["guards"] > 0
    assert with_bad["diagnostics"] == [{
        "path": str(root / "Bad.smali"),
        "message": "line 3, col 1: bad method descriptor: '(Landroid/content/Context)V'",
    }]


@pytest.mark.parametrize("method, line, descriptor", [
    (".method public static g(Landroid/content/Context;)Q\n    .registers 1\n", 3,
     "(Landroid/content/Context;)Q"),
    (".method public static f()V\n    .registers 1\n"
     "    invoke-static {v0}, Lcom/app/K;->g(Landroid/content/Context)V\n", 5,
     "(Landroid/content/Context)V"),
], ids=["return_type", "reference"])
def test_scan_drops_only_class_with_bad_return_or_reference(tmp_path, capsys, method, line, descriptor):
    root, alone, with_bad = _scan_beside_oppo_perm(
        tmp_path,
        f".class public Lcom/app/K;\n.super Ljava/lang/Object;\n{method}    return-void\n.end method\n",
    )
    assert with_bad["analysis_status"] == "ok"
    assert (with_bad["guards"], with_bad["snippets"]) == (alone["guards"], alone["snippets"])
    assert with_bad["diagnostics"] == [{
        "path": str(root / "Bad.smali"),
        "message": f"line {line}, col 1: bad method descriptor: {descriptor!r}",
    }]


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as err:
        main(["scan"])  # missing positional
    assert err.value.code == 1


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("scan", "--timeout", "nan"),
        ("scan", "--timeout", "0"),
        ("scan", "--timeout", "-5"),
        ("batch", "--timeout", "nan"),
        ("batch", "--timeout", "0"),
        ("batch", "--jobs", "0"),
        ("batch", "--jobs", "-3"),
    ],
)
def test_out_of_range_number_is_usage_error(tmp_path, capsys, command, option, value):
    """A budget must be above 0 and a pool needs a worker: NaN would never
    run out, and 0 or below would start out of time or quietly run serially."""
    argv = [command, str(tmp_path / "input"), option, value]
    if command == "batch":
        argv += ["--out-dir", str(tmp_path / "reports")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    assert f"argument {option}: invalid positive" in capsys.readouterr().err


def test_timeout_may_be_inf():
    args = devscan.cli.build_parser().parse_args(["scan", "app", "--timeout", "inf"])
    assert args.timeout == float("inf")


def test_batch_and_aggregate(tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        f"oppo\t{smali_root('oppo_perm')}\t\tplay\n"
        f"clean\t{smali_root('zero_sources')}\t\tcn\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "reports"
    assert main(["batch", str(manifest), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "oppo.json").is_file() and (out_dir / "clean.json").is_file()

    agg_out = tmp_path / "corpus.json"
    assert main(["aggregate", str(out_dir), "--out", str(agg_out)]) == 0
    corpus = json.loads(agg_out.read_text())
    assert corpus["groups"]["play"]["with_behaviors"] == 1
    assert corpus["groups"]["cn"]["with_behaviors"] == 0
    assert corpus["totals"]["apps_total"] == 2


def test_batch_parallel(tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        f"a\t{smali_root('zero_sources')}\n" f"b\t{smali_root('libskip')}\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "reports"
    assert main(["batch", str(manifest), "--out-dir", str(out_dir), "--jobs", "2"]) == 0
    assert len(list(out_dir.glob("*.json"))) == 2


def _assert_batch_rejects_second_row(tmp_path, capsys, monkeypatch, row, message):
    """A batch whose second manifest row is ``row`` exits 2 with ``message``
    before it analyzes any row."""
    analyzed = []
    real = devscan.cli.analyze_app

    def recording(*args, **kwargs):
        analyzed.append(kwargs.get("app_id"))
        return real(*args, **kwargs)

    monkeypatch.setattr(devscan.cli, "analyze_app", recording)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"good\t{smali_root('zero_sources')}\n{row}\n", encoding="utf-8")
    out_dir = tmp_path / "reports"
    assert main(["batch", str(manifest), "--out-dir", str(out_dir)]) == 2
    assert f"{manifest} line 2: {message}" in capsys.readouterr().err
    assert analyzed == []
    assert list(tmp_path.rglob("*.json")) == []


@pytest.mark.parametrize("bad_id", ["a/b", "../x", "a\\b", ".", "..", "good"])
def test_batch_rejects_bad_app_id_before_any_row(tmp_path, capsys, monkeypatch, bad_id):
    row = f"{bad_id}\t{smali_root('zero_sources')}"
    _assert_batch_rejects_second_row(tmp_path, capsys, monkeypatch, row, "bad app_id")


def test_batch_rejects_empty_smali_root_before_any_row(tmp_path, capsys, monkeypatch):
    """An empty smali_root would otherwise scan the working directory."""
    row = "app\t\t\tmarketX"
    _assert_batch_rejects_second_row(tmp_path, capsys, monkeypatch, row, "empty smali_root")


def test_batch_row_crash_fails_only_that_row(tmp_path, capsys, monkeypatch):
    real = devscan.cli.analyze_app

    def crashing(*args, **kwargs):
        if kwargs.get("app_id") == "b":
            raise KeyError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(devscan.cli, "analyze_app", crashing)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        "".join(f"{app_id}\t{smali_root('zero_sources')}\n" for app_id in "abc"),
        encoding="utf-8",
    )
    out_dir = tmp_path / "reports"
    assert main(["batch", str(manifest), "--out-dir", str(out_dir), "--jobs", "1"]) == 0
    assert sorted(p.name for p in out_dir.glob("*.json")) == ["a.json", "b.json", "c.json"]
    reports = {a: json.loads((out_dir / f"{a}.json").read_text()) for a in "abc"}
    assert reports["b"]["analysis_status"] == "failed"
    assert reports["b"]["failure_reason"] == "internal: KeyError: 'boom'"
    assert reports["a"]["analysis_status"] == reports["c"]["analysis_status"] == "ok"
    rows = capsys.readouterr().out.splitlines()
    assert [row.split("\t")[:2] for row in rows] == [["a", "ok"], ["b", "failed"], ["c", "ok"]]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_unwritable_report_fails_only_that_row(tmp_path, capfd, jobs):
    """A report that cannot be written is named on stderr, every other row
    is analyzed and written, every row prints its line, and the exit is 2.
    ``capfd`` also reads what the pool's workers print."""
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        f"oppo\t{smali_root('oppo_perm')}\nclean\t{smali_root('zero_sources')}\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "reports"
    (out_dir / "oppo.json").mkdir(parents=True)
    assert main(["batch", str(manifest), "--out-dir", str(out_dir), "--jobs", jobs]) == 2
    out, err = capfd.readouterr()
    assert "devscan: oppo: " in err and "oppo.json" in err
    assert json.loads((out_dir / "clean.json").read_text())["analysis_status"] == "ok"
    assert [row.split("\t") for row in out.splitlines()] == [
        ["oppo", "ok", "-"],
        ["clean", "ok", str(out_dir / "clean.json")],
    ]


def test_batch_loads_db_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = devscan.cli.load_device_db

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(devscan.cli, "load_device_db", counting)
    db = str(Path(devscan.__file__).parent / "data" / "device_db.csv")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        "".join(f"{app_id}\t{smali_root('oppo_perm')}\n" for app_id in "abc"),
        encoding="utf-8",
    )
    out_dir = tmp_path / "reports"
    args = ["batch", str(manifest), "--out-dir", str(out_dir), "--jobs", "1", "--db", db]
    assert main(args) == 0
    assert calls == [db]
    assert len(list(out_dir.glob("*.json"))) == 3


def test_aggregate_empty_dir(tmp_path, capsys):
    assert main(["aggregate", str(tmp_path)]) == 2


@pytest.mark.parametrize("kind", ["corpus", "array"])
def test_aggregate_rejects_json_that_is_not_an_app_report(tmp_path, capsys, kind):
    """An earlier run's --out, or any other JSON, in the report directory is
    an input error that names the file, not an internal one."""
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"oppo\t{smali_root('oppo_perm')}\n", encoding="utf-8")
    out_dir = tmp_path / "reports"
    assert main(["batch", str(manifest), "--out-dir", str(out_dir)]) == 0
    stray = out_dir / "corpus.json"
    if kind == "corpus":
        assert main(["aggregate", str(out_dir), "--out", str(stray)]) == 0
    else:
        stray.write_text("[1, 2]\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["aggregate", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert str(stray) in err and "not an app report" in err
    assert "internal error" not in err


def test_db_validate(capsys, tmp_path):
    db = tmp_path / "db.csv"
    db.write_text("brand,OPPO\nos,ColorOS\n", encoding="utf-8")
    assert main(["db", "validate", str(db)]) == 0
    assert "1 brands" in capsys.readouterr().out


def test_db_import_merges(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("brand,OPPO\n", encoding="utf-8")
    b.write_text("brand,oppo\nmodel,PEEM00\n", encoding="utf-8")
    out = tmp_path / "merged.csv"
    assert main(["db", "import", str(a), str(b), "--out", str(out)]) == 0
    text = out.read_text()
    assert "brand,OPPO" in text and "model,PEEM00" in text
    assert "brand,oppo" not in text  # first original form wins


def test_db_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense,x\n", encoding="utf-8")
    assert main(["db", "validate", str(bad)]) == 2


def test_rules_lint_and_list(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("OAID | com.huawei.hwid | privacy_related\n", encoding="utf-8")
    assert main(["rules", "lint", str(rules)]) == 0
    assert main(["rules", "list", str(rules)]) == 0
    out = capsys.readouterr().out
    assert "com.huawei.hwid" in out


def test_rules_lint_rejects_duplicates(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text(
        "OAID | x | privacy_related\nOAID | x | privacy_related\n", encoding="utf-8"
    )
    assert main(["rules", "lint", str(rules)]) == 2


def test_rules_test_runs_pipeline(capsys):
    assert main(["rules", "test", smali_root("oppo_perm")]) == 0
    out = capsys.readouterr().out
    assert "Permission Management" in out


def test_dump_cfg_method(capsys):
    sig = "Lcom/fixtures/oppo/PermissionPage;->oppoApi(Landroid/content/Context;)V"
    assert main(["dump-cfg", smali_root("oppo_perm"), "--method", sig]) == 0
    assert "digraph" in capsys.readouterr().out


DIAMOND_DOT = r'''// Lcom/fixtures/regions/Diamond;->check()V
digraph cfg {
  node [shape=box, fontname="monospace"];
  b0 [label="B0\l0: sget-object\l1: const-string\l2: invoke-virtual\l3: move-result\l4: if-eqz\l"];
  b1 [label="B1\l5: const-string\l6: goto\l"];
  b2 [label="B2\l7: const-string\l"];
  b3 [label="B3\l8: return-void\l"];
  b0 -> b2 [label="branch_taken"];
  b0 -> b1 [label="fallthrough"];
  b1 -> b3 [label="goto"];
  b2 -> b3 [label="fallthrough"];
}
'''


def test_dump_cfg_all_methods(capsys):
    assert main(["dump-cfg", smali_root("diamond")]) == 0
    assert capsys.readouterr().out == DIAMOND_DOT


def test_dump_call_graph(capsys):
    assert main(["dump-cfg", smali_root("oppo_perm"), "--call-graph"]) == 0
    assert "oppoApi" in capsys.readouterr().out


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as under ``devscan ... | head``."""

    def __init__(self, fd: int):
        super().__init__()
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self._fd


def test_closed_stdout_exits_quietly(tmp_path, monkeypatch, capsys):
    # main points the stdout descriptor at devnull: give it one of our own
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
        code = main(["dump-cfg", smali_root("oppo_perm"), "--call-graph"])
    assert code == devscan.cli.EXIT_PIPE == 141
    assert capsys.readouterr().err == ""


def test_dump_cfg_unknown_method(capsys):
    assert main(["dump-cfg", smali_root("oppo_perm"), "--method", "Lx;->y()V"]) == 2


def test_diagnostics_go_to_stderr(tmp_path, capsys):
    (tmp_path / "good.smali").write_text(
        ".class public La/B;\n.super Ljava/lang/Object;\n", encoding="utf-8"
    )
    (tmp_path / "bad.smali").write_text(".class oops\n", encoding="utf-8")
    assert main(["scan", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    diag = json.loads(captured.err.strip().splitlines()[0])
    assert "bad.smali" in diag["path"]


# one class that reaches Build.BRAND through a D8 nest accessor
NEST_PROBE = """
.class public Lcom/foo/Bar;
.super Ljava/lang/Object;

.method private static brand()Ljava/lang/String;
    .registers 1
    sget-object v0, Landroid/os/Build;->BRAND:Ljava/lang/String;
    return-object v0
.end method

.method static synthetic -$$Nest$mbrand()Ljava/lang/String;
    .registers 1
    invoke-static {}, Lcom/foo/Bar;->brand()Ljava/lang/String;
    move-result-object v0
    return-object v0
.end method

.method public check()V
    .registers 3
    invoke-static {}, Lcom/foo/Bar;->-$$Nest$mbrand()Ljava/lang/String;
    move-result-object v0
    const-string v1, "xiaomi"
    invoke-virtual {v0, v1}, Ljava/lang/String;->equals(Ljava/lang/Object;)Z
    move-result v0
    if-eqz v0, :skip
    const-string v1, "com.miui.securitycenter"
    :skip
    return-void
.end method
"""


def test_nest_accessor_probe_finds_guard(tmp_path, capsys):
    (tmp_path / "Bar.smali").write_text(NEST_PROBE, encoding="utf-8")
    assert main(["scan", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["diagnostics"], report["brands"]) == ([], ["Xiaomi"])


def test_failed_load_keeps_its_diagnostics(tmp_path, capsys):
    # the probe with a reference the parser rejects, so no class loads
    broken = NEST_PROBE.replace(";->-$$Nest$mbrand", ";.-$$Nest$mbrand")
    (tmp_path / "Bar.smali").write_text(broken, encoding="utf-8")
    assert main(["scan", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["analysis_status"] == "failed"
    assert report["failure_reason"] == f"no classes loaded from {tmp_path}"
    diagnostic = {
        "path": str(tmp_path / "Bar.smali"),
        "message": "line 20, col 1: malformed method reference "
        "'Lcom/foo/Bar;.-$$Nest$mbrand()Ljava/lang/String;'",
    }
    assert report["diagnostics"] == [diagnostic]
    assert [json.loads(line) for line in captured.err.splitlines()] == [diagnostic]


def test_dump_taint_emits_json_lines(capsys):
    assert main(["scan", smali_root("libskip"), "--dump-taint"]) == 0
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    facts = [json.loads(l) for l in err_lines]
    assert facts and {"method", "register", "valid_range", "chain"} <= set(facts[0])
