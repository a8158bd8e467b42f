import pytest

from devscan.fixtures import OracleLimitError, load_fixture, oracle_interpret, validate_manifest
from devscan.graphs import build_cfgs
from devscan.ir import Program
from devscan.smali import parse_smali_class
from devscan.taint import find_sources
from tests.conftest import corpus_run


def test_manifest_annotations_point_at_real_code(all_fixture_ids):
    for fid in all_fixture_ids:
        fixture = load_fixture(fid)
        program = fixture.load()
        assert validate_manifest(fixture, program) == []


def test_oracle_matches_hand_traces(all_fixture_ids):
    """The manifests' oracle_trace entries were written by hand first; the
    interpreter has to agree with them."""
    traced = 0
    for fid in all_fixture_ids:
        run_manifest = load_fixture(fid).manifest
        if not run_manifest.oracle_trace:
            continue
        run = corpus_run(fid)
        trace = oracle_interpret(run.program, run.sources)
        for sig, points in run_manifest.oracle_trace.items():
            for index, regs in points.items():
                assert trace[sig][int(index)] == frozenset(regs), (fid, sig, index)
                traced += 1
    assert traced > 50


def test_engine_matches_hand_traces(all_fixture_ids):
    for fid in all_fixture_ids:
        manifest = load_fixture(fid).manifest
        if not manifest.oracle_trace:
            continue
        run = corpus_run(fid)
        for sig, points in manifest.oracle_trace.items():
            for index, regs in points.items():
                got = run.taint.tainted_registers(sig, int(index))
                assert got == frozenset(regs), (fid, sig, index, sorted(got))


def test_empty_method_has_empty_trace():
    cls = parse_smali_class(
        """
.class public Lt/Empty;
.super Ljava/lang/Object;
.method public static f()V
    .registers 1
    return-void
.end method
"""
    )
    program = Program((cls,))
    trace = oracle_interpret(program, find_sources(program, build_cfgs(program)))
    assert trace["Lt/Empty;->f()V"] == {0: frozenset()}


def test_interproc_ret_callers_tainted():
    run = corpus_run("interproc_ret")
    trace = oracle_interpret(run.program, run.sources)
    assert 0 in trace["Lcom/fixtures/chain/ReturnChain;->level1()Ljava/lang/String;"][2]
    assert 0 in trace["Lcom/fixtures/chain/ReturnChain;->check()V"][2]


def test_path_explosion_cap():
    # 16 diamonds in a row: 2^16 simple paths, far past a tiny cap
    lines = [
        ".class public Lt/Boom;",
        ".super Ljava/lang/Object;",
        ".method public static f()V",
        "    .registers 2",
    ]
    for i in range(16):
        lines += [
            f"    if-eqz v0, :a{i}",
            "    nop",
            f"    goto :b{i}",
            f"    :a{i}",
            "    nop",
            f"    :b{i}",
            "    nop",
        ]
    lines += ["    return-void", ".end method"]
    cls = parse_smali_class("\n".join(lines))
    program = Program((cls,))
    with pytest.raises(OracleLimitError):
        oracle_interpret(program, [], max_paths=500)
