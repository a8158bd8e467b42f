"""Acceptance gate: one test per release criterion.

The terminal summary prints one PASS/FAIL line per criterion (see
conftest). Tolerances are pinned here; nothing is deferred.
"""

import json
import random
import time
import zipfile

from devscan.behavior import extract_region, find_device_guards
from devscan.devicedb import BUILD_FIELDS, property_key_for
from devscan.fixtures import corpus_root, list_fixture_ids, load_fixture, oracle_interpret
from devscan.graphs import _ipdoms_from_edges
from devscan.report import (
    AppReport,
    Budgets,
    Status,
    aggregate,
    analyze_app,
    canonical_json,
    merge_corpus_reports,
)
from devscan.rules import cluster_by_system_methods
from devscan.taint import SourceKind, TaintEngine
from tests.conftest import corpus_run
from tests.test_graphs import _oracle_ipdoms
from tests.test_taint import assert_fixpoint

def test_c1_fig2_end_to_end(device_db, rules):
    """oppo_perm: exactly one guard (string_equals on "oppo"), one snippet
    reaching exactly oppoApi, classified Permission Management, under 1s."""
    started = time.monotonic()
    report = analyze_app(
        corpus_root() / "oppo_perm" / "smali", db=device_db, rules=rules
    )
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert report.analysis_status == Status.OK
    assert report.guards == 1
    (snippet,) = report.snippets
    assert snippet["guard"]["comparison"] == "string_equals"
    assert snippet["guard_strings"] == ["oppo"]
    assert snippet["reachable_methods"] == [
        "Lcom/fixtures/oppo/PermissionPage;->oppoApi(Landroid/content/Context;)V"
    ]
    assert snippet["categories"] == ["Permission Management"]


def test_c2_fig6_reflective_sysprop(device_db, rules):
    """meizu_imei: reflective source with key ro.meizu.hardware.imei1 and the
    hardware-identifier classification."""
    run = corpus_run("meizu_imei")
    reflective = [
        s for s in run.sources if s.kind is SourceKind.SYSPROP_REFLECTIVE
    ]
    assert len(reflective) == 1
    assert reflective[0].detail == "ro.meizu.hardware.imei1"

    report = analyze_app(
        corpus_root() / "meizu_imei" / "smali", db=device_db, rules=rules
    )
    (snippet,) = report.snippets
    assert snippet["categories"] == ["SystemProperties Containing Hardware Identifiers"]


def test_c3_property_key_table_exact():
    """All seven Build-field rows reproduce verbatim."""
    expected = {
        "BRAND": "ro.product.brand",
        "DEVICE": "ro.product.device",
        "DISPLAY": "ro.build.display.id",
        "FINGERPRINT": "ro.build.fingerprint",
        "MANUFACTURER": "ro.product.manufacturer",
        "MODEL": "ro.product.model",
        "PRODUCT": "ro.product.name",
    }
    assert set(BUILD_FIELDS) == set(expected)
    for field, key in expected.items():
        assert property_key_for(field) == key


def test_c4_oracle_equivalence_across_corpus():
    """Engine and brute-force interpreter agree at every program point of
    every corpus fixture; at least 20 fixtures, under 30s."""
    started = time.monotonic()
    fixture_ids = list_fixture_ids()
    assert len(fixture_ids) >= 20
    mismatches = []
    for fid in fixture_ids:
        run = corpus_run(fid)
        assert sum(len(m.instructions) for m in run.program.methods()) <= 300, fid
        trace = oracle_interpret(run.program, run.sources)
        for method in run.program.methods():
            if not method.has_body:
                continue
            for i in range(len(method.instructions)):
                engine_set = run.taint.tainted_registers(method.signature, i)
                if engine_set != trace[method.signature][i]:
                    mismatches.append((fid, method.signature, i))
    assert mismatches == []
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s"


def test_c5_fixture_recall_and_precision(device_db):
    """Every annotated guard is reported and nothing else is (1.0 / 1.0)."""
    for fid in list_fixture_ids():
        run = corpus_run(fid)
        guards = find_device_guards(run.taint, run.cfgs, device_db)
        got = sorted((g.site.method, g.site.branch_instruction) for g in guards)
        want = sorted(
            (g["method"], g["index"]) for g in run.manifest.expected_guards
        )
        assert got == want, fid


RULE_FIXTURE_TEMPLATE = """\
.class public Lcom/ruletest/Case{idx};
.super Ljava/lang/Object;

.method public static check()V
    .registers 3
    sget-object v0, Landroid/os/Build;->BRAND:Ljava/lang/String;
    const-string v1, "oppo"
    invoke-virtual {{v0, v1}}, Ljava/lang/String;->equals(Ljava/lang/Object;)Z
    move-result v2
    if-eqz v2, :skip
    const-string v0, "{keyword}"
    invoke-static {{v0}}, Lcom/ruletest/Case{idx};->use(Ljava/lang/String;)V
    :skip
    return-void
.end method

.method public static use(Ljava/lang/String;)V
    .registers 1
    return-void
.end method
"""


def test_c6_rule_smoke_suite(tmp_path, device_db, rules):
    """Every shipped keyword classifies its dedicated fixture snippet into
    the stated category; double run confirms deterministic multi-labels."""
    assert len(rules.rules) >= 30
    for idx, rule in enumerate(rules.rules):
        root = tmp_path / f"case{idx}"
        root.mkdir()
        (root / "Case.smali").write_text(
            RULE_FIXTURE_TEMPLATE.format(idx=idx, keyword=rule.keyword),
            encoding="utf-8",
        )
        first = analyze_app(root, db=device_db, rules=rules, app_id=f"case{idx}")
        assert first.analysis_status == Status.OK
        (snippet,) = first.snippets
        assert rule.category in snippet["categories"], rule
        second = analyze_app(root, db=device_db, rules=rules, app_id=f"case{idx}")
        assert second.snippets[0]["categories"] == snippet["categories"]


def test_c7_invariant_suite(device_db, rules):
    """Propagation monotonicity, fixpoint idempotence, region bounds and
    disjointness, clustering partition, aggregate merge associativity,
    JSON round-trip, and 200 random postdominator cases."""
    # taint monotonicity in the source set
    for fid in ("build_fields", "multi_guard", "meizu_imei"):
        run = corpus_run(fid)
        if len(run.sources) < 2:
            continue
        partial = TaintEngine(
            run.cfgs, run.call_graph, run.sources[: len(run.sources) // 2]
        ).solve()
        for sig in run.taint.per_point():
            for i, regs in partial.per_point()[sig].items():
                assert regs <= run.taint.per_point()[sig][i]

    # fixpoint idempotence
    for fid in list_fixture_ids():
        run = corpus_run(fid)
        engine = TaintEngine(run.cfgs, run.call_graph, run.sources)
        result = engine.solve()
        assert result.converged, fid
        assert_fixpoint(engine, result)

    # region termination and arm disjointness
    all_snippets = []
    for fid in list_fixture_ids():
        run = corpus_run(fid)
        total_methods = sum(1 for _ in run.program.methods())
        for guard in find_device_guards(run.taint, run.cfgs, device_db):
            snippet = extract_region(guard, run.cfgs, run.call_graph)
            assert len(snippet.reachable_methods) <= total_methods
            taken = {
                i for s, e in snippet.region["taken"] for i in range(s, e + 1)
            }
            fall = {
                i for s, e in snippet.region["fallthrough"] for i in range(s, e + 1)
            }
            assert not taken & fall
            all_snippets.append(snippet)

    # clustering partitions its input
    clusters = cluster_by_system_methods(all_snippets)
    members = sorted(m for c in clusters for m in c.members)
    assert members == list(range(len(all_snippets)))

    # aggregate merge associativity over a random partition
    reports = [
        analyze_app(corpus_root() / fid / "smali", db=device_db, rules=rules, app_id=fid,
                    market="play" if i % 2 else "cn")
        for i, fid in enumerate(("oppo_perm", "meizu_imei", "autostart_vivo",
                                 "zero_sources", "oaid_samsung", "param_pass"))
    ]
    whole = aggregate(reports).to_json_dict()
    rng = random.Random(7)
    for _ in range(5):
        shuffled = reports[:]
        rng.shuffle(shuffled)
        cut = rng.randrange(1, len(shuffled))
        merged = merge_corpus_reports(
            [aggregate(shuffled[:cut]), aggregate(shuffled[cut:])]
        ).to_json_dict()
        assert merged == whole

    # report JSON round-trip is byte identical
    text = canonical_json(reports[0].to_json_dict())
    assert canonical_json(AppReport.from_json_dict(json.loads(text)).to_json_dict()) == text

    # 200 randomized small CFGs agree with the simple-path ipdom oracle
    rng = random.Random(1234)
    for _ in range(200):
        n = rng.randint(2, 12)
        succs, exits = {}, []
        for node in range(n):
            kind = rng.choice(["return", "goto", "branch", "fall"])
            if node == n - 1 or kind == "return":
                succs[node] = []
                exits.append(node)
            elif kind == "goto":
                succs[node] = [rng.randrange(n)]
            elif kind == "branch":
                a, b = rng.randrange(n), rng.randrange(n)
                succs[node] = [a, b] if a != b else [a]
            else:
                succs[node] = [min(node + 1, n - 1)]
        assert _ipdoms_from_edges(n, succs, exits) == _oracle_ipdoms(n, succs, exits)


def test_c8_budget_behavior(budget_bomb, device_db, rules):
    """The pathological call web blows a 2s budget and still produces a
    well-formed partial report."""
    report = analyze_app(
        budget_bomb,
        db=device_db,
        rules=rules,
        budgets=Budgets(wall_clock_seconds=2.0),
    )
    assert report.analysis_status == Status.PARTIAL_TIMEOUT
    assert report.wall_time_seconds >= 2.0
    assert not report.taint_converged
    assert report.guards == 0 and report.snippets == []
    parsed = AppReport.from_json_dict(json.loads(canonical_json(report.to_json_dict())))
    assert parsed.analysis_status == Status.PARTIAL_TIMEOUT


def test_c9_packing_gate(tmp_path, device_db, rules):
    """Packed fixture is rejected before analysis; unpacked ones proceed."""
    packed_manifest = load_fixture("packed_app").manifest
    packed_apk = tmp_path / "packed.apk"
    with zipfile.ZipFile(packed_apk, "w") as zf:
        for name in packed_manifest.apk_entries:
            zf.writestr(name, b"x")
    packed = analyze_app(
        corpus_root() / "packed_app" / "smali", apk=packed_apk, db=device_db, rules=rules
    )
    assert packed.analysis_status == Status.FAILED
    assert packed.failure_reason == "packed"
    assert packed.source_counts == {} and packed.snippets == []

    clean_manifest = load_fixture("oppo_perm").manifest
    clean_apk = tmp_path / "clean.apk"
    with zipfile.ZipFile(clean_apk, "w") as zf:
        for name in clean_manifest.apk_entries:
            zf.writestr(name, b"x")
    clean = analyze_app(
        corpus_root() / "oppo_perm" / "smali", apk=clean_apk, db=device_db, rules=rules
    )
    assert clean.analysis_status == Status.OK
    assert clean.packing == {"packed": False, "matched": []}
    assert clean.guards == 1
