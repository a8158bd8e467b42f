import gc
import json
import zipfile

import pytest

import devscan.report
from devscan.fixtures import corpus_root, list_fixture_ids, load_fixture
from devscan.report import (
    AppReport,
    Budgets,
    Bucket,
    Status,
    aggregate,
    analyze_app,
    attribute_sources,
    bucket_package,
    canonical_json,
    load_report,
    merge_corpus_reports,
    save_report,
    sdk_prefixes_default,
)
from tests.conftest import load_script


def smali_root(fid):
    return corpus_root() / fid / "smali"


def fixture_apk(tmp_path, fid):
    manifest = json.loads((corpus_root() / fid / "manifest.json").read_text())
    path = tmp_path / f"{fid}.apk"
    with zipfile.ZipFile(path, "w") as zf:
        for name in manifest["apk_entries"]:
            zf.writestr(name, b"x")
    return path


# -- analyze_app -----------------------------------------------------------------

def test_end_to_end_oppo(device_db, rules):
    report = analyze_app(smali_root("oppo_perm"), db=device_db, rules=rules)
    assert report.analysis_status == Status.OK
    assert report.guards == 1
    assert len(report.snippets) == 1
    assert report.snippets[0]["categories"] == ["Permission Management"]
    assert report.brands == ["OPPO"]
    assert report.functionalities == ["Permission Management"]
    assert report.source_counts == {"build_field_read": 1}
    assert report.taint_converged


def test_functionalities_within_rule_categories(device_db, rules):
    allowed = set(rules.categories) | {"unclassified"}
    for fid in ("oppo_perm", "build_fields", "meizu_imei", "multi_guard", "nullcheck"):
        report = analyze_app(smali_root(fid), db=device_db, rules=rules)
        assert set(report.functionalities) <= allowed


def test_zero_source_app_is_clean(device_db, rules):
    report = analyze_app(smali_root("zero_sources"), db=device_db, rules=rules)
    assert report.analysis_status == Status.OK
    assert report.snippets == []
    assert report.source_counts == {}


def test_packed_app_filtered(tmp_path, device_db, rules):
    apk = fixture_apk(tmp_path, "packed_app")
    report = analyze_app(smali_root("packed_app"), apk=apk, db=device_db, rules=rules)
    assert report.analysis_status == Status.FAILED
    assert report.failure_reason == "packed"
    assert report.packing["packed"] is True
    assert report.snippets == [] and report.source_counts == {}


def test_unpacked_apk_proceeds(tmp_path, device_db, rules):
    apk = fixture_apk(tmp_path, "oppo_perm")
    report = analyze_app(smali_root("oppo_perm"), apk=apk, db=device_db, rules=rules)
    assert report.analysis_status == Status.OK
    assert report.packing["packed"] is False
    assert report.guards == 1


def test_missing_root_fails(tmp_path, device_db, rules):
    report = analyze_app(tmp_path / "missing", db=device_db, rules=rules)
    assert report.analysis_status == Status.FAILED
    assert "missing" in report.failure_reason


def test_budget_exhaustion_partial(budget_bomb, device_db, rules):
    report = analyze_app(
        budget_bomb,
        db=device_db,
        rules=rules,
        budgets=Budgets(wall_clock_seconds=2.0),
    )
    assert report.analysis_status == Status.PARTIAL_TIMEOUT
    assert report.wall_time_seconds >= 2.0
    assert not report.taint_converged
    # partial report still well-formed
    data = report.to_json_dict()
    assert AppReport.from_json_dict(json.loads(canonical_json(data))).app_id == report.app_id


def _call_web(seed, out):
    """Write the benchmark's call_web app for ``seed`` under ``out``."""
    load_script("perfbench/gen_call_web.py").generate(seed, out)
    return out / "smali"


GOOD_CLASS = """\
.class public Lt/Good;
.super Ljava/lang/Object;
.method public static f()V
    .registers 3
    sget-object v0, Landroid/os/Build;->BRAND:Ljava/lang/String;
    const-string v1, "huawei"
    invoke-virtual {v0, v1}, Ljava/lang/String;->equals(Ljava/lang/Object;)Z
    move-result v2
    if-eqz v2, :skip
    nop
    :skip
    return-void
.end method
"""
BAD_CLASS = """\
.class public Lt/Bad;
.super Ljava/lang/Object;
.method public static f()V
    .registers 1
    goto :nowhere
.end method
"""


def test_analysis_leaves_no_cyclic_garbage(tmp_path, budget_bomb, device_db, rules):
    """Reference counting frees everything an analysis allocates, which is
    what lets analyze_app pause the cyclic collector: with every unreachable
    object saved, a collection after the runs finds none."""
    runs = [(smali_root(fid), {}) for fid in list_fixture_ids()]
    runs.append((budget_bomb, {"budgets": Budgets(wall_clock_seconds=0.3)}))
    read = []

    def on_taint(taint):
        read.append((len(taint.facts), len(taint.per_point())))

    runs.append((_call_web(7, tmp_path / "call_web"), {"on_taint": on_taint}))
    for name, classes in (("drops", (GOOD_CLASS, BAD_CLASS)), ("none_load", (BAD_CLASS,))):
        (tmp_path / name).mkdir()
        for i, text in enumerate(classes):
            (tmp_path / name / f"C{i}.smali").write_text(text, encoding="utf-8")
        runs.append((tmp_path / name, {}))
    runs.append((smali_root("packed_app"), {"apk": fixture_apk(tmp_path, "packed_app")}))

    flags, saved, enabled = gc.get_debug(), list(gc.garbage), gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        reports = [analyze_app(root, db=device_db, rules=rules, **kw) for root, kw in runs]
        assert gc.collect() == 0
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved
        if enabled:
            gc.enable()
    statuses = [r.analysis_status for r in reports]
    assert statuses[-4:] == [Status.OK, Status.OK, Status.FAILED, Status.FAILED]
    assert reports[-3].diagnostics and reports[-1].failure_reason == "packed"
    assert read and read[0][0] > 0


@pytest.mark.parametrize("enabled", [True, False])
def test_analyze_app_restores_the_collector(monkeypatch, device_db, rules, enabled):
    """The collector is paused while the stages run and left as it was
    found, also when a stage raises."""
    during = []

    def failing_call_graph(program):
        during.append(gc.isenabled())
        raise RuntimeError("stage failed")

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        analyze_app(smali_root("oppo_perm"), db=device_db, rules=rules)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(devscan.report, "build_call_graph", failing_call_graph)
        with pytest.raises(RuntimeError, match="stage failed"):
            analyze_app(smali_root("oppo_perm"), db=device_db, rules=rules)
        assert gc.isenabled() is enabled
        assert during == [False]
    finally:
        (gc.enable if was else gc.disable)()


def test_reports_match_fixture_annotations(device_db, rules):
    """Each annotated guard's comparison kind and identifiers, and each
    annotated snippet's categories, arm and reachable methods, where the
    manifest gives them, are what the report says."""
    for fid in list_fixture_ids():
        manifest = load_fixture(fid).manifest
        report = analyze_app(smali_root(fid), db=device_db, rules=rules)
        snippets = {(s["guard"]["method"], s["guard"]["index"]): s for s in report.snippets}
        for guard in manifest.expected_guards:
            snippet = snippets[(guard["method"], guard["index"])]
            identifiers: dict[str, list[str]] = {}
            for m in snippet["identifiers"]:
                identifiers.setdefault(m["kind"], []).append(m["db_entry"])
            got = {"comparison": snippet["guard"]["comparison"], "identifiers": identifiers}
            for key in guard.keys() & got.keys():
                assert got[key] == guard[key], (fid, guard["method"], key)
        for want in manifest.expected_snippets:
            snippet = snippets[(want["guard_method"], want["guard_index"])]
            for key in ("categories", "matched_arm", "reachable_methods"):
                if key in want:
                    expected = sorted(want[key]) if key == "reachable_methods" else want[key]
                    assert snippet[key] == expected, (fid, want["guard_method"], key)


# -- source attribution --------------------------------------------------------------

def test_bucket_known_sdk():
    assert bucket_package("cn.jpush.android", ("cn.jpush",)) == Bucket.KNOWN_SDK


def test_bucket_obfuscated():
    assert bucket_package("a.b.c", ()) == Bucket.OBFUSCATED
    assert bucket_package("a.b", ()) == Bucket.OBFUSCATED
    assert bucket_package("com.company.a.b", ()) == Bucket.OBFUSCATED


def test_bucket_developer():
    assert bucket_package("com.example.myapp.ui", ()) == Bucket.DEVELOPER
    assert bucket_package("com.example", ()) == Bucket.DEVELOPER


def test_attribution_counts_snippets(device_db, rules):
    report = analyze_app(smali_root("oppo_perm"), db=device_db, rules=rules)
    attribution = attribute_sources(report, sdk_prefixes_default())
    assert attribution == {
        "com.fixtures.oppo": {"bucket": "developer", "frequency": 1}
    }


def test_attribution_prefix_override(device_db, rules):
    report = analyze_app(smali_root("oppo_perm"), db=device_db, rules=rules)
    attribution = attribute_sources(report, ("com.fixtures",))
    assert attribution["com.fixtures.oppo"]["bucket"] == "known_sdk"


# -- aggregation ------------------------------------------------------------------------

def _report(app_id, market, brands=(), oses=(), models=(), cats=(), snippets=1, status=Status.OK):
    return AppReport(
        app_id=app_id,
        market=market,
        analysis_status=status,
        brands=sorted(brands),
        oses=sorted(oses),
        models=sorted(models),
        functionalities=sorted(cats),
        snippets=[{"categories": list(cats)}] * snippets,
    )


def test_average_brands():
    reports = [
        _report("a", "m", brands=("OPPO", "vivo")),
        _report("b", "m", brands=("OPPO", "vivo", "Xiaomi", "Huawei")),
    ]
    corpus = aggregate(reports)
    group = corpus.to_json_dict()["groups"]["m"]
    assert group["avg_brands"] == 3.0


def test_category_table_rows():
    corpus = aggregate([_report("a", "m", cats=("X", "Y", "Z"))])
    table = corpus.to_json_dict()["groups"]["m"]["category_counts"]
    assert table == [["X", 1], ["Y", 1], ["Z", 1]]


def test_counts_follow_status():
    reports = [
        _report("ok1", "m", brands=("OPPO",)),
        _report("empty", "m", snippets=0),
        _report("packed", "m", snippets=0, status=Status.FAILED),
        _report("slow", "m", snippets=0, status=Status.PARTIAL_TIMEOUT),
    ]
    reports[2].failure_reason = "packed"
    group = aggregate(reports).to_json_dict()["groups"]["m"]
    assert group["apps_total"] == 4
    assert group["unpacked"] == 3
    assert group["analyzed"] == 2
    assert group["with_behaviors"] == 1
    assert group["with_behaviors"] <= group["analyzed"] <= group["unpacked"] <= group["apps_total"]


def test_tables_sorted_desc_then_lexicographic():
    reports = [
        _report("a", "m", brands=("OPPO",)),
        _report("b", "m", brands=("OPPO", "Huawei")),
        _report("c", "m", brands=("Xiaomi",)),
    ]
    table = aggregate(reports).to_json_dict()["groups"]["m"]["brand_counts"]
    assert table == [["OPPO", 2], ["Huawei", 1], ["Xiaomi", 1]]


def test_merge_matches_whole(device_db, rules):
    reports = [
        _report("a", "play", brands=("OPPO",), cats=("X",)),
        _report("b", "play", brands=("vivo", "OPPO"), cats=("X", "Y")),
        _report("c", "cn", brands=("Xiaomi",), cats=("Y",)),
        _report("d", "cn", snippets=0),
    ]
    whole = aggregate(reports)
    merged = merge_corpus_reports([aggregate(reports[:2]), aggregate(reports[2:])])
    assert whole.to_json_dict() == merged.to_json_dict()


def test_aggregate_requires_reports():
    with pytest.raises(ValueError):
        aggregate([])


def test_ten_fixture_corpus_totals(device_db, rules):
    ids = [
        "oppo_perm", "meizu_imei", "build_fields", "sysprop_direct", "interproc_ret",
        "param_pass", "zero_sources", "autostart_xiaomi", "autostart_vivo", "oaid_samsung",
    ]
    reports = [
        analyze_app(smali_root(fid), db=device_db, rules=rules, app_id=fid)
        for fid in ids
    ]
    totals = aggregate(reports).to_json_dict()["totals"]
    assert totals["apps_total"] == 10
    assert totals["analyzed"] == 10
    assert totals["with_behaviors"] == 9  # all but zero_sources
    brand_counts = dict(tuple(x) for x in [tuple(r) for r in totals["brand_counts"]])
    assert brand_counts["OPPO"] == 1
    assert brand_counts["Xiaomi"] == 2  # interproc_ret and autostart_xiaomi
    category_counts = dict(tuple(r) for r in totals["category_counts"])
    assert category_counts["Permission Management"] == 4
    assert category_counts["OAID"] == 2  # param_pass and oaid_samsung


# -- JSON round-trip ----------------------------------------------------------------------

def test_report_json_roundtrip_byte_identical(device_db, rules, tmp_path):
    report = analyze_app(smali_root("oppo_perm"), db=device_db, rules=rules)
    first = canonical_json(report.to_json_dict())
    parsed = AppReport.from_json_dict(json.loads(first))
    second = canonical_json(parsed.to_json_dict())
    assert first == second

    path = tmp_path / "report.json"
    save_report(report, path)
    assert canonical_json(load_report(path).to_json_dict()) == first


def test_corpus_report_roundtrip(device_db, rules):
    reports = [_report("a", "m", brands=("OPPO",), cats=("X",))]
    corpus = aggregate(reports)
    text = canonical_json(corpus.to_json_dict())
    assert canonical_json(json.loads(text)) == text
