import pytest

from devscan.behavior import extract_region, find_device_guards
from devscan.rules import (
    DEFAULT_SYSTEM_PREFIXES,
    BehaviorType,
    RuleError,
    RuleSet,
    classify,
    categories_of,
    cluster_by_system_methods,
    parse_rules,
    suggest_keywords,
)
from tests.conftest import corpus_run


def snippet_of(fid, device_db, index=0):
    run = corpus_run(fid)
    guards = find_device_guards(run.taint, run.cfgs, device_db)
    return extract_region(guards[index], run.cfgs, run.call_graph)


# -- rule loading -----------------------------------------------------------

def test_parse_single_rule():
    ruleset = parse_rules(
        "Permission Management | com.vivo.permissionmanager | feature_adaptation\n"
    )
    (rule,) = ruleset.rules
    assert rule.behavior_type is BehaviorType.FEATURE_ADAPTATION


def test_parse_rule_with_notes():
    ruleset = parse_rules("OAID | com.huawei.hwid | privacy_related | id service\n")
    assert ruleset.rules[0].notes == "id service"


def test_empty_file_rejected():
    with pytest.raises(RuleError):
        parse_rules("# only comments\n")


def test_malformed_row_rejected():
    with pytest.raises(RuleError):
        parse_rules("OnlyOneField\n")


def test_empty_keyword_rejected():
    with pytest.raises(RuleError):
        parse_rules("Cat |  | privacy_related\n")


def test_unknown_behavior_type_rejected():
    with pytest.raises(RuleError):
        parse_rules("Cat | kw | mysterious\n")


def test_duplicate_pair_rejected():
    text = "Cat | kw | privacy_related\nCat | kw | privacy_related\n"
    with pytest.raises(RuleError):
        parse_rules(text)


def test_default_rules_cover_tables(rules):
    keywords = {r.keyword for r in rules.rules}
    # table of category/keyword examples
    for expected in (
        "android.view.inputmethod.InputMethodManager",
        "android.gestureboost.GestureBoostManager",
        "android.webkit.WebSettings",
        "android.bluetooth.BluetoothAdapter",
        "com.vivo.permissionmanager",
        "com.miui.securitycenter",
        "hardware.sensor.posture",
        "flyme.config.FlymeFeature",
        "com.huawei.hwid",
        "com.asus.msa",
        "ro.meizu.hardware.imei",
        "ro.ril.miui.meid",
    ):
        assert expected in keywords
    # auto-start activity table
    for expected in (
        "com.samsung.android.sm.ui.battery.BatteryActivity",
        "com.miui.permcenter.autostart.AutoStartManagementActivity",
        "com.asus.mobilemanager.powersaver.PowerSaverSettings",
        "com.huawei.systemmanager.startupmgr.ui.StartupNormalAppListActivity",
        "com.coloros.safecenter.permission.startup.StartupAppListActivity",
        "com.vivo.permissionmanager.activity.BgStartUpManagerActivity",
        "com.evenwell.powersaving.g3.exception.PowerSaverExceptionActivity",
        "com.oneplus.security.chainlaunch.view.ChainLaunchAppListActivity",
    ):
        assert expected in keywords
    # vendor OAID endpoints, permissionless identifier properties and the
    # leak-prone system components
    for expected in (
        "pps_oaid",
        "com.samsung.android.deviceidservice.DeviceIdService",
        "com.android.id.impl.IdProviderImpl",
        "ro.vendor.vivo.serialno",
        "ro.ril.miui.imei",
        "com.samsung.android.content.clipboard.SemClipboardManager",
        "com.samsung.android.emergencymode.SemEmergencyManager",
        "com.color.safecenter.permission.PermissionManagerActivity",
    ):
        assert expected in keywords


# -- classify -----------------------------------------------------------------

def test_oppo_snippet_classifies_permission_management(device_db, rules):
    snippet = snippet_of("oppo_perm", device_db)
    assert categories_of(snippet, rules) == ["Permission Management"]


def test_meizu_snippet_classifies_hardware_identifier(device_db, rules):
    snippet = snippet_of("meizu_imei", device_db)
    matches = classify(snippet, rules)
    assert [m.category for m in matches] == [
        "SystemProperties Containing Hardware Identifiers"
    ]
    assert matches[0].rule.keyword == "ro.meizu.hardware.imei"
    assert matches[0].text == "ro.meizu.hardware.imei1"


def test_autostart_snippet_classifies_via_activity(device_db, rules):
    snippet = snippet_of("autostart_xiaomi", device_db)
    cats = categories_of(snippet, rules)
    assert cats == ["Permission Management"]


def test_classify_is_multi_label(device_db, rules):
    snippet = snippet_of("autostart_vivo", device_db)
    matched_keywords = {m.rule.keyword for m in classify(snippet, rules)}
    # the package prefix and the full activity name both fire
    assert "com.vivo.permissionmanager" in matched_keywords
    assert "com.vivo.permissionmanager.activity.BgStartUpManagerActivity" in matched_keywords


def test_classify_deterministic(device_db, rules):
    snippet = snippet_of("oppo_perm", device_db)
    assert classify(snippet, rules) == classify(snippet, rules)


def test_removing_rule_never_adds_categories(device_db, rules):
    snippet = snippet_of("autostart_vivo", device_db)
    full = set(categories_of(snippet, rules))
    for drop in range(len(rules.rules)):
        remaining = RuleSet(rules=tuple(r for i, r in enumerate(rules.rules) if i != drop))
        assert set(categories_of(snippet, remaining)) <= full


def test_keyword_matching_case_sensitive(device_db):
    snippet = snippet_of("oppo_perm", device_db)
    upper = parse_rules("Permission Management | COM.COLOR.SAFECENTER | feature_adaptation\n")
    assert categories_of(snippet, upper) == []


# -- clustering ------------------------------------------------------------------

def _trio_snippets(device_db):
    out = []
    for fid in ("autostart_xiaomi", "autostart_vivo", "autostart_huawei"):
        out.append(snippet_of(fid, device_db))
    return out


def test_identical_system_methods_cluster_together(device_db):
    snippets = _trio_snippets(device_db)
    clusters = cluster_by_system_methods(snippets)
    assert len(clusters) == 1
    assert clusters[0].members == (0, 1, 2)
    assert any("startActivity" in sig for sig in clusters[0].key)


def test_disjoint_sets_make_singletons(device_db):
    snippets = [snippet_of("autostart_xiaomi", device_db), snippet_of("oaid_samsung", device_db)]
    clusters = cluster_by_system_methods(snippets)
    assert len(clusters) == 2
    assert all(len(c.members) == 1 for c in clusters)


def test_snippet_without_system_methods_in_residual_cluster(device_db):
    snippets = [snippet_of("build_fields", device_db)]
    (cluster,) = cluster_by_system_methods(snippets)
    assert cluster.key == ()


def test_clustering_partitions_input(device_db):
    snippets = _trio_snippets(device_db) + [
        snippet_of("oaid_samsung", device_db),
        snippet_of("build_fields", device_db),
        snippet_of("oppo_perm", device_db),
    ]
    clusters = cluster_by_system_methods(snippets)
    seen = [m for c in clusters for m in c.members]
    assert sorted(seen) == list(range(len(snippets)))


def test_vendor_prefix_counts_as_system(device_db, rules):
    snippet = snippet_of("oppo_perm", device_db)
    # Intent/Context live under android/, counted by the default prefixes
    clusters = cluster_by_system_methods([snippet], system_prefixes=DEFAULT_SYSTEM_PREFIXES)
    assert clusters[0].key != ()
    clusters_no_android = cluster_by_system_methods([snippet], system_prefixes=("com/samsung/",))
    assert clusters_no_android[0].key == ()


# -- keyword suggestion ------------------------------------------------------------

def _make_snippet(literals, system_methods):
    from devscan.behavior import Arm, BehaviorSnippet, ComparisonKind, DeviceGuard, GuardSite, OperandSide
    from devscan.devicedb import IdentifierMatch, MatchMode

    guard = DeviceGuard(
        site=GuardSite(
            method="Lsyn/App;->f()V",
            branch_instruction=4,
            comparison=ComparisonKind.STRING_EQUALS,
            tainted_operand_side=OperandSide.RECEIVER,
            condition_register=0,
        ),
        identifiers=(IdentifierMatch("vivo", "brand", "vivo", MatchMode.EXACT_TOKEN),),
        guard_strings=("vivo",),
    )
    return BehaviorSnippet(
        guard=guard,
        region={"taken": (), "fallthrough": ((5, 6),)},
        reachable_methods=frozenset(),
        invoked_system_methods=frozenset(system_methods),
        package_names=frozenset({"syn"}),
        matched_arm=Arm.FALLTHROUGH,
        region_literals=tuple(literals),
        invoked_names=tuple(
            sig.split("->")[0][1:-1].replace("/", ".") + "." + sig.split("->")[1].split("(")[0]
            for sig in system_methods
        ),
    )


PAGE_KEY = (
    "Landroid/content/Context;->startActivity(Landroid/content/Intent;)V",
    "Landroid/content/Intent;-><init>()V",
    "Landroid/content/Intent;->setComponent(Landroid/content/ComponentName;)Landroid/content/Intent;",
)
OTHER_KEY = PAGE_KEY + (
    "Landroid/content/Intent;->putExtra(Ljava/lang/String;Ljava/lang/String;)Landroid/content/Intent;",
)
VIVO_PAGE = "com.vivo.permissionmanager.activity.BgStartUpManagerActivity"


def _suggestion_corpus():
    trio = [
        _make_snippet([VIVO_PAGE, f"extra-{i}"], PAGE_KEY) for i in range(3)
    ]
    noise = [_make_snippet([f"noise-{i}"], OTHER_KEY) for i in range(3)]
    return trio + noise


def test_shared_literal_ranked_first():
    corpus = _suggestion_corpus()
    clusters = cluster_by_system_methods(corpus)
    cluster = next(c for c in clusters if c.members == (0, 1, 2))
    ranked = suggest_keywords(cluster, corpus)
    # full coverage like the method fragments, but globally rarer
    assert ranked[0] == VIVO_PAGE


def test_singleton_cluster_reports_its_literals(device_db):
    corpus = [snippet_of("oaid_samsung", device_db)]
    (cluster,) = cluster_by_system_methods(corpus)
    ranked = suggest_keywords(cluster, corpus)
    assert "com.samsung.android.deviceidservice.DeviceIdService" in ranked


def test_no_shared_literal_falls_back_to_method_fragments():
    pair = [_make_snippet([f"only-{i}"], PAGE_KEY) for i in range(2)]
    clusters = cluster_by_system_methods(pair)
    (cluster,) = clusters
    ranked = suggest_keywords(cluster, pair)
    # neither snippet's private literal reaches half coverage
    assert ranked
    assert not any(cand.startswith("only-") for cand in ranked)
    assert "android.content.Intent.setComponent" in ranked


def test_suggest_caps_at_twenty(device_db):
    corpus = _trio_snippets(device_db)
    clusters = cluster_by_system_methods(corpus)
    for cluster in clusters:
        assert len(suggest_keywords(cluster, corpus)) <= 20


def test_empty_cluster_rejected():
    from devscan.rules import SnippetCluster

    with pytest.raises(RuleError):
        suggest_keywords(SnippetCluster(key=(), members=()), [])
