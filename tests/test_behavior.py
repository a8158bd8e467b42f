import pytest

from devscan import behavior
from devscan.behavior import (
    Arm,
    ComparisonKind,
    OperandSide,
    collect_guard_strings,
    confirm_device_guard,
    extract_region,
    find_device_guards,
    find_guard_sites,
)
from devscan.graphs import CFG, build_call_graph, build_cfgs
from devscan.smali import load_program
from devscan.taint import TaintEngine, find_sources
from tests.conftest import corpus_run

OPPO_SSP = "Lcom/fixtures/oppo/PermissionPage;->startSettingPage(Landroid/content/Context;)V"


def sites_in(run, sigs):
    return [site for sig in sorted(sigs) for site in find_guard_sites(run.taint, run.cfgs[sig])]


def guard_strings(run, site):
    return collect_guard_strings(site, run.cfgs[site.method])


def guard_sites_of(fid):
    """Sites as find_device_guards finds them: in the methods it searches."""
    run = corpus_run(fid)
    searched = [sig for sig, cfg in run.cfgs.items() if behavior._may_hold_sites(run.taint, sig, cfg)]
    return run, sites_in(run, searched)


# -- find_guard_sites -----------------------------------------------------------

def test_equals_site_found():
    run, sites = guard_sites_of("oppo_perm")
    (site,) = sites
    assert site.method == OPPO_SSP
    assert site.branch_instruction == 7
    assert site.comparison is ComparisonKind.STRING_EQUALS
    assert site.tainted_operand_side is OperandSide.RECEIVER
    assert site.condition_register == 3


def test_untainted_comparisons_make_no_sites():
    _, sites = guard_sites_of("untainted_cmp")
    assert sites == []


def test_nullcheck_is_reference_eq_site():
    run, sites = guard_sites_of("nullcheck")
    (site,) = sites
    assert site.comparison is ComparisonKind.REFERENCE_EQ
    assert site.branch_instruction == 3


def test_comparison_kinds_recorded():
    _, sites = guard_sites_of("comparisons_more")
    kinds = {s.method.split(";->")[1]: s.comparison for s in sites}
    assert kinds["suffix()V"] is ComparisonKind.ENDS_WITH
    assert kinds["infix()V"] is ComparisonKind.CONTAINS
    assert kinds["ordered()V"] is ComparisonKind.COMPARE_TO


def test_equality_helpers_compare_strings():
    """TextUtils.equals and Intrinsics.areEqual compare strings; their first
    argument stands for the receiver."""
    _, sites = guard_sites_of("helper_equals")
    got = {s.method.split(";->")[1]: (s.comparison, s.tainted_operand_side) for s in sites}
    assert got == {
        "textUtils()V": (ComparisonKind.STRING_EQUALS, OperandSide.RECEIVER),
        "kotlin()V": (ComparisonKind.STRING_EQUALS, OperandSide.RECEIVER),
        "literalFirst()V": (ComparisonKind.STRING_EQUALS, OperandSide.ARGUMENT),
    }


def test_sites_without_identifiers_stay_sites(device_db):
    run, sites = guard_sites_of("loop_moves")
    assert len(sites) == 1  # tainted null-ish check
    assert find_device_guards(run.taint, run.cfgs, device_db) == []


@pytest.mark.parametrize(
    "fid, expected", [("multi_guard", 1), ("zero_sources", 0), ("untainted_cmp", 0)]
)
def test_reaching_definitions_once_per_method(device_db, monkeypatch, fid, expected):
    """The guard stage asks backward definition queries instead of solving
    reaching definitions, only in methods holding taint, and searches for
    sites only in methods that can hold one."""
    run = corpus_run(fid)
    queried, searched = set(), []
    real_defs, real_sites = CFG.defs, behavior.find_guard_sites

    def counted_defs(cfg, index, register):
        queried.add(cfg.method.signature)
        return real_defs(cfg, index, register)

    def counted_sites(taint, cfg):
        searched.append(cfg.method.signature)
        return real_sites(taint, cfg)

    monkeypatch.setattr(CFG, "defs", counted_defs)
    monkeypatch.setattr(behavior, "find_guard_sites", counted_sites)
    find_device_guards(run.taint, run.cfgs, device_db)
    # multi_guard holds two sites in one method; in the others no if or
    # string comparison reads a tainted register
    assert len(searched) == expected
    assert queried <= {sig for sig in run.cfgs if run.taint.tainted_in(sig)}


def test_site_filter_drops_no_site(all_fixture_ids):
    """The methods find_device_guards skips hold no guard site."""
    found = 0
    for fid in all_fixture_ids:
        run, sites = guard_sites_of(fid)
        assert sites_in(run, run.cfgs) == sites, fid
        found += len(sites)
    assert found > 20


# -- collect_guard_strings --------------------------------------------------------

def test_operand_literal_collected():
    run, sites = guard_sites_of("oppo_perm")
    (site,) = sites
    assert guard_strings(run, site) == ["oppo"]


def test_literal_from_earlier_block_collected():
    run, sites = guard_sites_of("split_literal")
    (site,) = sites
    assert "HUAWEI" in guard_strings(run, site)


def test_condition_without_literals_yields_nothing():
    run, sites = guard_sites_of("loop_moves")
    (site,) = sites
    assert guard_strings(run, site) == []


def test_property_key_collected_for_nullcheck():
    run, sites = guard_sites_of("nullcheck")
    (site,) = sites
    assert guard_strings(run, site) == ["ro.build.version.emui"]


# -- confirm_device_guard ----------------------------------------------------------

def test_confirm_with_brand(device_db):
    run, sites = guard_sites_of("oppo_perm")
    (site,) = sites
    guard = confirm_device_guard(site, guard_strings(run, site), device_db)
    assert guard is not None
    assert [(m.kind, m.db_entry) for m in guard.identifiers] == [("brand", "OPPO")]


def test_no_identifier_no_guard(device_db):
    run, sites = guard_sites_of("oppo_perm")
    (site,) = sites
    assert confirm_device_guard(site, ["hello"], device_db) is None


def test_model_identifier_confirms(device_db):
    run, sites = guard_sites_of("build_fields")
    (site,) = sites
    guard = confirm_device_guard(site, guard_strings(run, site), device_db)
    assert guard is not None
    assert ("model", "SM-S918B") in [(m.kind, m.db_entry) for m in guard.identifiers]


# -- extract_region -----------------------------------------------------------------

def _snippet(fid, device_db, index=0):
    run = corpus_run(fid)
    guards = find_device_guards(run.taint, run.cfgs, device_db)
    guard = guards[index]
    return run, extract_region(guard, run.cfgs, run.call_graph)


def test_oppo_region_and_reachable(device_db):
    run, snippet = _snippet("oppo_perm", device_db)
    assert snippet.reachable_methods == {
        "Lcom/fixtures/oppo/PermissionPage;->oppoApi(Landroid/content/Context;)V"
    }
    assert snippet.region["fallthrough"] == ((8, 8),)
    assert snippet.region["taken"] == ()
    assert snippet.matched_arm is Arm.FALLTHROUGH
    assert "Landroid/content/Context;->startActivity(Landroid/content/Intent;)V" in snippet.invoked_system_methods
    assert snippet.package_names == {"com.fixtures.oppo"}


def test_single_return_arm(device_db):
    run, snippet = _snippet("comparisons_bool", device_db)
    # ignoreCase guard: taken arm holds the nop+return block
    assert snippet.region["taken"] != () or snippet.region["fallthrough"] != ()


def test_deep_chain_fixpoint(device_db):
    run, snippet = _snippet("deep_chain", device_db)
    assert {sig.split(";->")[1] for sig in snippet.reachable_methods} == {
        "stepOne(Landroid/content/Context;)V",
        "stepTwo(Landroid/content/Context;)V",
        "stepThree(Landroid/content/Context;)V",
    }
    assert not snippet.truncated


def _large_guarded_method(diamonds):
    """One static method: a Build.BRAND equals("huawei") guard whose
    fallthrough arm holds `diamonds` if-diamonds in a row and whose taken arm
    calls a vendor method; both arms meet at the one return."""
    lines = [
        ".class public Lcom/app/Wide;",
        ".super Ljava/lang/Object;",
        ".method public static f()V",
        "    .registers 4",
        "    sget-object v0, Landroid/os/Build;->BRAND:Ljava/lang/String;",
        '    const-string v1, "huawei"',
        "    invoke-virtual {v0, v1}, Ljava/lang/String;->equals(Ljava/lang/Object;)Z",
        "    move-result v2",
        "    if-eqz v2, :other",
    ]
    for k in range(diamonds):
        lines += [
            f"    if-eqz v3, :else_{k}", "    nop", f"    goto :join_{k}",
            f"    :else_{k}", "    nop", f"    :join_{k}",
        ]
    lines += [
        "    goto :end",
        "    :other",
        "    invoke-static {}, Lcom/vendor/Tweak;->apply()V",
        "    :end",
        "    return-void",
        ".end method",
    ]
    return "\n".join(lines) + "\n"


def test_region_of_large_method(tmp_path, device_db):
    (tmp_path / "Wide.smali").write_text(_large_guarded_method(200), encoding="utf-8")
    program, diagnostics = load_program(tmp_path)
    cfgs = build_cfgs(program)
    call_graph = build_call_graph(program)
    taint = TaintEngine(cfgs, call_graph, find_sources(program, cfgs)).solve()
    (guard,) = find_device_guards(taint, cfgs, device_db)
    snippet = extract_region(guard, cfgs, call_graph)

    assert diagnostics == [] and len(cfgs["Lcom/app/Wide;->f()V"].blocks) == 604
    assert (guard.site.branch_instruction, guard.guard_strings) == (4, ("huawei",))
    # the guard's block is 0..4; the diamond at b is the blocks b, b+1..b+2
    # and b+3; the last join is the goto at 805, the taken arm the invoke at 806
    diamond_blocks = tuple(
        r
        for b in range(5, 805, 4)
        for r in ((b, b), (b + 1, b + 2), (b + 3, b + 3))
    )
    assert snippet.region == {"taken": ((806, 806),), "fallthrough": diamond_blocks + ((805, 805),)}
    assert snippet.matched_arm is Arm.FALLTHROUGH
    assert snippet.invoked_system_methods == {"Lcom/vendor/Tweak;->apply()V"}


def test_arms_disjoint_across_corpus(device_db, all_fixture_ids):
    for fid in all_fixture_ids:
        run = corpus_run(fid)
        for guard in find_device_guards(run.taint, run.cfgs, device_db):
            snippet = extract_region(guard, run.cfgs, run.call_graph)
            taken = {
                i
                for start, end in snippet.region["taken"]
                for i in range(start, end + 1)
            }
            fall = {
                i
                for start, end in snippet.region["fallthrough"]
                for i in range(start, end + 1)
            }
            assert not (taken & fall)


def test_reachable_bounded_by_program(device_db, all_fixture_ids):
    for fid in all_fixture_ids:
        run = corpus_run(fid)
        total = sum(1 for _ in run.program.methods())
        for guard in find_device_guards(run.taint, run.cfgs, device_db):
            snippet = extract_region(guard, run.cfgs, run.call_graph)
            assert len(snippet.reachable_methods) <= total


def test_every_guard_has_provenance(device_db, all_fixture_ids):
    """No guard without a recorded taint fact reaching its condition."""
    for fid in all_fixture_ids:
        run = corpus_run(fid)
        for guard in find_device_guards(run.taint, run.cfgs, device_db):
            site = guard.site
            if site.comparison is ComparisonKind.REFERENCE_EQ:
                where, register_pool = site.branch_instruction, {site.condition_register}
            else:
                where = site.comparison_call
                register_pool = set(
                    run.cfgs[site.method].method.instructions[where].operands
                )
            tainted = run.taint.tainted_registers(site.method, where)
            live_regs = register_pool & tainted
            assert live_regs
            # and the per-point taint is backed by a fact whose chain starts
            # at a discovered source
            backing = [
                f
                for f in run.taint.facts
                if f.method == site.method
                and f.register in live_regs
                and f.valid_range[0] <= where <= f.valid_range[1]
            ]
            assert backing
            assert all(f.origin in run.taint.sources for f in backing)


def test_diamond_region_matches_annotation(device_db):
    run, snippet = _snippet("diamond", device_db)
    assert snippet.region == {"taken": ((7, 7),), "fallthrough": ((5, 6),)}


def test_matched_arm_polarity(device_db):
    run = corpus_run("comparisons_more")
    guards = find_device_guards(run.taint, run.cfgs, device_db)
    arms = {}
    for guard in guards:
        snippet = extract_region(guard, run.cfgs, run.call_graph)
        arms[guard.site.method.split(";->")[1]] = snippet.matched_arm
    assert arms["ordered()V"] is Arm.TAKEN  # compareTo == 0 under if-eqz
    assert arms["suffix()V"] is Arm.FALLTHROUGH


def test_snippet_json_shape(device_db):
    _, snippet = _snippet("oppo_perm", device_db)
    data = snippet.to_json_dict()
    assert data["guard"]["index"] == 7
    assert data["identifiers"][0]["db_entry"] == "OPPO"
    assert data["region"]["fallthrough"] == [[8, 8]]
