import sys
import threading

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import devscan.graphs
from devscan.fixtures import corpus_root, load_fixture
from devscan.graphs import (
    EXIT,
    _ipdoms_from_edges,
    build_call_graph,
    build_cfg,
    build_cfgs,
    call_graph_to_dot,
    cfg_to_dot,
    immediate_postdominators,
)
from devscan.smali import load_program, parse_smali_class
from devscan.ir import Program
from devscan.report import analyze_app
from tests.conftest import corpus_run


def method_of(src: str):
    return parse_smali_class(src).methods[0]


def test_straight_line_single_block():
    method = method_of(
        """
.class public Lt/A;
.super Ljava/lang/Object;
.method public static f()V
    .registers 2
    const-string v0, "a"
    const-string v1, "b"
    move-object v0, v1
    return-void
.end method
"""
    )
    cfg = build_cfg(method)
    assert len(cfg.blocks) == 1
    assert cfg.edges == ()


def test_if_produces_three_blocks():
    run = corpus_run("oppo_perm")
    sig = "Lcom/fixtures/oppo/PermissionPage;->startSettingPage(Landroid/content/Context;)V"
    cfg = run.cfgs[sig]
    assert len(cfg.blocks) == 3
    kinds = sorted(k.value for _, _, k in cfg.edges)
    assert kinds == ["branch_taken", "fallthrough", "fallthrough"]
    # join block after both arms postdominates the condition
    assert immediate_postdominators(cfg)[0] == 2


def test_goto_back_makes_cycle():
    method = method_of(
        """
.class public Lt/Loop;
.super Ljava/lang/Object;
.method public static f()V
    .registers 1
    :top
    nop
    goto :top
.end method
"""
    )
    cfg = build_cfg(method)
    assert any(dst <= src for src, dst, _ in cfg.edges)


def test_blocks_partition_instructions(all_fixture_ids):
    for fid in all_fixture_ids:
        for sig, cfg in corpus_run(fid).cfgs.items():
            seen = []
            for b in cfg.blocks:
                seen.extend(b)
            assert seen == list(range(len(cfg.method.instructions)))


def test_edge_count_bound(all_fixture_ids):
    for fid in all_fixture_ids:
        for cfg in corpus_run(fid).cfgs.values():
            assert len(cfg.edges) <= 2 * len(cfg.blocks)


def test_conditional_blocks_have_two_successors(all_fixture_ids):
    from devscan.ir import IF_OPCODES

    for fid in all_fixture_ids:
        for cfg in corpus_run(fid).cfgs.values():
            for bid, b in enumerate(cfg.blocks):
                last = cfg.method.instructions[b[-1]]
                if last.opcode in IF_OPCODES:
                    assert len(cfg.succ[bid]) == 2
                elif last.is_return():
                    assert cfg.succ[bid] == ()


# -- call graph ---------------------------------------------------------------

def test_fig2_call_edges_resolved():
    run = corpus_run("oppo_perm")
    caller = "Lcom/fixtures/oppo/PermissionPage;->startSettingPage(Landroid/content/Context;)V"
    resolved = {
        e.callee for e in run.call_graph.edges if e.caller == caller and e.resolved
    }
    assert resolved == {
        "Lcom/fixtures/oppo/PermissionPage;->getManufacturer()Ljava/lang/String;",
        "Lcom/fixtures/oppo/PermissionPage;->oppoApi(Landroid/content/Context;)V",
    }


def test_library_callee_unresolved():
    run = corpus_run("oppo_perm")
    caller = "Lcom/fixtures/oppo/PermissionPage;->startSettingPage(Landroid/content/Context;)V"
    unresolved = {
        e.callee for e in run.call_graph.edges if e.caller == caller and not e.resolved
    }
    assert "Ljava/lang/String;->toLowerCase()Ljava/lang/String;" in unresolved


def test_every_invoke_has_exactly_one_edge(all_fixture_ids):
    from devscan.ir import INVOKE_OPCODES

    for fid in all_fixture_ids:
        run = corpus_run(fid)
        invokes = sum(
            1
            for m in run.program.methods()
            for i in m.instructions
            if i.opcode in INVOKE_OPCODES
        )
        assert len(run.call_graph.edges) == invokes


def test_targets_and_callers_agree_with_edges(all_fixture_ids, tmp_path):
    from tests.conftest import load_script

    # no corpus method has two callers; the call ring's methods have several
    load_script("perfbench/gen_call_web.py").generate(7, tmp_path)
    programs = [(fid, corpus_run(fid).program) for fid in all_fixture_ids]
    programs.append(("call_web", load_program(tmp_path / "smali")[0]))
    for name, program in programs:
        graph = build_call_graph(program)
        methods = {m.signature: m for m in program.methods()}
        callers: dict[str, set[str]] = {}
        for e in graph.edges:
            ref = methods[e.caller].instructions[e.call_index].method_ref
            assert graph.target(ref) == (e.callee, e.resolved), (name, e)
            if e.resolved:
                callers.setdefault(e.callee, set()).add(e.caller)
        for sig in {*methods, *(e.callee for e in graph.edges)}:
            assert graph.callers(sig) == tuple(sorted(callers.get(sig, ()))), (name, sig)


def test_one_signature_object_per_method(all_fixture_ids, tmp_path):
    """Every table keyed by a signature holds the method's own string."""
    from tests.conftest import load_script

    load_script("perfbench/gen_call_web.py").generate(7, tmp_path)
    programs = [(fid, corpus_run(fid).program) for fid in all_fixture_ids]
    programs.append(("call_web", load_program(tmp_path / "smali")[0]))
    for name, program in programs:
        methods = {m.signature: m for m in program.methods()}
        assert all(sig is m.signature is m.signature for sig, m in methods.items()), name
        assert all(sig is methods[sig].signature for sig in build_cfgs(program)), name
        graph = build_call_graph(program)
        for e in graph.edges:
            callee, resolved = graph.target(methods[e.caller].instructions[e.call_index].method_ref)
            assert not resolved or callee is methods[callee].signature, (name, e)
            assert all(c is methods[c].signature for c in graph.callers(e.callee)), (name, e)


def test_no_invokes_empty_edges():
    cls = parse_smali_class(
        """
.class public Lt/NoCalls;
.super Ljava/lang/Object;
.method public static f()V
    .registers 1
    return-void
.end method
"""
    )
    assert build_call_graph(Program((cls,))).edges == ()


def test_superclass_chain_resolution():
    base = parse_smali_class(
        """
.class public Lt/Base;
.super Ljava/lang/Object;
.method public greet()V
    .registers 1
    return-void
.end method
"""
    )
    derived = parse_smali_class(
        """
.class public Lt/Derived;
.super Lt/Base;
.method public static f(Lt/Derived;)V
    .registers 1
    invoke-virtual {p0}, Lt/Derived;->greet()V
    return-void
.end method
"""
    )
    graph = build_call_graph(Program((base, derived)))
    (edge,) = graph.edges
    assert edge.resolved
    assert edge.callee == "Lt/Base;->greet()V"


def test_abstract_target_stays_unresolved():
    abstract = parse_smali_class(
        """
.class public Lt/Abs;
.super Ljava/lang/Object;
.method public abstract greet()V
.end method
"""
    )
    caller = parse_smali_class(
        """
.class public Lt/Caller;
.super Ljava/lang/Object;
.method public static f(Lt/Abs;)V
    .registers 1
    invoke-virtual {p0}, Lt/Abs;->greet()V
    return-void
.end method
"""
    )
    graph = build_call_graph(Program((abstract, caller)))
    (edge,) = graph.edges
    assert not edge.resolved


def test_call_graph_deterministic():
    run = corpus_run("deep_chain")
    again = build_call_graph(run.program)
    assert again.edges == run.call_graph.edges


# -- postdominators -----------------------------------------------------------

def test_diamond_ipdom_is_join():
    # 0 -> 1|2 -> 3(return)
    succs = {0: [1, 2], 1: [3], 2: [3], 3: []}
    ipdoms = _ipdoms_from_edges(4, succs, exits=[3])
    assert ipdoms[0] == 3


def test_branch_returning_directly_goes_to_exit():
    # 0 -> 1(return) | 2 -> 3(return): nothing but the exit joins them
    succs = {0: [1, 2], 1: [], 2: [3], 3: []}
    ipdoms = _ipdoms_from_edges(4, succs, exits=[1, 3])
    assert ipdoms[0] == EXIT


def test_oppo_perm_cond_ipdom():
    run = corpus_run("oppo_perm")
    sig = "Lcom/fixtures/oppo/PermissionPage;->startSettingPage(Landroid/content/Context;)V"
    ipdoms = immediate_postdominators(run.cfgs[sig])
    assert ipdoms[0] == 2 and ipdoms[1] == 2 and ipdoms[2] == EXIT


def _oracle_ipdoms(n, succs, exits):
    """Brute force: postdominators = intersection of all simple exit paths."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_node(EXIT)
    for src, dsts in succs.items():
        for dst in dsts:
            g.add_edge(src, dst)
    for e in exits:
        g.add_edge(e, EXIT)

    pdom_cache: dict[int, set] = {}

    def pdoms(node):
        if node not in pdom_cache:
            acc = None
            for path in nx.all_simple_paths(g, node, EXIT):
                acc = set(path) if acc is None else acc & set(path)
            pdom_cache[node] = acc if acc is not None else set()
        return pdom_cache[node]

    out = {}
    for node in range(n):
        if not nx.has_path(g, node, EXIT):
            out[node] = EXIT
            continue
        strict = pdoms(node) - {node}
        # the immediate postdominator is the strict postdominator that every
        # other strict postdominator also postdominates
        best = EXIT
        for cand in sorted(strict - {EXIT}):
            others = strict - {cand, EXIT}
            if all(other in pdoms(cand) for other in others):
                best = cand
                break
        out[node] = best
    return out


@st.composite
def _random_cfgs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    succs = {}
    exits = []
    for node in range(n):
        kind = draw(st.sampled_from(["return", "goto", "branch", "fall"]))
        if node == n - 1 or kind == "return":
            succs[node] = []
            exits.append(node)
        elif kind == "goto":
            succs[node] = [draw(st.integers(min_value=0, max_value=n - 1))]
        elif kind == "branch":
            a = draw(st.integers(min_value=0, max_value=n - 1))
            b = draw(st.integers(min_value=0, max_value=n - 1))
            succs[node] = [a, b] if a != b else [a]
        else:
            succs[node] = [min(node + 1, n - 1)]
    return n, succs, exits


@given(_random_cfgs())
@settings(max_examples=200, deadline=None)
def test_ipdom_matches_simple_path_oracle(case):
    n, succs, exits = case
    assert _ipdoms_from_edges(n, succs, exits) == _oracle_ipdoms(n, succs, exits)


# 700 if-diamonds in a row: block 3k branches to 3k+1 and 3k+2, which both
# join at 3k+3, the next branch; the last join returns. 2,101 blocks, and a
# path from the return back to block 0 is 1,400 edges deep, deeper than
# Python's default recursion limit.
DIAMONDS = 700


def _diamond_chain():
    n = 3 * DIAMONDS + 1
    succs = {b: [] for b in range(n)}
    for k in range(DIAMONDS):
        branch = 3 * k
        succs[branch] = [branch + 1, branch + 2]
        succs[branch + 1] = [branch + 3]
        succs[branch + 2] = [branch + 3]
    return n, succs, [n - 1]


def _assert_diamond_ipdoms(ipdoms, n):
    assert sys.getrecursionlimit() < 2 * DIAMONDS
    for k in range(DIAMONDS):
        branch = 3 * k
        join = branch + 3
        assert (ipdoms[branch], ipdoms[branch + 1], ipdoms[branch + 2]) == (join, join, join)
    assert ipdoms[n - 1] == EXIT


def test_ipdom_long_diamond_chain():
    n, succs, exits = _diamond_chain()
    ipdoms = _ipdoms_from_edges(n, succs, exits)
    assert len(ipdoms) == n
    _assert_diamond_ipdoms(ipdoms, n)


def test_ipdom_long_diamond_chain_with_back_edges():
    # each first arm may loop back to its branch; the join still closes it
    n, succs, exits = _diamond_chain()
    for k in range(DIAMONDS):
        succs[3 * k + 1].append(3 * k)
    _assert_diamond_ipdoms(_ipdoms_from_edges(n, succs, exits), n)


def test_ipdom_long_diamond_chain_with_endless_loop():
    # each second arm may also enter a two-block loop that never returns;
    # paths into it reach no exit, so they change no postdominator
    n, succs, exits = _diamond_chain()
    loop_a, loop_b = n, n + 1
    succs[loop_a] = [loop_b]
    succs[loop_b] = [loop_a]
    for k in range(DIAMONDS):
        succs[3 * k + 2].append(loop_a)
    ipdoms = _ipdoms_from_edges(n + 2, succs, exits)
    _assert_diamond_ipdoms(ipdoms, n)
    assert (ipdoms[loop_a], ipdoms[loop_b]) == (EXIT, EXIT)


# -- DOT dumps ---------------------------------------------------------------

def test_dot_outputs_contain_nodes():
    run = corpus_run("oppo_perm")
    sig = "Lcom/fixtures/oppo/PermissionPage;->oppoApi(Landroid/content/Context;)V"
    dot = cfg_to_dot(run.cfgs[sig])
    assert dot.startswith("digraph") and "b0" in dot
    cg_dot = call_graph_to_dot(run.call_graph)
    assert "digraph" in cg_dot and "oppoApi" in cg_dot


def test_cfgs_built_on_demand(monkeypatch):
    built = []

    def counting_build_cfg(method):
        built.append(method.signature)
        return build_cfg(method)

    monkeypatch.setattr(devscan.graphs, "build_cfg", counting_build_cfg)
    report = analyze_app(corpus_root() / "zero_sources" / "smali")
    assert report.analysis_status == "ok"
    assert built == []  # nothing is tainted, so no method needs a CFG

    program = load_fixture("deep_chain").load()
    cfgs = build_cfgs(program)
    bodies = [m.signature for m in program.methods() if m.has_body]
    assert list(cfgs) == bodies and len(cfgs) == len(bodies) > 1
    assert all(sig in cfgs for sig in bodies) and "Lt/Nope;->f()V" not in cfgs
    assert list(cfgs.methods) == bodies
    assert built == []
    assert cfgs[bodies[0]] is cfgs[bodies[0]]
    assert built == [bodies[0]]


def test_cfg_lookup_without_body_raises():
    program = Program((parse_smali_class(
        """
.class public abstract Lt/A;
.super Ljava/lang/Object;
.method public abstract f()V
.end method
.method public static g()V
    .registers 1
    return-void
.end method
"""
    ),))
    cfgs = build_cfgs(program)
    assert list(cfgs) == ["Lt/A;->g()V"] and "Lt/A;->f()V" not in cfgs
    with pytest.raises(KeyError):
        cfgs["Lt/A;->f()V"]


def test_concurrent_first_lookups_share_one_cfg():
    program = load_fixture("multi_guard").load()

    def race(cfgs, seen: list[dict]) -> None:
        start = threading.Barrier(len(seen))

        def look_up(out: dict) -> None:
            start.wait(timeout=10)
            for sig in cfgs:
                out[sig] = cfgs[sig]

        threads = [threading.Thread(target=look_up, args=(out,)) for out in seen]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            cfgs, seen = build_cfgs(program), [{} for _ in range(8)]
            race(cfgs, seen)
            for sig in cfgs:
                assert all(out[sig] is cfgs[sig] for out in seen), sig
    finally:
        sys.setswitchinterval(old)
