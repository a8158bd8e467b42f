from collections import deque
from itertools import product
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from devscan.behavior import ComparisonKind, GuardSite, OperandSide, collect_guard_strings
from devscan.fixtures import oracle_interpret
from devscan.graphs import CFG, build_call_graph, build_cfg, build_cfgs
from devscan.ir import IF_OPCODES, INVOKE_OPCODES, MethodIR, Opcode, Program, written_register
from devscan.smali import parse_smali_class
from devscan.taint import (
    ENTRY_DEF,
    UNKNOWN_KEY,
    SourceKind,
    Step,
    TaintEngine,
    find_sources,
)
from tests.conftest import corpus_run


def program_of(src: str):
    return Program((parse_smali_class(src),))


# reference walks for CFG.paired: a move-result reads only the instruction
# right before it, a lowered nop included; the dense reference transfer
# reads them too, so it stays independent of the table
def feeding_invoke(method: MethodIR, mr_index: int) -> int | None:
    """Index of the invoke whose value a move-result consumes; mirror of result_register."""
    i = mr_index - 1
    return i if i >= 0 and method.instructions[i].opcode in INVOKE_OPCODES else None


def result_register(method: MethodIR, invoke_index: int) -> tuple[int, int] | None:
    """(index, register) of the move-result consuming an invoke's value."""
    i = invoke_index + 1
    if i < len(method.instructions) and method.instructions[i].opcode is Opcode.MOVE_RESULT:
        return i, method.instructions[i].operands[0]
    return None


# reference walks for CFG.feeding, CFG.literals and collect_guard_strings:
# three separate walks over CFG.defs, each stating the move rule itself
def def_closure(cfg: CFG, index: int, register: int) -> frozenset[int]:
    """Non-move definition sites feeding (register, index) through move chains."""
    code = cfg.method.instructions
    result: set[int] = set()
    work = [(index, register)]
    seen: set[tuple[int, int]] = set()
    while work:
        i, r = work.pop()
        if (i, r) in seen:
            continue
        seen.add((i, r))
        for d in cfg.defs(i, r):
            if d == ENTRY_DEF:
                result.add(d)
            elif code[d].opcode is Opcode.MOVE:
                work.append((d, code[d].operands[1]))
            else:
                result.add(d)
    return frozenset(result)


def reaching_const_strings(cfg: CFG, index: int, register: int) -> list[str]:
    """Literals of const-string definitions feeding (register, index)."""
    literals = []
    for d in sorted(d for d in def_closure(cfg, index, register) if d >= 0):
        ins = cfg.method.instructions[d]
        if ins.opcode is Opcode.CONST_STRING:
            literals.append(ins.literal or "")
    return literals


def reference_guard_strings(site: GuardSite, cfg: CFG) -> list[str]:
    """Literals reaching the comparison's operands, then those of every block
    holding the site or a definition on the chains feeding it."""
    if not cfg.has_const_string:
        return []
    method = cfg.method
    out: list[str] = []
    seen: set[str] = set()

    def add(lit: str) -> None:
        if lit not in seen:
            seen.add(lit)
            out.append(lit)

    chain_defs: set[int] = set()

    def follow(index: int, reg: int) -> None:
        work = [(index, reg)]
        visited: set[tuple[int, int]] = set()
        while work:
            i, r = work.pop()
            if (i, r) in visited:
                continue
            visited.add((i, r))
            for d in cfg.defs(i, r):
                if d == ENTRY_DEF or d in chain_defs:
                    continue
                chain_defs.add(d)
                ins = method.instructions[d]
                if ins.opcode is Opcode.MOVE:
                    work.append((d, ins.operands[1]))
                elif ins.opcode is Opcode.MOVE_RESULT:
                    inv = cfg.paired[d]
                    if inv is not None:
                        chain_defs.add(inv)
                        for arg in method.instructions[inv].operands:
                            work.append((inv, arg))

    if site.comparison_call is not None:
        invoke = method.instructions[site.comparison_call]
        for arg in invoke.operands:
            for lit in reaching_const_strings(cfg, invoke.index, arg):
                add(lit)
            follow(invoke.index, arg)
    follow(site.branch_instruction, site.condition_register)

    blocks = {cfg.block_of[site.branch_instruction]}
    blocks |= {cfg.block_of[d] for d in chain_defs}
    for bid in sorted(blocks):
        for ins in cfg.instructions_of(bid):
            if ins.opcode is Opcode.CONST_STRING:
                add(ins.literal or "")
    return out


def engine_facts(program):
    """Facts of the whole-program engine, run as analyze_app runs it."""
    cfgs = build_cfgs(program)
    return TaintEngine(cfgs, build_call_graph(program), find_sources(program, cfgs)).solve().facts


# -- find_sources --------------------------------------------------------------

def test_build_field_source_found():
    run = corpus_run("oppo_perm")
    (src,) = run.sources
    assert src.kind is SourceKind.BUILD_FIELD_READ
    assert src.detail == "MANUFACTURER"
    assert src.index == 0
    assert src.defined_register == 0


def test_reflective_source_with_key():
    run = corpus_run("meizu_imei")
    reflective = [s for s in run.sources if s.kind is SourceKind.SYSPROP_REFLECTIVE]
    assert len(reflective) == 1
    assert reflective[0].detail == "ro.meizu.hardware.imei1"


def test_direct_sysprop_source_key_recovered():
    run = corpus_run("sysprop_direct")
    (src,) = run.sources
    assert src.kind is SourceKind.SYSPROP_DIRECT
    assert src.detail == "ro.product.brand"


def test_vendor_custom_key_still_a_source():
    program = program_of(
        """
.class public Lt/Custom;
.super Ljava/lang/Object;
.method public static f()V
    .registers 2
    const-string v0, "ro.vendor.xyz.secret"
    invoke-static {v0}, Landroid/os/SystemProperties;->get(Ljava/lang/String;)Ljava/lang/String;
    move-result-object v1
    return-void
.end method
"""
    )
    (src,) = find_sources(program, build_cfgs(program))
    assert src.detail == "ro.vendor.xyz.secret"


def test_sysprop_key_unknown_when_not_const():
    program = program_of(
        """
.class public Lt/Unknown;
.super Ljava/lang/Object;
.method public static f(Ljava/lang/String;)V
    .registers 2
    invoke-static {p0}, Landroid/os/SystemProperties;->get(Ljava/lang/String;)Ljava/lang/String;
    move-result-object v0
    return-void
.end method
"""
    )
    (src,) = find_sources(program, build_cfgs(program))
    assert src.detail == UNKNOWN_KEY


def test_reflective_pattern_requires_all_three_pieces():
    program = program_of(
        """
.class public Lt/NotReflective;
.super Ljava/lang/Object;
.method public static f()V
    .registers 2
    const-string v0, "java.lang.Runtime"
    invoke-static {v0}, Ljava/lang/Class;->forName(Ljava/lang/String;)Ljava/lang/Class;
    move-result-object v1
    return-void
.end method
"""
    )
    assert find_sources(program, build_cfgs(program)) == []


def test_program_without_sources_is_empty():
    run = corpus_run("zero_sources")
    assert run.sources == []


def test_non_table_build_field_ignored():
    program = program_of(
        """
.class public Lt/Board;
.super Ljava/lang/Object;
.method public static f()V
    .registers 1
    sget-object v0, Landroid/os/Build;->BOARD:Ljava/lang/String;
    return-void
.end method
"""
    )
    assert find_sources(program, build_cfgs(program)) == []


# -- within one method ------------------------------------------------------------

def test_intra_move_copies():
    program = program_of(
        """
.class public Lt/Move;
.super Ljava/lang/Object;
.method public static f()V
    .registers 2
    sget-object v0, Landroid/os/Build;->BRAND:Ljava/lang/String;
    move-object v1, v0
    return-void
.end method
"""
    )
    facts = engine_facts(program)
    assert {(f.register, f.chain) for f in facts} == {(0, ()), (1, (Step.MOVE,))}


def test_intra_kill_on_redefinition():
    program = program_of(
        """
.class public Lt/Kill;
.super Ljava/lang/Object;
.method public static f()V
    .registers 1
    sget-object v0, Landroid/os/Build;->BRAND:Ljava/lang/String;
    const-string v0, "x"
    return-void
.end method
"""
    )
    (fact,) = engine_facts(program)
    assert fact.valid_range == (0, 1)  # live only into the redefinition


def test_intra_two_moves_into_comparison():
    program = program_of(
        """
.class public Lt/Chain;
.super Ljava/lang/Object;
.method public static f()V
    .registers 4
    sget-object v0, Landroid/os/Build;->MANUFACTURER:Ljava/lang/String;
    move-object v1, v0
    move-object v2, v1
    const-string v3, "oppo"
    invoke-virtual {v2, v3}, Ljava/lang/String;->equals(Ljava/lang/Object;)Z
    return-void
.end method
"""
    )
    facts = engine_facts(program)
    assert len(facts) == 3
    used_at_call = {f.register for f in facts if 4 in f.uses}
    assert used_at_call == {2}


# -- across methods ---------------------------------------------------------------

def test_callee_return_taints_caller():
    run = corpus_run("oppo_perm")
    sig = "Lcom/fixtures/oppo/PermissionPage;->startSettingPage(Landroid/content/Context;)V"
    fact_by_reg = {
        f.register: f for f in run.taint.facts if f.method == sig and f.register == 0
    }
    assert fact_by_reg[0].chain == (Step.CALLEE_RETURN,)


def test_library_call_taints_result():
    run = corpus_run("oppo_perm")
    sig = "Lcom/fixtures/oppo/PermissionPage;->startSettingPage(Landroid/content/Context;)V"
    chains = {f.register: f.chain for f in run.taint.facts if f.method == sig}
    assert chains[1] == (Step.CALLEE_RETURN, Step.LIB_RETURN)
    assert chains[3] == (Step.CALLEE_RETURN, Step.LIB_RETURN, Step.LIB_RETURN)


def test_two_level_return_chain():
    run = corpus_run("interproc_ret")
    methods_with_facts = {f.method.split(";->")[1] for f in run.taint.facts}
    assert {"level2()Ljava/lang/String;", "level1()Ljava/lang/String;", "check()V"} <= methods_with_facts


def test_param_in_chain():
    run = corpus_run("param_pass")
    handle = "Lcom/fixtures/chain/ParamPass;->handle(Ljava/lang/String;)V"
    param_facts = [f for f in run.taint.facts if f.method == handle and f.register == 2]
    assert param_facts and param_facts[0].chain == (Step.PARAM_IN,)


def test_round_trip_return_is_caller_return():
    src = """
.class public Lt/RoundTrip;
.super Ljava/lang/Object;
.method public static ident(Ljava/lang/String;)Ljava/lang/String;
    .registers 1
    return-object p0
.end method
.method public static f()V
    .registers 2
    sget-object v0, Landroid/os/Build;->BRAND:Ljava/lang/String;
    invoke-static {v0}, Lt/RoundTrip;->ident(Ljava/lang/String;)Ljava/lang/String;
    move-result-object v1
    return-void
.end method
"""
    program = program_of(src)
    f_sig = "Lt/RoundTrip;->f()V"
    chains = {f.register: f.chain for f in engine_facts(program) if f.method == f_sig}
    assert chains[1] == (Step.PARAM_IN, Step.CALLER_RETURN)


def test_extra_argument_words_seed_registers_below_the_parameters():
    """invoke-virtual passes two words to a static method of one parameter,
    so the call seeds v1 as well as p0 (v2): v1's value is live on entry,
    reaches the move and is read there."""
    src = """
.class public Lt/Wide;
.super Ljava/lang/Object;
.method public static m(Ljava/lang/String;)V
    .registers 3
    move-object v0, v1
    const-string v1, "huawei"
    invoke-virtual {v0, v1}, Ljava/lang/String;->equals(Ljava/lang/Object;)Z
    invoke-virtual {v2, v1}, Ljava/lang/String;->equals(Ljava/lang/Object;)Z
    return-void
.end method
.method public static f()V
    .registers 2
    sget-object v0, Landroid/os/Build;->BRAND:Ljava/lang/String;
    sget-object v1, Landroid/os/Build;->MODEL:Ljava/lang/String;
    invoke-virtual {v0, v1}, Lt/Wide;->m(Ljava/lang/String;)V
    return-void
.end method
"""
    facts = engine_facts(program_of(src))
    in_m = {
        (f.register, f.valid_range, f.origin.detail, f.chain, f.uses)
        for f in facts
        if f.method == "Lt/Wide;->m(Ljava/lang/String;)V"
    }
    assert in_m == {
        (0, (0, 4), "BRAND", (Step.PARAM_IN, Step.MOVE), (2,)),
        (1, (0, 1), "BRAND", (Step.PARAM_IN,), (0,)),
        (2, (0, 4), "MODEL", (Step.PARAM_IN,), (3,)),
    }


def test_fact_chains_well_formed(all_fixture_ids):
    """Each fact's chain ends in the step its defining instruction implies."""
    returns = {Step.LIB_RETURN, Step.CALLEE_RETURN, Step.CALLER_RETURN}
    checked = 0
    for fid in all_fixture_ids:
        run = corpus_run(fid)
        for fact in run.taint.facts:
            method = run.cfgs[fact.method].method
            start = fact.valid_range[0]
            ins = method.instructions[start]
            origin = fact.origin
            if written_register(ins) != fact.register:  # live on entry
                assert fact.chain[-1:] == (Step.PARAM_IN,), fact
            elif origin.method == fact.method and origin.index in (
                start,
                feeding_invoke(method, start),
            ):
                assert fact.chain == (), fact
            elif ins.opcode is Opcode.MOVE:
                assert fact.chain[-1:] == (Step.MOVE,), fact
            else:
                assert ins.opcode is Opcode.MOVE_RESULT, fact
                assert fact.chain[-1:] and fact.chain[-1] in returns, fact
            checked += 1
    assert checked > 50


def test_monotone_in_sources(all_fixture_ids):
    for fid in ("oppo_perm", "build_fields", "multi_guard", "meizu_imei"):
        run = corpus_run(fid)
        if len(run.sources) < 2:
            continue
        subset = run.sources[: len(run.sources) // 2]
        partial = TaintEngine(run.cfgs, run.call_graph, subset).solve()
        full_keys = {
            (f.method, f.register, f.valid_range[0], f.origin) for f in run.taint.facts
        }
        partial_keys = {
            (f.method, f.register, f.valid_range[0], f.origin) for f in partial.facts
        }
        assert partial_keys <= full_keys


# passes of the solve seeded with the methods holding a source; passing
# every method first took oppo_perm 3, interproc_ret 5, deep_chain 4 and
# zero_sources 1
SEEDED_PASSES = {"oppo_perm": 2, "interproc_ret": 3, "deep_chain": 1, "zero_sources": 0}


def test_fixpoint_idempotent(all_fixture_ids):
    """The seeded solve reaches the fixpoint, and the methods it never
    builds are those nothing can taint."""
    skipped = 0
    for fid in all_fixture_ids:
        run = corpus_run(fid)
        engine = TaintEngine(run.cfgs, run.call_graph, run.sources)
        result = engine.solve()
        assert result.converged
        points = result.per_point()
        assert points.keys() == {m.signature for m in run.program.methods() if m.has_body}, fid
        fact_methods = {f.method for f in result.facts}
        for sig in points.keys() - graph_state(engine)[0]:
            n = len(run.cfgs.methods[sig].instructions)
            assert points[sig] == {i: frozenset() for i in range(n)}, (fid, sig)
            assert sig not in fact_methods, (fid, sig)
            skipped += 1
        assert result.iterations == SEEDED_PASSES.get(fid, result.iterations), fid
        assert_fixpoint(engine, result)
    assert skipped > 0


def test_deterministic_results():
    run = corpus_run("multi_guard")
    again = TaintEngine(run.cfgs, run.call_graph, run.sources).solve()
    assert again.facts == run.taint.facts
    assert again.per_point() == run.taint.per_point()


def test_iteration_budget_flags_partial():
    """A deadline passing before, between or after method builds flags the
    result partial."""
    run = corpus_run("interproc_ret")
    cuts = list(cut_solves(run.cfgs, run.call_graph, run.sources))
    assert not any(result.converged for result in cuts)
    assert {result.iterations for result in cuts} == {0, 1, 2, 3}


def test_deadline_cut_never_reads_converged(all_fixture_ids):
    """Wherever the deadline cuts the solve, what it has found is already
    true, and a result that reads converged is the whole solution."""
    cut = 0
    for fid in all_fixture_ids:
        run = corpus_run(fid)
        full = run.taint.per_point()
        full_keys = {(f.method, f.register, f.valid_range[0], f.origin) for f in run.taint.facts}
        for result in cut_solves(run.cfgs, run.call_graph, run.sources):
            assert_partial(result, full)
            keys = {(f.method, f.register, f.valid_range[0], f.origin) for f in result.facts}
            assert keys <= full_keys, fid
            cut += 1
    assert cut > 100


def test_facts_report_uses():
    run = corpus_run("oppo_perm")
    sig = "Lcom/fixtures/oppo/PermissionPage;->startSettingPage(Landroid/content/Context;)V"
    v3 = [f for f in run.taint.facts if f.method == sig and f.register == 3]
    assert v3 and 7 in v3[0].uses  # consumed by the branch


def test_taint_json_dump_shape():
    run = corpus_run("oppo_perm")
    fact = sorted(run.taint.facts, key=lambda f: (f.method, f.register))[0]
    data = fact.to_json_dict()
    assert set(data) == {"method", "register", "valid_range", "origin", "chain", "uses"}


# -- the engine against a dense reference ------------------------------------------
#
# The reference solves whole bodies with a dense block solver: predecessors
# sorted on every visit, the transfer run on every instruction, which
# updates its state in place, and a fresh dict for every point. Its taint
# transfer works on origin masks, walks back from each move-result to its
# invoke and looks the call edge up on every visit, and its fixpoint
# re-solves a whole body whenever the method's inputs change.

def dense_solve(cfg, entry, transfer):
    instructions = cfg.method.instructions
    in_sets = [{}] * len(instructions)
    block_out = {}
    work = deque(range(len(cfg.blocks)))
    queued = set(work)
    while work:
        bid = work.popleft()
        queued.discard(bid)
        state = {}
        joins = [block_out.get(p, {}) for p in sorted(cfg.pred[bid])]
        if bid == 0:
            joins.append(entry)
        for incoming in joins:
            for reg, value in incoming.items():
                state[reg] = state[reg] | value if reg in state else value
        for i in cfg.blocks[bid]:
            in_sets[i] = state.copy()
            transfer(instructions[i], state)
        if block_out.get(bid) != state:
            block_out[bid] = state
            for succ in sorted(cfg.succ[bid]):
                if succ not in queued:
                    work.append(succ)
                    queued.add(succ)
    return in_sets


def dense_define(ins, state):
    if (w := written_register(ins)) is not None:
        state[w] = frozenset([ins.index])


def dense_taint_transfer(reference, sig):
    method = reference.cfgs.methods[sig]
    bits = {(src.method, src.index): 1 << i for i, src in enumerate(reference.sources)}

    def transfer(ins, state):
        if (w := written_register(ins)) is None:
            return
        mask = 0
        if ins.opcode is Opcode.MOVE:
            mask = state.get(ins.operands[1], 0)
        elif ins.opcode is Opcode.SGET_OBJECT:
            mask = bits.get((sig, ins.index), 0)
        elif ins.opcode is Opcode.MOVE_RESULT:
            invoke = feeding_invoke(method, ins.index)
            if invoke is not None:
                mask = bits.get((sig, invoke), 0)
                edge = reference.call_graph.edge_at(sig, invoke)
                if edge is not None and edge.resolved:
                    mask |= reference.summaries.get(edge.callee, 0)
                else:
                    for arg in method.instructions[invoke].operands:
                        mask |= state.get(arg, 0)
        if mask:
            state[w] = mask
        else:
            state.pop(w, None)

    return transfer


class RePassReference:
    """The fixpoint by whole-body passes: a method is re-solved with
    dense_solve whenever its entry masks or a callee's summary change."""

    def __init__(self, cfgs, call_graph, sources):
        self.cfgs, self.call_graph, self.sources = cfgs, call_graph, tuple(sources)
        self.summaries, self.entry_facts, self.solutions = {}, {}, {}
        self.iterations = 0

    def solve(self):
        work = deque(sorted({src.method for src in self.sources}))
        queued = set(work)
        while work:
            sig = work.popleft()
            queued.discard(sig)
            self.iterations += 1
            for dirty in self._apply_pass(sig):
                if dirty not in queued:
                    work.append(dirty)
                    queued.add(dirty)

    def _apply_pass(self, sig):
        cfg = self.cfgs[sig]
        in_sets = dense_solve(cfg, self.entry_facts.get(sig, {}), dense_taint_transfer(self, sig))
        self.solutions[sig] = in_sets
        dirty, summary = [], 0
        for ins in cfg.method.instructions:
            if ins.opcode in (Opcode.RETURN_OBJECT, Opcode.RETURN_VALUE):
                summary |= in_sets[ins.index].get(ins.operands[0], 0)
        if summary != self.summaries.get(sig, 0):
            self.summaries[sig] = summary
            dirty += sorted(e.caller for e in self.call_graph.callers_of(sig) if e.resolved)
        for ins in cfg.method.instructions:
            edge = self.call_graph.edge_at(sig, ins.index)
            if edge is None or not edge.resolved:
                continue
            base = self.cfgs.methods[edge.callee].registers - len(ins.operands)
            regs = self.entry_facts.setdefault(edge.callee, {})
            for word, arg in enumerate(ins.operands if base >= 0 else ()):
                mask = in_sets[ins.index].get(arg, 0)
                if mask & ~regs.get(base + word, 0):
                    regs[base + word] = regs.get(base + word, 0) | mask
                    dirty.append(edge.callee)
        return list(dict.fromkeys(dirty))

    def per_point(self):
        return {
            sig: {
                i: frozenset(self.solutions[sig][i]) if sig in self.solutions else frozenset()
                for i in range(len(method.instructions))
            }
            for sig, method in self.cfgs.methods.items()
        }


def graph_state(engine):
    """The built methods, their summaries and every method's entry masks,
    read off the graph's return and entry nodes."""
    built = {node for node in engine.masks if isinstance(node, str)}
    entry = {}
    for node, mask in engine.masks.items():
        if not isinstance(node, str) and node[2] == ENTRY_DEF:
            entry.setdefault(node[0], {})[node[1]] = mask
    return built, {sig: engine.masks[sig] for sig in built}, entry


def assert_fixpoint(engine, result):
    """One more dense pass over every method, built or not, from the
    engine's summaries and entry masks changes none of them and finds the
    engine's per-point taint."""
    reference = RePassReference(engine.cfgs, engine.call_graph, engine.sources)
    _, reference.summaries, reference.entry_facts = graph_state(engine)
    for sig in sorted(engine.cfgs):
        assert reference._apply_pass(sig) == [], sig
    assert reference.per_point() == result.per_point()


class CutClock:
    """time.monotonic passing a deadline of 0.5 at its nth reading."""

    def __init__(self, n):
        self.n, self.readings = n, 0

    def __call__(self):
        self.readings += 1
        return 0.0 if self.readings < self.n else 1.0


def cut_solves(cfgs, call_graph, sources):
    """The solve with its deadline passing at each clock reading in turn,
    up to the last reading an uncut solve takes."""
    n = 1
    while True:
        clock = CutClock(n)
        with mock.patch("devscan.taint.time.monotonic", clock):
            result = TaintEngine(cfgs, call_graph, sources, deadline=0.5).solve()
        if clock.readings < n:  # it finished before the cut
            return
        yield result
        n += 1


def assert_partial(result, full):
    """Every point of a cut solve is a subset of the full solve's, and a
    cut solve reading converged found all of it."""
    points = result.per_point()
    assert not result.converged or points == full
    for sig, regs_at in points.items():
        for i, regs in regs_at.items():
            assert regs <= full[sig][i], (sig, i)


METHODS = 3
LABELS = 3
REGS = 3  # v0..v2 are locals, and v3 is p0
SIG = "(Ljava/lang/String;)Ljava/lang/String;"
CALLEES = [f"Lt/R;->m{k}{SIG}" for k in range(METHODS)] + [
    "Ljava/lang/String;->valueOf(Ljava/lang/Object;)Ljava/lang/String;",  # unresolved
    f"Landroid/os/SystemProperties;->get{SIG}",  # a source
]
_reg = st.integers(min_value=0, max_value=REGS)
_label = st.integers(min_value=0, max_value=LABELS - 1)
_statement = st.one_of(
    st.tuples(st.just("move-object v{}, v{}"), _reg, _reg),
    st.tuples(st.just("sget-object v{}, Landroid/os/Build;->{}:Ljava/lang/String;"),
              _reg, st.sampled_from(["BRAND", "MODEL", "BOARD"])),
    st.tuples(st.just('const-string v{}, "{}"'), _reg, st.sampled_from(["huawei", "x"])),
    st.tuples(st.just("invoke-static {{v{}}}, {}"), _reg, st.sampled_from(CALLEES)),
    st.tuples(st.just("invoke-static {{v{}}}, {}\n    nop\n    move-result-object v{}"),
              _reg, st.sampled_from(CALLEES), _reg),
    st.tuples(st.just("invoke-static {{v{}}}, {}\n    move-result-object v{}"),
              _reg, st.sampled_from(CALLEES), _reg),
    st.tuples(st.just("invoke-virtual {{v{}, v{}}}, Ljava/lang/String;->equals(Ljava/lang/Object;)Z"
                      "\n    move-result v{}"), _reg, _reg, _reg),
    st.tuples(st.sampled_from(["if-eqz v{}, :L{}", "if-nez v{}, :L{}"]), _reg, _label),
    st.tuples(st.just("goto :L{}"), _label),
    st.tuples(st.just("return-object v{}"), _reg),
)


@st.composite
def _random_programs(draw):
    """One class of METHODS static methods calling each other, with loops."""
    lines = [".class public Lt/R;", ".super Ljava/lang/Object;"]
    for k in range(METHODS):
        body = draw(st.lists(_statement, min_size=1, max_size=14))
        spots = draw(st.lists(st.integers(0, len(body) - 1), min_size=LABELS, max_size=LABELS))
        lines += [f".method public static m{k}{SIG}", f"    .registers {REGS + 1}"]
        for i, (template, *args) in enumerate(body):
            lines += [f"    :L{label}" for label, spot in enumerate(spots) if spot == i]
            lines.append("    " + template.format(*args))
        lines += ["    return-object v0", ".end method"]
    return program_of("\n".join(lines))


@given(_random_programs())
@settings(max_examples=200, deadline=None)
def test_solver_matches_dense_reference(program):
    cfgs, call_graph = build_cfgs(program), build_call_graph(program)
    sources = find_sources(program, cfgs)
    reference = RePassReference(cfgs, call_graph, sources)
    reference.solve()
    expected = reference.per_point()

    engine = TaintEngine(cfgs, call_graph, sources)
    result = engine.solve()
    assert result.converged
    assert result.per_point() == expected
    built = graph_state(engine)[0]
    assert built == reference.solutions.keys()
    assert result.iterations == len(built)

    # a solve the deadline cuts has found only what is true
    for cut in cut_solves(cfgs, call_graph, sources):
        assert_partial(cut, expected)


@given(_random_programs(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_definition_query_matches_reaching_definitions(program, rng):
    # a walk reaching method entry yields ENTRY_DEF for any register, so
    # the reference holds every register it is asked about live on entry
    asked_registers = range(REGS + 2)
    for method in program.methods():
        cfg = build_cfg(method)
        live = {r: frozenset([ENTRY_DEF]) for r in asked_registers}
        rd = dense_solve(cfg, live, dense_define)
        # ask in a random order, so memoised answers feed later walks
        asked = [(i, r) for i in range(len(method.instructions)) for r in asked_registers]
        rng.shuffle(asked)
        for i, r in asked:
            assert cfg.defs(i, r) == rd[i].get(r, frozenset()), (method.signature, i, r)


@given(_random_programs())
@settings(max_examples=200, deadline=None)
def test_pairing_matches_the_walks(program):
    """CFG.paired holds each move-result with the invoke the walk back from
    it finds, and each invoke with the move-result the walk forward finds."""
    for method in program.methods():
        expected = []
        for ins in method.instructions:
            partner = None
            if ins.opcode is Opcode.MOVE_RESULT:
                partner = feeding_invoke(method, ins.index)
            elif ins.opcode in INVOKE_OPCODES:
                partner = (result_register(method, ins.index) or (None,))[0]
            expected.append(partner)
        assert build_cfg(method).paired == tuple(expected), method.signature


# with no comparison call given, the guard's strings include the block of
# the literal in the comparison's second operand, which only the step from
# the move-result into its invoke's operands finds
TWO_OPERAND_GUARD = f"""
.class public Lt/R;
.super Ljava/lang/Object;
.method public static m0{SIG}
    .registers {REGS + 1}
    const-string v1, "huawei"
    if-eqz v3, :L0
    :L0
    invoke-virtual {{v0, v1}}, Ljava/lang/String;->equals(Ljava/lang/Object;)Z
    move-result v2
    if-eqz v2, :L1
    :L1
    return-object v0
.end method
"""


@given(_random_programs())
@example(program_of(TWO_OPERAND_GUARD))
@settings(max_examples=200, deadline=None)
def test_feeding_query_matches_the_walks(program):
    """CFG.feeding less its moves is the non-move closure, CFG.literals
    filters it as the old key lookup did, and collect_guard_strings gives
    the old guard strings for every if, operand and comparison call."""
    for method in program.methods():
        cfg = build_cfg(method)
        code = method.instructions
        for i in range(len(code)):
            for r in range(REGS + 2):
                at = (method.signature, i, r)
                feeding = cfg.feeding(i, r)
                moves = {d for d in feeding if d >= 0 and code[d].opcode is Opcode.MOVE}
                assert feeding - moves == def_closure(cfg, i, r), at
                assert cfg.literals(i, r) == reaching_const_strings(cfg, i, r), at
        calls = [None] + [ins.index for ins in code if ins.opcode in INVOKE_OPCODES]
        for ins in code:
            if ins.opcode not in IF_OPCODES:
                continue
            for reg, call in product(ins.operands, calls):
                site = GuardSite(
                    method.signature, ins.index, ComparisonKind.STRING_EQUALS,
                    OperandSide.RECEIVER, reg, call,
                )
                assert collect_guard_strings(site, cfg) == reference_guard_strings(site, cfg), site


@given(_random_programs())
@settings(max_examples=200, deadline=None)
def test_engine_contains_the_oracle(program):
    """Every register the brute-force oracle taints at a point, the engine
    taints there too. The two are not equal: the oracle unrolls each loop
    only twice, and the engine also taints code no path from entry reaches."""
    cfgs = build_cfgs(program)
    sources = find_sources(program, cfgs)
    points = TaintEngine(cfgs, build_call_graph(program), sources).solve().per_point()
    for sig, regs_at in oracle_interpret(program, sources).items():
        for i, regs in regs_at.items():
            assert regs <= points[sig][i], (sig, i)


def test_call_ring_solves_each_body_once():
    """Methods calling each other in a ring: each new origin reaching a
    method once re-solved its body, and now flows along its edges, which
    are built once."""
    n = 5
    lines = [".class public Lt/Ring;", ".super Ljava/lang/Object;"]
    for k in range(n):
        lines += [
            f".method public static m{k}(Ljava/lang/String;)Ljava/lang/String;",
            "    .registers 3",
            f"    sget-object v0, Landroid/os/Build;->{('BRAND', 'MODEL')[k % 2]}:Ljava/lang/String;",
            "    if-nez p0, :call",
            "    move-object p0, v0",
            "    :call",
            f"    invoke-static {{p0}}, Lt/Ring;->m{(k + 1) % n}(Ljava/lang/String;)Ljava/lang/String;",
            "    move-result-object v1",
            "    if-nez v1, :done",
            "    move-object v1, p0",
            "    :done",
            "    return-object v1",
            ".end method",
        ]
    program = program_of("\n".join(lines))
    cfgs, call_graph = build_cfgs(program), build_call_graph(program)
    sources = find_sources(program, cfgs)
    engine = TaintEngine(cfgs, call_graph, sources)
    result = engine.solve()
    assert result.converged
    assert len(graph_state(engine)[0]) == n
    assert result.iterations == n
    reference = RePassReference(cfgs, call_graph, sources)
    reference.solve()
    assert reference.iterations > n
    assert result.per_point() == reference.per_point()
    assert_fixpoint(engine, result)
