"""Device-information sources and their interprocedural propagation.

Sources are reads of device-identifying ``android.os.Build`` fields and
``android.os.SystemProperties`` lookups (direct or through reflection).
Propagation is a register-level def-use analysis: facts flow through
moves, into callee parameters, out of library calls that consumed tainted
values, and back from callee returns to caller ``move-result`` registers.
A fact dies when its register is redefined.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .devicedb import DEFAULT_SOURCE_SPECS, SourceSpec
from .graphs import CFG, CallGraph, build_cfg
from .ir import (
    INVOKE_OPCODES,
    Instruction,
    MethodIR,
    Opcode,
    Program,
    read_registers,
    written_register,
)

UNKNOWN_KEY = "UNKNOWN_KEY"

BUILD_CLASS = "Landroid/os/Build;"
SYSPROP_CLASS = "Landroid/os/SystemProperties;"
CLASS_CLASS = "Ljava/lang/Class;"
REFLECT_METHOD_CLASS = "Ljava/lang/reflect/Method;"
SYSPROP_DOTTED = "android.os.SystemProperties"


class SourceKind(str, Enum):
    BUILD_FIELD_READ = "build_field_read"
    SYSPROP_DIRECT = "sysprop_direct"
    SYSPROP_REFLECTIVE = "sysprop_reflective"


class Step(str, Enum):
    MOVE = "move"
    LIB_RETURN = "lib_return"
    PARAM_IN = "param_in"
    CALLEE_RETURN = "callee_return"
    CALLER_RETURN = "caller_return"


@dataclass(frozen=True)
class DeviceInfoSource:
    kind: SourceKind
    method: str
    index: int
    detail: str
    defined_register: int | None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "method": self.method,
            "index": self.index,
            "detail": self.detail,
            "defined_register": self.defined_register,
        }


@dataclass(frozen=True)
class TaintFact:
    method: str
    register: int
    valid_range: tuple[int, int]
    origin: DeviceInfoSource
    chain: tuple[Step, ...]
    uses: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "register": self.register,
            "valid_range": list(self.valid_range),
            "origin": self.origin.to_json_dict(),
            "chain": [s.value for s in self.chain],
            "uses": list(self.uses),
        }


# ---------------------------------------------------------------------------
# reaching definitions and def-use chains

ENTRY_DEF = -1

# per instruction: register -> definition sites reaching it
ReachingDefs = list[dict[int, frozenset[int]]]


def reaching_definitions(method: MethodIR, cfg: CFG) -> ReachingDefs:
    """Per-instruction map register -> definition sites reaching it.

    ENTRY_DEF stands for the parameter value live on method entry.
    """
    n = len(method.instructions)
    in_sets: ReachingDefs = [dict() for _ in range(n)]
    entry = {r: frozenset([ENTRY_DEF]) for r in method.param_registers()}

    block_out: dict[int, dict[int, frozenset[int]]] = {}
    work = deque(sorted(b.bid for b in cfg.blocks))
    queued = set(work)
    while work:
        bid = work.popleft()
        queued.discard(bid)
        state: dict[int, frozenset[int]] = {}
        for pred in sorted(cfg.predecessors(bid)):
            for reg, defs in block_out.get(pred, {}).items():
                state[reg] = state.get(reg, frozenset()) | defs
        if bid == 0:
            for reg, defs in entry.items():
                state[reg] = state.get(reg, frozenset()) | defs
        for i in cfg.block(bid).indices():
            in_sets[i] = dict(state)
            w = written_register(method.instructions[i])
            if w is not None:
                state[w] = frozenset([i])
        if block_out.get(bid) != state:
            block_out[bid] = state
            for succ in sorted(cfg.successors(bid)):
                if succ not in queued:
                    work.append(succ)
                    queued.add(succ)
    return in_sets


def def_closure(
    method: MethodIR, rd: ReachingDefs, index: int, register: int
) -> frozenset[int]:
    """Non-move definition sites feeding (register, index) through move chains."""
    result: set[int] = set()
    work = [(index, register)]
    seen: set[tuple[int, int]] = set()
    while work:
        i, r = work.pop()
        if (i, r) in seen:
            continue
        seen.add((i, r))
        for d in rd[i].get(r, frozenset()):
            if d == ENTRY_DEF:
                result.add(d)
            elif method.instructions[d].opcode is Opcode.MOVE:
                work.append((d, method.instructions[d].operands[1]))
            else:
                result.add(d)
    return frozenset(result)


def reaching_const_strings(
    method: MethodIR, rd: ReachingDefs, index: int, register: int
) -> list[str]:
    """Literals of const-string definitions feeding (register, index)."""
    defs = def_closure(method, rd, index, register)
    literals = []
    for d in sorted(d for d in defs if d >= 0):
        ins = method.instructions[d]
        if ins.opcode is Opcode.CONST_STRING:
            literals.append(ins.literal or "")
    return literals


def feeding_invoke(method: MethodIR, mr_index: int) -> int | None:
    """Index of the invoke whose value a move-result consumes; mirror of result_register."""
    i = mr_index - 1
    while i >= 0:
        ins = method.instructions[i]
        if ins.opcode is Opcode.NOP:
            i -= 1
            continue
        return i if ins.opcode in INVOKE_OPCODES else None
    return None


def result_register(method: MethodIR, invoke_index: int) -> tuple[int, int] | None:
    """(index, register) of the move-result consuming an invoke's value."""
    i = invoke_index + 1
    while i < len(method.instructions):
        ins = method.instructions[i]
        if ins.opcode is Opcode.MOVE_RESULT:
            return i, ins.operands[0]
        if ins.opcode is Opcode.NOP:
            i += 1
            continue
        return None
    return None


# ---------------------------------------------------------------------------
# source discovery

def find_sources(
    program: Program,
    specs: tuple[SourceSpec, ...] = DEFAULT_SOURCE_SPECS,
    cfgs: dict[str, CFG] | None = None,
) -> list[DeviceInfoSource]:
    """Locate every device-information read in the program.

    Reports Build field reads for the configured fields, direct
    SystemProperties.get invokes, and the reflective
    Class.forName / getMethod("get") / Method.invoke pattern when all three
    pieces sit in one method body. Property keys are recovered from
    const-strings reaching the call, otherwise UNKNOWN_KEY.
    """
    wanted_fields = {s.build_field for s in specs}
    sources: list[DeviceInfoSource] = []
    for method in program.methods():
        if not method.has_body:
            continue
        cfg = (cfgs or {}).get(method.signature) or build_cfg(method)
        rd: ReachingDefs | None = None

        def lazy_rd() -> ReachingDefs:
            nonlocal rd
            if rd is None:
                rd = reaching_definitions(method, cfg)
            return rd

        forname_results: set[int] = set()
        getmethod_results: set[int] = set()
        for ins in method.instructions:
            if ins.opcode is Opcode.SGET_OBJECT:
                ref = ins.field_ref
                assert ref is not None
                if ref.owner == BUILD_CLASS and ref.name in wanted_fields:
                    sources.append(
                        DeviceInfoSource(
                            kind=SourceKind.BUILD_FIELD_READ,
                            method=method.signature,
                            index=ins.index,
                            detail=ref.name,
                            defined_register=ins.operands[0],
                        )
                    )
                continue
            if ins.opcode not in INVOKE_OPCODES:
                continue
            ref = ins.method_ref
            assert ref is not None
            mr = result_register(method, ins.index)
            if ref.owner == SYSPROP_CLASS and ref.name == "get":
                detail = UNKNOWN_KEY
                if ins.operands:
                    consts = reaching_const_strings(
                        method, lazy_rd(), ins.index, ins.operands[0]
                    )
                    if consts:
                        detail = consts[0]
                sources.append(
                    DeviceInfoSource(
                        kind=SourceKind.SYSPROP_DIRECT,
                        method=method.signature,
                        index=ins.index,
                        detail=detail,
                        defined_register=mr[1] if mr else None,
                    )
                )
                continue
            if ref.owner == CLASS_CLASS and ref.name == "forName" and ins.operands:
                consts = reaching_const_strings(method, lazy_rd(), ins.index, ins.operands[0])
                if SYSPROP_DOTTED in consts and mr:
                    forname_results.add(mr[0])
                continue
            if (
                ref.owner == CLASS_CLASS
                and ref.name in ("getMethod", "getDeclaredMethod")
                and len(ins.operands) >= 2
            ):
                receiver_defs = def_closure(method, lazy_rd(), ins.index, ins.operands[0])
                name_consts = reaching_const_strings(
                    method, lazy_rd(), ins.index, ins.operands[1]
                )
                if receiver_defs & forname_results and "get" in name_consts and mr:
                    getmethod_results.add(mr[0])
                continue
            if ref.owner == REFLECT_METHOD_CLASS and ref.name == "invoke" and ins.operands:
                receiver_defs = def_closure(method, lazy_rd(), ins.index, ins.operands[0])
                if not (receiver_defs & getmethod_results):
                    continue
                detail = UNKNOWN_KEY
                for arg in ins.operands[1:]:
                    consts = reaching_const_strings(method, lazy_rd(), ins.index, arg)
                    if consts:
                        detail = consts[0]
                        break
                sources.append(
                    DeviceInfoSource(
                        kind=SourceKind.SYSPROP_REFLECTIVE,
                        method=method.signature,
                        index=ins.index,
                        detail=detail,
                        defined_register=mr[1] if mr else None,
                    )
                )
    return sources


# ---------------------------------------------------------------------------
# propagation engine

FactKey = tuple[str, int, int, int]  # (method, register, def index, origin index)


@dataclass
class MethodSolution:
    in_sets: list[dict[int, frozenset[FactKey]]]
    return_facts: frozenset[FactKey]
    seed_events: tuple[tuple[str, int, FactKey], ...]  # (callee, register, fact)


@dataclass
class TaintResult:
    sources: tuple[DeviceInfoSource, ...]
    iterations: int
    converged: bool
    _points: dict[str, list[dict[int, frozenset[FactKey]]]] = field(
        default_factory=dict, repr=False
    )
    _build_facts: object = field(default=None, repr=False, compare=False)
    _facts_cache: frozenset[TaintFact] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def facts(self) -> frozenset[TaintFact]:
        # materialized on demand; partial results can be very large
        if self._facts_cache is None:
            self._facts_cache = self._build_facts() if self._build_facts else frozenset()
        return self._facts_cache

    def tainted_registers(self, method_sig: str, index: int) -> frozenset[int]:
        """Registers tainted immediately before the instruction executes."""
        sets = self._points.get(method_sig)
        if sets is None or index >= len(sets):
            return frozenset()
        return frozenset(r for r, fs in sets[index].items() if fs)

    def tainted_in(self, method_sig: str) -> bool:
        """Whether any register of the method is tainted at any point."""
        return any(fs for state in self._points.get(method_sig, ()) for fs in state.values())

    def per_point(self) -> dict[str, dict[int, frozenset[int]]]:
        out: dict[str, dict[int, frozenset[int]]] = {}
        for sig, sets in self._points.items():
            out[sig] = {
                i: frozenset(r for r, fs in state.items() if fs)
                for i, state in enumerate(sets)
            }
        return out


class _FactTable:
    """Interns facts; the first chain derived for a key is kept."""

    def __init__(self) -> None:
        self.chains: dict[FactKey, tuple[Step, ...]] = {}

    def origin_fact(self, key: FactKey) -> FactKey:
        self.chains.setdefault(key, ())
        return key

    def derive(self, key: FactKey, parent: FactKey, step: Step) -> FactKey:
        if key not in self.chains:
            self.chains[key] = self.chains[parent] + (step,)
        return key


class _LocalSolver:
    """Forward may-taint dataflow over one method body."""

    def __init__(
        self,
        method: MethodIR,
        cfg: CFG,
        table: _FactTable,
        entry_facts: dict[int, frozenset[FactKey]],
        sget_sources: dict[int, int],  # instruction index -> origin index
        invoke_result_fn,
        deadline: float | None = None,
    ):
        self.method = method
        self.cfg = cfg
        self.table = table
        self.entry_facts = entry_facts
        self.sget_sources = sget_sources
        self.invoke_result_fn = invoke_result_fn
        self.deadline = deadline
        self.sig = method.signature

    def solve(self) -> tuple[list[dict[int, frozenset[FactKey]]], dict[int, dict[int, frozenset[FactKey]]]]:
        n = len(self.method.instructions)
        in_sets: list[dict[int, frozenset[FactKey]]] = [dict() for _ in range(n)]
        block_out: dict[int, dict[int, frozenset[FactKey]]] = {}
        work = deque(sorted(b.bid for b in self.cfg.blocks))
        queued = set(work)
        while work:
            if self.deadline is not None and time.monotonic() > self.deadline:
                break  # partial in_sets; caller flags non-convergence
            bid = work.popleft()
            queued.discard(bid)
            state: dict[int, frozenset[FactKey]] = {}
            for pred in sorted(self.cfg.predecessors(bid)):
                for reg, fs in block_out.get(pred, {}).items():
                    state[reg] = state.get(reg, frozenset()) | fs
            if bid == 0:
                for reg, fs in self.entry_facts.items():
                    state[reg] = state.get(reg, frozenset()) | fs
            for i in self.cfg.block(bid).indices():
                snapshot = {r: fs for r, fs in state.items() if fs}
                if snapshot != in_sets[i]:
                    in_sets[i] = snapshot
                self._transfer(self.method.instructions[i], state)
            state = {r: fs for r, fs in state.items() if fs}
            if block_out.get(bid) != state:
                block_out[bid] = state
                for succ in sorted(self.cfg.successors(bid)):
                    if succ not in queued:
                        work.append(succ)
                        queued.add(succ)
        return in_sets, block_out

    def _transfer(self, ins: Instruction, state: dict[int, frozenset[FactKey]]) -> None:
        op = ins.opcode
        if op is Opcode.MOVE:
            dst, src = ins.operands
            parents = state.get(src, frozenset())
            facts = set()
            for parent in sorted(parents):
                key = (self.sig, dst, ins.index, parent[3])
                facts.add(self.table.derive(key, parent, Step.MOVE))
            state[dst] = frozenset(facts)
            return
        if op is Opcode.MOVE_RESULT:
            dst = ins.operands[0]
            invoke = feeding_invoke(self.method, ins.index)
            if invoke is None:
                state[dst] = frozenset()
                return
            state[dst] = self.invoke_result_fn(
                self.sig, self.method.instructions[invoke], ins.index, dst, state
            )
            return
        if op is Opcode.SGET_OBJECT:
            dst = ins.operands[0]
            origin = self.sget_sources.get(ins.index)
            if origin is not None:
                key = (self.sig, dst, ins.index, origin)
                state[dst] = frozenset([self.table.origin_fact(key)])
            else:
                state[dst] = frozenset()
            return
        w = written_register(ins)
        if w is not None:
            state[w] = frozenset()


class TaintEngine:
    """Worklist fixpoint over per-method dataflow solutions."""

    def __init__(
        self,
        program: Program,
        cfgs: dict[str, CFG],
        call_graph: CallGraph,
        sources: list[DeviceInfoSource],
        max_method_passes: int | None = None,
        deadline: float | None = None,
    ):
        self.program = program
        self.cfgs = cfgs
        self.call_graph = call_graph
        self.sources = tuple(sources)
        self.deadline = deadline
        n_methods = max(1, len(cfgs))
        self.max_method_passes = max_method_passes or max(200, 40 * n_methods)

        self.table = _FactTable()
        self.entry_facts: dict[str, dict[int, frozenset[FactKey]]] = {}
        self.summaries: dict[str, frozenset[FactKey]] = {}
        self.solutions: dict[str, list[dict[int, frozenset[FactKey]]]] = {}
        self.iterations = 0
        self._sget_sources: dict[str, dict[int, int]] = {}
        self._invoke_sources: dict[tuple[str, int], int] = {}
        for i, src in enumerate(self.sources):
            if src.kind is SourceKind.BUILD_FIELD_READ:
                self._sget_sources.setdefault(src.method, {})[src.index] = i
            else:
                self._invoke_sources[(src.method, src.index)] = i

    # -- invoke transfer -------------------------------------------------

    def _invoke_result(
        self,
        caller_sig: str,
        invoke: Instruction,
        mr_index: int,
        dst: int,
        state: dict[int, frozenset[FactKey]],
    ) -> frozenset[FactKey]:
        facts: set[FactKey] = set()
        origin = self._invoke_sources.get((caller_sig, invoke.index))
        if origin is not None:
            key = (caller_sig, dst, mr_index, origin)
            facts.add(self.table.origin_fact(key))
        edge = self.call_graph.edge_at(caller_sig, invoke.index)
        if edge is not None and edge.resolved:
            for rf in sorted(self.summaries.get(edge.callee, frozenset())):
                step = (
                    Step.CALLER_RETURN
                    if Step.PARAM_IN in self.table.chains[rf]
                    else Step.CALLEE_RETURN
                )
                key = (caller_sig, dst, mr_index, rf[3])
                facts.add(self.table.derive(key, rf, step))
        else:
            for arg in invoke.operands:
                for parent in sorted(state.get(arg, frozenset())):
                    key = (caller_sig, dst, mr_index, parent[3])
                    facts.add(self.table.derive(key, parent, Step.LIB_RETURN))
        return frozenset(facts)

    # -- per-method pass -------------------------------------------------

    def _solve_method(self, sig: str) -> MethodSolution:
        cfg = self.cfgs[sig]
        method = cfg.method
        solver = _LocalSolver(
            method,
            cfg,
            self.table,
            self.entry_facts.get(sig, {}),
            self._sget_sources.get(sig, {}),
            self._invoke_result,
            deadline=self.deadline,
        )
        in_sets, _ = solver.solve()

        return_facts: set[FactKey] = set()
        seed_events: list[tuple[str, int, FactKey]] = []
        for ins in method.instructions:
            if ins.opcode in (Opcode.RETURN_OBJECT, Opcode.RETURN_VALUE):
                return_facts |= in_sets[ins.index].get(ins.operands[0], frozenset())
            elif ins.opcode in INVOKE_OPCODES:
                edge = self.call_graph.edge_at(sig, ins.index)
                if edge is None or not edge.resolved:
                    continue
                callee = edge.callee
                callee_method = self.program.find_method(callee)
                if callee_method is None or not callee_method.has_body:
                    continue
                nargs = len(ins.operands)
                base = callee_method.registers - nargs
                if base < 0:
                    continue
                for word, arg in enumerate(ins.operands):
                    for parent in sorted(in_sets[ins.index].get(arg, frozenset())):
                        key = (callee, base + word, ENTRY_DEF, parent[3])
                        self.table.derive(key, parent, Step.PARAM_IN)
                        seed_events.append((callee, base + word, key))
        return MethodSolution(
            in_sets=in_sets,
            return_facts=frozenset(return_facts),
            seed_events=tuple(seed_events),
        )

    # -- fixpoint ---------------------------------------------------------

    def solve(self) -> TaintResult:
        work = deque(sorted(self.cfgs))
        queued = set(work)
        converged = True
        while work:
            if self.iterations >= self.max_method_passes or (
                self.deadline is not None and time.monotonic() > self.deadline
            ):
                converged = False
                break
            sig = work.popleft()
            queued.discard(sig)
            self.iterations += 1
            changed = self._apply_pass(sig)
            for dirty in changed:
                if dirty not in queued:
                    work.append(dirty)
                    queued.add(dirty)
        return self._build_result(converged)

    def _apply_pass(self, sig: str) -> list[str]:
        """Run one method pass; return methods whose inputs changed."""
        solution = self._solve_method(sig)
        dirty: list[str] = []
        self.solutions[sig] = solution.in_sets
        if solution.return_facts != self.summaries.get(sig, frozenset()):
            self.summaries[sig] = solution.return_facts
            for edge in sorted(
                self.call_graph.callers_of(sig), key=lambda e: (e.caller, e.call_index)
            ):
                if edge.resolved:
                    dirty.append(edge.caller)
        for callee, reg, key in solution.seed_events:
            regs = self.entry_facts.setdefault(callee, {})
            if key not in regs.get(reg, frozenset()):
                regs[reg] = regs.get(reg, frozenset()) | {key}
                dirty.append(callee)
        return list(dict.fromkeys(dirty))

    def sweep_once(self) -> int:
        """Extra propagation round over every method; returns new fact count."""
        before = len(self.table.chains)
        for sig in sorted(self.cfgs):
            self._apply_pass(sig)
        return len(self.table.chains) - before

    def _build_result(self, converged: bool) -> TaintResult:
        points: dict[str, list[dict[int, frozenset[FactKey]]]] = dict(self.solutions)

        def build_facts() -> frozenset[TaintFact]:
            facts: list[TaintFact] = []
            live: dict[FactKey, list[int]] = {}
            uses: dict[FactKey, list[int]] = {}
            if converged:
                # exact ranges and use sites need a scan over every point;
                # partial results keep coarse ranges instead
                for sig, in_sets in points.items():
                    method = self.cfgs[sig].method
                    for i, state in enumerate(in_sets):
                        reads = read_registers(method.instructions[i])
                        for reg, fs in state.items():
                            for key in fs:
                                live.setdefault(key, []).append(i)
                                if reg in reads:
                                    uses.setdefault(key, []).append(i)
            for key, chain in self.table.chains.items():
                sig, reg, def_index, origin_index = key
                indices = live.get(key, [])
                start = max(def_index, 0)
                end = max(indices) if indices else start
                facts.append(
                    TaintFact(
                        method=sig,
                        register=reg,
                        valid_range=(start, end),
                        origin=self.sources[origin_index],
                        chain=chain,
                        uses=tuple(sorted(set(uses.get(key, ())))),
                    )
                )
            return frozenset(facts)

        return TaintResult(
            sources=self.sources,
            iterations=self.iterations,
            converged=converged,
            _points=points,
            _build_facts=build_facts,
        )


def propagate_intra(method: MethodIR, cfg: CFG, seeds: list[TaintFact]) -> set[TaintFact]:
    """Intra-procedural closure of seed facts over move chains.

    Invokes are opaque here: a move-result kills unless the seed itself sits
    at that definition. Seeds anchor at valid_range start (ENTRY_DEF when the
    value is a parameter).
    """
    table = _FactTable()
    origins = tuple(s.origin for s in seeds)
    entry: dict[int, frozenset[FactKey]] = {}
    inject: dict[int, list[tuple[int, FactKey]]] = {}
    for i, seed in enumerate(seeds):
        def_index = seed.valid_range[0] if seed.valid_range else 0
        key = (method.signature, seed.register, def_index, i)
        table.chains[key] = seed.chain
        first = method.instructions[def_index] if method.instructions else None
        if first is not None and written_register(first) == seed.register:
            inject.setdefault(def_index, []).append((seed.register, key))
        else:
            entry[seed.register] = entry.get(seed.register, frozenset()) | {key}

    injected = dict(inject)

    def invoke_result(sig, invoke, mr_index, dst, state):
        for reg, key in injected.get(mr_index, []):
            if reg == dst:
                return frozenset([key])
        return frozenset()

    class _SeedSolver(_LocalSolver):
        def _transfer(self, ins, state):
            super()._transfer(ins, state)
            for reg, key in injected.get(ins.index, []):
                if ins.opcode is not Opcode.MOVE_RESULT:
                    state[reg] = state.get(reg, frozenset()) | {key}

    solver = _SeedSolver(method, cfg, table, entry, {}, invoke_result)
    in_sets, _ = solver.solve()

    live: dict[FactKey, list[int]] = {}
    uses: dict[FactKey, list[int]] = {}
    for i, state in enumerate(in_sets):
        reads = read_registers(method.instructions[i])
        for reg, fs in state.items():
            for key in fs:
                live.setdefault(key, []).append(i)
                if reg in reads:
                    uses.setdefault(key, []).append(i)
    out: set[TaintFact] = set()
    for key, chain in table.chains.items():
        sig, reg, def_index, origin_index = key
        indices = live.get(key, [])
        start = max(def_index, 0)
        end = max(indices) if indices else start
        out.add(
            TaintFact(
                method=sig,
                register=reg,
                valid_range=(start, end),
                origin=origins[origin_index],
                chain=chain,
                uses=tuple(sorted(set(uses.get(key, ())))),
            )
        )
    return out


def propagate_inter(
    program: Program,
    cfgs: dict[str, CFG],
    call_graph: CallGraph,
    sources: list[DeviceInfoSource],
    max_method_passes: int | None = None,
    deadline: float | None = None,
) -> TaintResult:
    """Whole-program taint fixpoint; see TaintEngine."""
    engine = TaintEngine(
        program,
        cfgs,
        call_graph,
        sources,
        max_method_passes=max_method_passes,
        deadline=deadline,
    )
    return engine.solve()
