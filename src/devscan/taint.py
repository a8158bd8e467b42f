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
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce
from operator import or_
from types import MappingProxyType
from typing import NamedTuple

from .devicedb import DEFAULT_SOURCE_SPECS
from .graphs import CFG, ENTRY_DEF, CallGraph, CFGMap
from .ir import (
    INVOKE_OPCODES,
    Instruction,
    MethodIR,
    Opcode,
    Program,
    read_registers,
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
# dataflow over one method's blocks, and def-use chains from CFG.defs

# the value an instruction writes to its register, given the state before
# it; a falsy value leaves the register out of the state
Transfer = Callable[[Instruction, Mapping], object]

# the state of a point no pass has reached yet
_UNREACHED: Mapping = MappingProxyType({})


def solve_blocks(
    cfg: CFG, entry: Mapping, transfer: Transfer, deadline: float | None = None
) -> tuple[list[Mapping], bool]:
    """Forward may-dataflow over one method's blocks, to a fixpoint.

    A state maps register -> value, and values (the engine's atom masks)
    join with ``|``. ``entry`` holds on method entry. Returns the state
    before every instruction and True; once ``deadline`` has passed, the
    states reached so far and False. States, ``entry`` among them, are
    read-only and shared: a new one is made only where a write changes a
    register, so the points between two writes hold the same mapping.
    """
    instructions, writes = cfg.method.instructions, cfg.writes
    in_sets: list[Mapping] = [_UNREACHED] * len(instructions)
    block_out: dict[int, Mapping] = {}
    work = deque(range(len(cfg.blocks)))
    queued = set(work)
    while work:
        if deadline is not None and time.monotonic() > deadline:
            return in_sets, False
        bid = work.popleft()
        queued.discard(bid)
        joins = [block_out[p] for p in cfg.pred[bid] if p in block_out]
        if bid == 0:
            joins.append(entry)
        if len(joins) == 1:
            state = joins[0]
        else:
            state = {}
            for incoming in joins:
                for reg, value in incoming.items():
                    state[reg] = state[reg] | value if reg in state else value
        for i in cfg.blocks[bid]:
            in_sets[i] = state
            if (w := writes[i]) is None:
                continue
            if value := transfer(instructions[i], state):
                if state.get(w) != value:
                    state = {**state, w: value}
            elif w in state:
                state = dict(state)
                del state[w]
        if block_out.get(bid) != state:
            block_out[bid] = state
            for succ in cfg.succ[bid]:
                if succ not in queued:
                    work.append(succ)
                    queued.add(succ)
    return in_sets, True


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


# ---------------------------------------------------------------------------
# source discovery

def find_sources(program: Program, cfgs: CFGMap) -> list[DeviceInfoSource]:
    """Locate every device-information read in the program.

    Reports Build field reads of the DEFAULT_SOURCE_SPECS fields, direct
    SystemProperties.get invokes, and the reflective
    Class.forName / getMethod("get") / Method.invoke pattern when all three
    pieces sit in one method body. Property keys are recovered from
    const-strings reaching the call, otherwise UNKNOWN_KEY.
    """
    wanted_fields = {s.build_field for s in DEFAULT_SOURCE_SPECS}
    sources: list[DeviceInfoSource] = []
    for method in program.methods():
        if not method.has_body:
            continue
        sig, code = method.signature, method.instructions
        forname_results: set[int] = set()
        getmethod_results: set[int] = set()
        for ins in code:
            if ins.opcode is Opcode.SGET_OBJECT:
                ref = ins.field_ref
                assert ref is not None
                if ref.owner == BUILD_CLASS and ref.name in wanted_fields:
                    sources.append(
                        DeviceInfoSource(
                            kind=SourceKind.BUILD_FIELD_READ,
                            method=sig,
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
            if ref.owner not in (SYSPROP_CLASS, CLASS_CLASS, REFLECT_METHOD_CLASS):
                continue
            cfg = cfgs[sig]  # built only for a method calling one of these
            mr = cfg.paired[ins.index]
            result = code[mr].operands[0] if mr is not None else None
            if ref.owner == SYSPROP_CLASS and ref.name == "get":
                detail = UNKNOWN_KEY
                if ins.operands:
                    consts = reaching_const_strings(cfg, ins.index, ins.operands[0])
                    if consts:
                        detail = consts[0]
                sources.append(
                    DeviceInfoSource(
                        kind=SourceKind.SYSPROP_DIRECT,
                        method=sig,
                        index=ins.index,
                        detail=detail,
                        defined_register=result,
                    )
                )
                continue
            if ref.owner == CLASS_CLASS and ref.name == "forName" and ins.operands:
                consts = reaching_const_strings(cfg, ins.index, ins.operands[0])
                if SYSPROP_DOTTED in consts and mr is not None:
                    forname_results.add(mr)
                continue
            if (
                ref.owner == CLASS_CLASS
                and ref.name in ("getMethod", "getDeclaredMethod")
                and len(ins.operands) >= 2
            ):
                receiver_defs = def_closure(cfg, ins.index, ins.operands[0])
                name_consts = reaching_const_strings(cfg, ins.index, ins.operands[1])
                if receiver_defs & forname_results and "get" in name_consts and mr is not None:
                    getmethod_results.add(mr)
                continue
            if ref.owner == REFLECT_METHOD_CLASS and ref.name == "invoke" and ins.operands:
                receiver_defs = def_closure(cfg, ins.index, ins.operands[0])
                if not (receiver_defs & getmethod_results):
                    continue
                detail = UNKNOWN_KEY
                for arg in ins.operands[1:]:
                    consts = reaching_const_strings(cfg, ins.index, arg)
                    if consts:
                        detail = consts[0]
                        break
                sources.append(
                    DeviceInfoSource(
                        kind=SourceKind.SYSPROP_REFLECTIVE,
                        method=sig,
                        index=ins.index,
                        detail=detail,
                        defined_register=result,
                    )
                )
    return sources


# ---------------------------------------------------------------------------
# propagation engine
#
# A solved method's dataflow values are masks over its atoms (entry registers
# a call can seed, resolved call results, source reads and invokes), whose
# values are origin masks, bit i standing for sources[i]. The transfer only
# copies, unions and kills, so a point's origin mask is the union of its
# atoms' values. TaintFacts are rebuilt only when asked for.

FactKey = tuple[str, int, int, int]  # (method, register, def index, origin index)

# a parent fact and the step deriving from it; None stands for a callee
# return, CALLER_RETURN when the parent's chain came in as a parameter
Derivation = tuple[FactKey, Step | None]


class _Body(NamedTuple):
    """One method's symbolic solution and the equations read off it."""
    points: list[Mapping[int, int]]  # the state before every instruction
    atoms: list[tuple[int, str | None, int | None]]  # (source bits, callee, entry register)
    transfer: Transfer
    returns: tuple[int, ...]  # the atoms the method can return
    sends: list[tuple[str, int, tuple[int, ...]]]  # (callee, entry register, atoms)


@dataclass
class TaintResult:
    sources: tuple[DeviceInfoSource, ...]
    iterations: int
    converged: bool
    # solved method -> (its symbolic states, the mask of its atoms holding taint, -1 for all)
    _points: dict[str, tuple[list, int]] = field(default_factory=dict, repr=False)
    _methods: Mapping[str, MethodIR] = field(default_factory=dict, repr=False)
    _build_facts: Callable[[], frozenset[TaintFact]] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def facts(self) -> frozenset[TaintFact]:
        # materialized on demand; partial results can be very large
        return self._build_facts() if self._build_facts else frozenset()

    def tainted_registers(self, method_sig: str, index: int) -> frozenset[int]:
        """Registers tainted immediately before the instruction executes."""
        states, live = self._points.get(method_sig, ((), 0))
        if index >= len(states):
            return frozenset()
        if live == -1:  # every atom holds taint
            return frozenset(states[index])
        return frozenset(reg for reg, mask in states[index].items() if mask & live)

    def tainted_in(self, method_sig: str) -> bool:
        """Whether any register of the method is tainted at any point."""
        states, live = self._points.get(method_sig, ((), 0))
        return bool(live) and any(mask & live for state in states for mask in state.values())

    def per_point(self) -> dict[str, dict[int, frozenset[int]]]:
        return {
            sig: {i: self.tainted_registers(sig, i) for i in range(len(method.instructions))}
            for sig, method in self._methods.items()
        }


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(values: list[int], atoms: Iterable[int]) -> int:
    return reduce(or_, [values[a] for a in atoms], 0)


class TaintEngine:
    """Worklist fixpoint over method summaries, from the methods holding a
    source. Each demanded body is solved once; new entry masks or callee
    summaries re-evaluate only its return and call-argument atoms. A
    passed ``deadline`` (``time.monotonic()``) stops it where it is."""

    def __init__(
        self,
        cfgs: CFGMap,
        call_graph: CallGraph,
        sources: list[DeviceInfoSource],
        deadline: float | None = None,
    ):
        self.cfgs = cfgs
        self.call_graph = call_graph
        self.sources = tuple(sources)
        self.deadline = deadline

        self.entry_facts: dict[str, dict[int, int]] = {}
        self.summaries: dict[str, int] = {}
        self.solutions: dict[str, _Body] = {}
        self.iterations = 0
        self._sget_bits: dict[str, dict[int, int]] = {}
        self._invoke_bits: dict[tuple[str, int], int] = {}
        for i, src in enumerate(self.sources):
            if src.kind is SourceKind.BUILD_FIELD_READ:
                self._sget_bits.setdefault(src.method, {})[src.index] = 1 << i
            else:
                self._invoke_bits[(src.method, src.index)] = 1 << i
        self._shapes: dict[str, tuple[list, list, dict]] = {}

    def _shape(self, sig: str) -> tuple[list, list, dict]:
        """A method's returns, as (index, register); its resolved calls into
        bodies, as (index, callee, first parameter register, arguments); and
        what each move-result receives, as index -> (its invoke's source
        bits, the resolved callee or None, an unresolved call's arguments)."""
        if sig not in self._shapes:
            cfg = self.cfgs[sig]
            method, paired = cfg.method, cfg.paired
            returns, calls, results = [], [], {}
            for ins in method.instructions:
                if ins.opcode in (Opcode.RETURN_OBJECT, Opcode.RETURN_VALUE):
                    returns.append((ins.index, ins.operands[0]))
                elif ins.opcode is Opcode.MOVE_RESULT:
                    invoke = paired[ins.index]
                    edge = self.call_graph.edge_at(sig, invoke) if invoke is not None else None
                    callee = edge.callee if edge is not None and edge.resolved else None
                    args = method.instructions[invoke].operands if invoke is not None else ()
                    bits = self._invoke_bits.get((sig, invoke), 0)
                    results[ins.index] = (bits, callee, args if callee is None else ())
                elif ins.opcode in INVOKE_OPCODES:
                    edge = self.call_graph.edge_at(sig, ins.index)
                    if edge is not None and edge.resolved and edge.callee in self.cfgs:
                        base = self.cfgs.methods[edge.callee].registers - len(ins.operands)
                        if base >= 0:
                            calls.append((ins.index, edge.callee, base, ins.operands))
            self._shapes[sig] = (returns, calls, results)
        return self._shapes[sig]

    def _solve_body(self, sig: str) -> bool:
        """Solve a method body once, with an atom for each of its inputs;
        False when the deadline cut the solve short."""
        self.iterations += 1
        method = self.cfgs.methods[sig]
        returns, calls, results = self._shape(sig)
        atoms: list[tuple[int, str | None, int | None]] = []

        def atom(bits: int, callee: str | None = None, reg: int | None = None) -> int:
            atoms.append((bits, callee, reg))
            return 1 << len(atoms) - 1

        # a call seeds the last registers of the frame, one per argument word
        top = low = method.registers
        for e in self.call_graph.callers_of(sig):
            low = min(low, top - len(self.cfgs.methods[e.caller].instructions[e.call_index].operands))
        entry = {reg: atom(0, reg=reg) for reg in range(max(0, low), top)}
        # a source read's atom, and a move-result's for its source and callee
        own = {i: atom(bits) for i, bits in self._sget_bits.get(sig, {}).items()}
        own.update((i, atom(b, callee)) for i, (b, callee, _) in results.items() if b or callee)

        def transfer(ins: Instruction, state: Mapping[int, int]) -> int:
            if ins.opcode is Opcode.MOVE:
                return state.get(ins.operands[1], 0)
            mask = own.get(ins.index, 0)  # any other write without an atom kills
            for arg in results[ins.index][2] if ins.opcode is Opcode.MOVE_RESULT else ():
                mask |= state.get(arg, 0)  # an unresolved callee returns its arguments'
            return mask

        points, finished = solve_blocks(self.cfgs[sig], entry, transfer, self.deadline)
        returned = reduce(or_, [points[index].get(reg, 0) for index, reg in returns], 0)
        sends = [
            (callee, base + word, tuple(_bits(points[index][arg])))
            for index, callee, base, args in calls
            for word, arg in enumerate(args)
            if arg in points[index]
        ]
        self.solutions[sig] = _Body(points, atoms, transfer, tuple(_bits(returned)), sends)
        return finished

    def _values(self, sig: str) -> list[int]:
        """Each atom's origin mask now; neither dict has a None key."""
        entry, got = self.entry_facts.get(sig, {}), self.summaries
        return [b | got.get(c, 0) | entry.get(r, 0) for b, c, r in self.solutions[sig].atoms]

    # -- fixpoint ---------------------------------------------------------

    def solve(self) -> TaintResult:
        work = deque(sorted({src.method for src in self.sources}))
        queued = set(work)
        converged = True
        while work:
            sig = work.popleft()
            if self.deadline is not None and time.monotonic() > self.deadline:
                converged = False
                break
            queued.discard(sig)
            if sig not in self.solutions and not self._solve_body(sig):
                converged = False  # its states are partial
            for dirty in self._evaluate(sig):
                if dirty not in queued:
                    work.append(dirty)
                    queued.add(dirty)
        return self._build_result(converged)

    def _evaluate(self, sig: str) -> list[str]:
        """Re-evaluate a method's summary and call arguments; return the methods they change."""
        body, values = self.solutions[sig], self._values(sig)
        dirty: list[str] = []
        if (summary := _union(values, body.returns)) != self.summaries.get(sig, 0):
            self.summaries[sig] = summary
            dirty += sorted({e.caller for e in self.call_graph.callers_of(sig) if e.resolved})
        for callee, reg, atoms in body.sends:
            regs = self.entry_facts.setdefault(callee, {})
            if (mask := _union(values, atoms)) & ~regs.get(reg, 0):
                regs[reg] = regs.get(reg, 0) | mask
                dirty.append(callee)
        return dirty

    # -- facts --------------------------------------------------------------

    def _definitions(self, sig: str) -> Iterator[tuple[int, int, int]]:
        """(register, definition index, written origin mask) of each tainted
        definition of a solved method."""
        yield from ((reg, ENTRY_DEF, mask) for reg, mask in self.entry_facts.get(sig, {}).items())
        (points, _, transfer, _, _), values = self.solutions[sig], self._values(sig)
        code = self.cfgs.methods[sig].instructions
        for i, w in enumerate(self.cfgs[sig].writes):
            if w is not None and (mask := _union(values, _bits(transfer(code[i], points[i])))):
                yield w, i, mask

    def _incoming(self, key: FactKey, live: Callable) -> tuple[Step, ...] | list[Derivation]:
        """() for a fact a source read creates; else its parameter or
        move-result parents."""
        sig, reg, d, origin = key
        if d == ENTRY_DEF:
            # a caller passing taint was solved
            callers = {e.caller for e in self.call_graph.callers_of(sig)} & self.solutions.keys()
            return [
                (k, Step.PARAM_IN)
                for caller in sorted(callers)
                for index, callee, base, args in self._shape(caller)[1]
                if callee == sig and 0 <= reg - base < len(args)
                for k in live(caller, args[reg - base], index, origin)
            ]
        method = self.cfgs.methods[sig]
        op = method.instructions[d].opcode
        if op is Opcode.SGET_OBJECT:
            return () if self._sget_bits.get(sig, {}).get(d, 0) >> origin & 1 else []
        if op is not Opcode.MOVE_RESULT:
            return []
        bits, callee, args = self._shape(sig)[2][d]
        if bits >> origin & 1:
            return ()
        if callee is not None:
            returns = self._shape(callee)[0]
            return [(k, None) for i, ret in returns for k in live(callee, ret, i, origin)]
        return [(k, Step.LIB_RETURN) for arg in args for k in live(sig, arg, d, origin)]

    def _facts(self, solved: list[str], exact: bool) -> frozenset[TaintFact]:
        """TaintFacts of the solved methods, one per definition and origin bit.

        A chain follows a shortest derivation from a source read, ties going
        to the smallest parent key. With ``exact`` a valid range ends at the
        last point its definition reaches and ``uses`` lists the points
        reading it, both from definition queries; a partial result keeps both
        coarse.
        """
        keys = {
            (sig, reg, d, origin)
            for sig in solved
            for reg, d, mask in self._definitions(sig)
            for origin in _bits(mask)
        }

        def live(sig: str, reg: int, index: int, origin: int) -> list[FactKey]:
            """The facts of (register, origin) reaching an instruction of a
            solved method."""
            defs = self.cfgs[sig].defs(index, reg)
            return [key for d in defs if (key := (sig, reg, d, origin)) in keys]

        chains: dict[FactKey, tuple[Step, ...]] = {}
        parents: dict[FactKey, list[Derivation]] = {}
        children: dict[FactKey, list[FactKey]] = {}
        for key in keys:
            found = self._incoming(key, live)
            if isinstance(found, tuple):
                chains[key] = found
                continue
            sig, _, d, origin = key
            ins = self.cfgs.methods[sig].instructions[d] if d != ENTRY_DEF else None
            if ins is not None and ins.opcode is Opcode.MOVE:
                found += [(k, Step.MOVE) for k in live(sig, ins.operands[1], d, origin)]
            parents[key] = found
            for parent, _ in found:
                children.setdefault(parent, []).append(key)
        frontier = list(chains)
        while frontier:
            layer: dict[FactKey, tuple[Step, ...]] = {}
            for key in {c for p in frontier for c in children.get(p, ()) if c not in chains}:
                parent, step = min(
                    ((p, s) for p, s in parents[key] if p in chains), key=lambda ps: ps[0]
                )
                if step is None:
                    step = Step.CALLER_RETURN if Step.PARAM_IN in chains[parent] else Step.CALLEE_RETURN
                layer[key] = chains[parent] + (step,)
            chains.update(layer)
            frontier = list(layer)

        # (method, register, definition) -> (the last point it reaches, the points reading it)
        reach: dict[tuple[str, int, int], tuple[int, tuple[int, ...]]] = {}
        for sig, reg in {key[:2] for key in chains} if exact else ():
            cfg, points = self.cfgs[sig], {}
            for block in cfg.blocks:  # each definition's points, in order
                defs = cfg.defs(block.start, reg)
                for i in block:
                    for d in defs:
                        points.setdefault(d, []).append(i)
                    if cfg.writes[i] == reg:
                        defs = (i,)
            code = cfg.method.instructions
            for d, at in points.items():
                reach[(sig, reg, d)] = (at[-1], tuple(i for i in at if reg in read_registers(code[i])))
        facts = set()
        for (sig, reg, d, origin), chain in chains.items():
            start = max(d, 0)
            end, uses = reach.get((sig, reg, d), (start, ()))
            facts.add(TaintFact(sig, reg, (start, end), self.sources[origin], chain, uses))
        return frozenset(facts)

    def _build_result(self, converged: bool) -> TaintResult:
        points = {}
        for sig, body in self.solutions.items():
            values = self._values(sig)
            live = -1 if all(values) else sum(1 << a for a, v in enumerate(values) if v)
            points[sig] = (body.points, live)
        return TaintResult(
            sources=self.sources,
            iterations=self.iterations,
            converged=converged,
            _points=points,
            _methods=self.cfgs.methods,
            _build_facts=lambda: self._facts(list(points), converged),
        )
