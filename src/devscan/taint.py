"""Device-information sources and their interprocedural propagation.

Sources are reads of device-identifying ``android.os.Build`` fields and
``android.os.SystemProperties`` lookups (direct or through reflection).
Propagation runs on one value-flow graph per app whose nodes are register
definitions: taint flows through moves, into callee parameters, out of
library calls that consumed tainted values, and back from callee returns
to caller ``move-result`` registers. A fact dies when its register is
redefined.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .devicedb import BUILD_FIELDS
from .graphs import ENTRY_DEF, CallGraph, CFGMap
from .ir import INVOKE_OPCODES, Opcode, Program, read_registers

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
# source discovery

def find_sources(program: Program, cfgs: CFGMap) -> list[DeviceInfoSource]:
    """Locate every device-information read in the program.

    Reports reads of the Build fields in BUILD_FIELDS, direct
    SystemProperties.get invokes, and the reflective
    Class.forName / getMethod("get") / Method.invoke pattern when all three
    pieces sit in one method body. Property keys are recovered from
    const-strings reaching the call, otherwise UNKNOWN_KEY.
    """
    sources: list[DeviceInfoSource] = []
    sget = Opcode.SGET_OBJECT  # read once: each read of a member costs a lookup
    for method in program.methods():
        if not method.has_body:
            continue
        sig, code = method.signature, method.instructions
        forname_results: set[int] = set()
        getmethod_results: set[int] = set()
        for index, ins in enumerate(code):
            op = ins.opcode
            if op is sget:
                ref = ins.field_ref
                assert ref is not None
                if ref.owner == BUILD_CLASS and ref.name in BUILD_FIELDS:
                    sources.append(
                        DeviceInfoSource(
                            kind=SourceKind.BUILD_FIELD_READ,
                            method=sig,
                            index=index,
                            detail=ref.name,
                            defined_register=ins.operands[0],
                        )
                    )
                continue
            if op not in INVOKE_OPCODES:
                continue
            ref = ins.method_ref
            assert ref is not None
            if ref.owner not in (SYSPROP_CLASS, CLASS_CLASS, REFLECT_METHOD_CLASS):
                continue
            cfg = cfgs[sig]  # built only for a method calling one of these
            mr = cfg.paired[index]
            result = code[mr].operands[0] if mr is not None else None
            if ref.owner == SYSPROP_CLASS and ref.name == "get":
                detail = UNKNOWN_KEY
                if ins.operands:
                    consts = cfg.literals(index, ins.operands[0])
                    if consts:
                        detail = consts[0]
                sources.append(
                    DeviceInfoSource(
                        kind=SourceKind.SYSPROP_DIRECT,
                        method=sig,
                        index=index,
                        detail=detail,
                        defined_register=result,
                    )
                )
                continue
            if ref.owner == CLASS_CLASS and ref.name == "forName" and ins.operands:
                consts = cfg.literals(index, ins.operands[0])
                if SYSPROP_DOTTED in consts and mr is not None:
                    forname_results.add(mr)
                continue
            if (
                ref.owner == CLASS_CLASS
                and ref.name in ("getMethod", "getDeclaredMethod")
                and len(ins.operands) >= 2
            ):
                receiver = cfg.feeding(index, ins.operands[0])
                name_consts = cfg.literals(index, ins.operands[1])
                if receiver & forname_results and "get" in name_consts and mr is not None:
                    getmethod_results.add(mr)
                continue
            if ref.owner == REFLECT_METHOD_CLASS and ref.name == "invoke" and ins.operands:
                if not (cfg.feeding(index, ins.operands[0]) & getmethod_results):
                    continue
                detail = UNKNOWN_KEY
                for arg in ins.operands[1:]:
                    consts = cfg.literals(index, arg)
                    if consts:
                        detail = consts[0]
                        break
                sources.append(
                    DeviceInfoSource(
                        kind=SourceKind.SYSPROP_REFLECTIVE,
                        method=sig,
                        index=index,
                        detail=detail,
                        defined_register=result,
                    )
                )
    return sources


# ---------------------------------------------------------------------------
# propagation engine
#
# One value-flow graph per app, the sparse evaluation graph of Choi, Cytron
# and Ferrante (POPL 1991). A node is a definition (method, register, def
# index), ENTRY_DEF standing for a register a call seeds, or a method's
# return node, its signature. A node holds an origin mask, bit i standing
# for sources[i], and an edge ORs its parent's mask into its child: the
# transfer only copies and unions, and a write that is no node kills.
# TaintFacts are rebuilt only when asked for.

Def = tuple[str, int, int]  # (method, register, def index)
FactKey = tuple[str, int, int, int]  # (method, register, def index, origin index)


@dataclass
class TaintResult:
    sources: tuple[DeviceInfoSource, ...]
    iterations: int
    converged: bool
    # the solver's own tables, and each built method's registers with a tainted definition
    _masks: dict[Def | str, int] = field(default_factory=dict, repr=False)
    _shared: dict[Def, Def] = field(default_factory=dict, repr=False)
    _registers: dict[str, frozenset[int]] = field(default_factory=dict, repr=False)
    _cfgs: CFGMap = field(default_factory=lambda: CFGMap({}), repr=False)
    _build_facts: Callable[[], frozenset[TaintFact]] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def facts(self) -> frozenset[TaintFact]:
        # materialized on demand; partial results can be very large
        return self._build_facts() if self._build_facts else frozenset()

    def tainted(self, method_sig: str, index: int, register: int) -> bool:
        """Whether the register is tainted immediately before the
        instruction: whether a tainted definition of it reaches there."""
        if register in self._registers.get(method_sig, ()):
            masks, shared = self._masks, self._shared
            for d in self._cfgs[method_sig].defs(index, register):
                node = (method_sig, register, d)
                if masks.get(shared.get(node, node)):
                    return True
        return False

    def tainted_registers(self, method_sig: str, index: int) -> frozenset[int]:
        """Registers tainted immediately before the instruction executes."""
        regs = self._registers.get(method_sig, ())
        return frozenset(r for r in regs if self.tainted(method_sig, index, r))

    def tainted_in(self, method_sig: str) -> bool:
        """Whether any register of the method is tainted at any point: a
        tainted definition reaches the point after it, as a method does not
        end in a write."""
        return method_sig in self._registers

    def per_point(self) -> dict[str, dict[int, frozenset[int]]]:
        return {
            sig: {i: self.tainted_registers(sig, i) for i in range(len(method.instructions))}
            for sig, method in self._cfgs.methods.items()
        }


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class TaintEngine:
    """Origin masks flowing by union on one value-flow graph, from the
    methods holding a source.

    A method's edges are added the first time taint reaches it: it holds a
    source, a call seeds one of its entry registers, or a callee it
    resolves to returns taint. ``iterations`` counts the methods built.
    ``masks`` maps each node to its origin mask, and holds a built method's
    return node from the build on; ``edges`` maps a node to the nodes it
    feeds, and is emptied when the solve stops. A move whose read reaches
    exactly one earlier definition shares that definition's node, through
    ``shared`` (Rountev and Chandra's off-line variable substitution, PLDI
    2000). A passed ``deadline`` (``time.monotonic()``), checked per node
    popped and per method built, stops it where it is.
    """

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

        self.masks: dict[Def | str, int] = {}
        self.edges: dict[Def | str, list[Def | str]] = {}
        self.shared: dict[Def, Def] = {}
        self.iterations = 0
        # the nodes to pop, first in first out, and the origins each has not passed on yet
        self._work: deque[Def | str] = deque()
        self._pending: dict[Def | str, int] = {}
        # method -> the sources writing a register there, until it is built
        self._seeds: dict[str, list[int]] = {}
        for i, src in enumerate(self.sources):
            if src.defined_register is not None:
                self._seeds.setdefault(src.method, []).append(i)

    def _seed(self, src: DeviceInfoSource) -> Def:
        """The definition a source writes: its own, or its call's move-result."""
        d = src.index
        if src.kind is not SourceKind.BUILD_FIELD_READ:
            d = self.cfgs[src.method].paired[d]
        return (src.method, src.defined_register, d)

    def _late(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def _flow(self, nodes: Iterable[Def | str], mask: int) -> None:
        """OR origins into nodes, queueing the new ones to pass on. A node
        reached for the first time holds the passed mask object itself."""
        masks, pending = self.masks, self._pending
        for node in nodes:
            old = masks.get(node, 0)
            if new := mask & ~old if old else mask:
                masks[node] = old | new if old else new
                if node in pending:
                    pending[node] |= new
                else:
                    pending[node] = new
                    self._work.append(node)

    def _edges(self, sig: str) -> Iterator[tuple[tuple[Def | str, ...], Def | str, Step | None]]:
        """The edges a method's code adds, in instruction order: each node it
        feeds, with the nodes feeding it and the fact step taken there.

        A move, an unresolved call's move-result, a return and each argument
        word of a resolved call read the definitions reaching them: the
        block's own last write of the register, else what reaches the
        block's start. A resolved call's move-result reads its callee's
        return node, under step None, as the method's own return node is fed.
        """
        cfg = self.cfgs[sig]
        code, paired, writes = cfg.method.instructions, cfg.paired, cfg.writes
        start, reaching = 0, {}  # the block's start, and register -> its definitions here

        def reads(reg: int) -> tuple[Def, ...]:
            found = reaching.get(reg)
            if found is None:
                found = reaching[reg] = tuple((sig, reg, d) for d in cfg.defs(start, reg))
            return found

        # enum members read once: each read of one costs a class attribute lookup
        move, move_result = Opcode.MOVE, Opcode.MOVE_RESULT
        returns = (Opcode.RETURN_OBJECT, Opcode.RETURN_VALUE)
        copy, lib_return, param_in = Step.MOVE, Step.LIB_RETURN, Step.PARAM_IN
        target = self.call_graph.target
        for block in cfg.blocks:
            start, reaching = block.start, {}
            for i in block:
                ins = code[i]
                op = ins.opcode
                if op is move:
                    yield reads(ins.operands[1]), (sig, ins.operands[0], i), copy
                elif op is move_result and (invoke := paired[i]) is not None:
                    callee, resolved = target(code[invoke].method_ref)
                    if resolved:
                        yield (callee,), (sig, ins.operands[0], i), None
                    else:
                        args = code[invoke].operands
                        yield tuple(p for a in args for p in reads(a)), (sig, ins.operands[0], i), lib_return
                elif op in returns:
                    yield reads(ins.operands[0]), sig, None
                elif op in INVOKE_OPCODES:
                    callee, resolved = target(ins.method_ref)
                    if resolved and callee in self.cfgs:
                        # a call seeds the last registers of the frame, one per argument word
                        base = self.cfgs.methods[callee].registers - len(ins.operands)
                        for word, arg in enumerate(ins.operands if base >= 0 else ()):
                            yield reads(arg), (callee, base + word, ENTRY_DEF), param_in
                if (w := writes[i]) is not None:
                    reaching[w] = ((sig, w, i),)

    def _build(self, sig: str) -> bool:
        """Add a method's edges and seeds, flowing along the edges what
        their parents hold; False when the deadline has passed."""
        if self._late():
            return False
        self.iterations += 1
        self.masks[sig] = 0  # its return node marks it built
        edges, shared, move = list(self._edges(sig)), self.shared, Step.MOVE
        for parents, child, step in edges:
            # copies come in instruction order, so an earlier parent's node is known
            if step is move and len(parents) == 1 and parents[0][2] < child[2]:
                shared[child] = shared.get(parents[0], parents[0])
        for parents, child, _ in edges:
            if child in shared:
                continue
            for parent in parents:
                node = shared.get(parent, parent)
                self.edges.setdefault(node, []).append(child)
                if mask := self.masks.get(node):
                    self._flow((child,), mask)
        for i in self._seeds.pop(sig, ()):
            self._flow((self._seed(self.sources[i]),), 1 << i)
        return True

    def solve(self) -> TaintResult:
        converged = all(self._build(sig) for sig in sorted({src.method for src in self.sources}))
        masks, work, pending = self.masks, self._work, self._pending
        while converged and work:
            if self._late():
                converged = False
                break
            node = work.popleft()
            delta = pending.pop(node)
            self._flow(self.edges.get(node, ()), delta)
            if type(node) is str:  # a return node: its resolved callers read it
                reached = self.call_graph.callers(node)
            elif node[2] == ENTRY_DEF:
                reached = [node[0]]
            else:
                continue
            converged = all(self._build(sig) for sig in reached if sig not in masks)
        # nothing reads the worklist's tables once the solve stops
        self.edges, self._pending, self._work = {}, {}, deque()
        registers: dict[str, set[int]] = {}
        for (sig, reg, _), _ in self._tainted_defs():
            registers.setdefault(sig, set()).add(reg)
        return TaintResult(
            sources=self.sources,
            iterations=self.iterations,
            converged=converged,
            _masks=masks,
            _shared=self.shared,
            _registers={sig: frozenset(regs) for sig, regs in registers.items()},
            _cfgs=self.cfgs,
            _build_facts=lambda: self._facts(converged),
        )

    def _tainted_defs(self) -> Iterator[tuple[Def, int]]:
        """Each tainted definition of a built method, with its origin mask."""
        masks = self.masks
        for key, mask in masks.items():
            if mask and type(key) is tuple and key[0] in masks:
                yield key, mask
        for key, node in self.shared.items():  # only a built method shares
            if mask := masks.get(node):
                yield key, mask

    # -- facts --------------------------------------------------------------

    def _facts(self, exact: bool) -> frozenset[TaintFact]:
        """TaintFacts of the built methods, one per definition and origin bit.

        A chain follows a shortest derivation from a source read, ties going
        to the smallest parent key; the parents come from the built methods'
        edges. With ``exact`` a valid range ends at the last point its
        definition reaches and ``uses`` lists the points reading it, both
        from definition queries; a partial result keeps both coarse.
        """
        keys = {(*key, origin) for key, mask in self._tainted_defs() for origin in _bits(mask)}
        seeded = {(*self._seed(s), i) for i, s in enumerate(self.sources) if s.defined_register is not None}
        into: dict[Def | str, list[tuple[tuple, Step | None]]] = {}
        for sig in [k for k in self.masks if type(k) is str]:
            for parents, child, step in self._edges(sig):
                into.setdefault(child, []).append((parents, step))

        chains: dict[FactKey, tuple[Step, ...]] = {}
        parents: dict[FactKey, list[tuple[FactKey, Step | None]]] = {}
        children: dict[FactKey, list[FactKey]] = {}
        for key in keys:
            sig, reg, d, origin = key
            if key in seeded:
                chains[key] = ()  # a source read's or source call's own fact
                continue
            found = parents[key] = []
            for nodes, step in into.get((sig, reg, d), ()):
                if step is None:  # a callee's return node: what its returns read
                    nodes = [p for ps, _ in into.get(nodes[0], ()) for p in ps]
                found += [(k, step) for p in nodes if (k := (*p, origin)) in keys]
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
