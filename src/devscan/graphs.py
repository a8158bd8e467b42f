"""Control-flow graphs, the whole-program call graph and postdominators."""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat

from .ir import (
    IF_OPCODES,
    INVOKE_OPCODES,
    RETURN_OPCODES,
    MethodIR,
    MethodRef,
    Opcode,
    Program,
    written_register,
)

# synthetic exit node joining all return blocks
EXIT = -1

# the definition site CFG.defs reports for method entry
ENTRY_DEF = -1
# the answer of most block-start queries, kept once rather than per query
_ENTRY_ONLY = frozenset((ENTRY_DEF,))


class EdgeKind(str, Enum):
    FALLTHROUGH = "fallthrough"
    BRANCH_TAKEN = "branch_taken"
    GOTO = "goto"


@dataclass(slots=True)
class CFG:
    """One method's control flow as flat tables indexed by block id.

    Block b covers the instructions in ``blocks[b]``; ``succ[b]`` and
    ``pred[b]`` hold its neighbours in ascending order, one entry per edge;
    ``block_of[i]`` is the block of instruction i. Every stage reads the
    method's definitions through ``defs`` and its invoke/move-result pairs
    through ``paired``, so each is computed once per method. Taint builds
    its value-flow edges on ``defs``; source keys, guard sites and guard
    strings read ``feeding``, the one backward query through moves, and
    source keys its const-strings through ``literals``.
    """

    method: MethodIR
    blocks: tuple[range, ...]
    edges: tuple[tuple[int, int, EdgeKind], ...]
    succ: tuple[tuple[int, ...], ...]
    pred: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]
    # the register each instruction writes, None where it writes none
    writes: tuple[int | None, ...]
    # the move-result receiving each invoke's value and the invoke feeding
    # each move-result, None elsewhere; as in Dalvik, the move-result is the
    # instruction right after its invoke
    paired: tuple[int | None, ...]
    has_const_string: bool
    # (block start, register) -> the answer of defs there, made on first fill
    _start_defs: dict[tuple[int, int], frozenset[int]] | None = field(
        default=None, repr=False, compare=False
    )

    def instructions_of(self, bid: int):
        b = self.blocks[bid]
        return self.method.instructions[b.start : b.stop]

    def defs(self, index: int, register: int) -> frozenset[int]:
        """The definition sites of ``register`` reaching instruction ``index``.

        A backward walk over the tables that stops at the register's writes.
        A walk reaching method entry without a write yields ENTRY_DEF,
        whatever the register: a caller that needs the value live on entry
        matches it against what it knows holds there. Only the answers at
        block starts are memoised; the prefix of the block before ``index``
        is scanned on each query. Queries running concurrently may fill the
        memo twice, with equal answers.
        """
        writes, blocks = self.writes, self.blocks
        bid = self.block_of[index]
        start = blocks[bid].start
        for j in range(index - 1, start - 1, -1):
            if writes[j] == register:
                return frozenset((j,))
        memo = self._start_defs
        if memo is None:
            memo = self._start_defs = {}
        found = memo.get((start, register))
        if found is None:
            # the writes ending blocks that reach this one without a write
            defs, seen, work = set(), {bid}, [bid]
            while work:
                b = work.pop()
                if b == 0:
                    defs.add(ENTRY_DEF)
                for p in self.pred[b]:
                    d = next((j for j in reversed(blocks[p]) if writes[j] == register), None)
                    if d is not None:
                        defs.add(d)
                    elif p not in seen:
                        seen.add(p)
                        work.append(p)
            found = memo[(start, register)] = _ENTRY_ONLY if defs == _ENTRY_ONLY else frozenset(defs)
        return found

    def feeding(self, index: int, register: int) -> frozenset[int]:
        """Every definition whose value reaches ``register`` at ``index``
        through chains of moves: the moves themselves, the definitions they
        copy, and ENTRY_DEF where a walk reaches method entry."""
        code = self.method.instructions
        found: set[int] = set()
        work = [(index, register)]
        while work:
            for d in self.defs(*work.pop()):
                if d not in found:
                    found.add(d)
                    if d != ENTRY_DEF and code[d].opcode is Opcode.MOVE:
                        work.append((d, code[d].operands[1]))
        return frozenset(found)

    def literals(self, index: int, register: int) -> list[str]:
        """The literals of the const-strings in ``feeding``, in code order."""
        code = self.method.instructions
        return [
            code[d].literal or ""
            for d in sorted(self.feeding(index, register))
            if d != ENTRY_DEF and code[d].opcode is Opcode.CONST_STRING
        ]


def build_cfg(method: MethodIR) -> CFG:
    """Split a method body into basic blocks with typed edges.

    Leaders are index 0, every branch target, and every successor of a
    branch or goto.
    """
    if not method.has_body:
        raise ValueError(f"{method.signature}: no body to build a CFG from")
    instructions = method.instructions
    n = len(instructions)
    # enum members read once: each read of one costs a class attribute lookup
    goto, move_result, const_string = Opcode.GOTO, Opcode.MOVE_RESULT, Opcode.CONST_STRING
    leaders = {0}
    paired: list[int | None] = [None] * n
    has_const_string = False
    for i, ins in enumerate(instructions):
        op, target = ins.opcode, ins.branch_target
        if target is not None:
            if not 0 <= target < n:
                raise RuntimeError(
                    f"internal: {method.signature} branch target {target} "
                    f"outside body (frontend should have rejected this)"
                )
            leaders.add(target)
            if i + 1 < n:
                leaders.add(i + 1)
        elif op in RETURN_OPCODES:
            if i + 1 < n:
                leaders.add(i + 1)
        elif op is move_result:
            if i and instructions[i - 1].opcode in INVOKE_OPCODES:
                paired[i - 1], paired[i] = i, i - 1
        elif op is const_string:
            has_const_string = True
    starts = sorted(leaders)
    blocks = tuple(map(range, starts, [*starts[1:], n]))
    block_of = tuple(chain.from_iterable(repeat(bid, len(b)) for bid, b in enumerate(blocks)))

    # a branch target starts its block, and the next block starts right
    # after the last instruction of this one
    edges: list[tuple[int, int, EdgeKind]] = []
    for bid, b in enumerate(blocks):
        last = instructions[b.stop - 1]
        op = last.opcode
        if op is goto:
            edges.append((bid, block_of[last.branch_target], EdgeKind.GOTO))
        elif op in IF_OPCODES:
            edges.append((bid, block_of[last.branch_target], EdgeKind.BRANCH_TAKEN))
            if b.stop < n:
                edges.append((bid, bid + 1, EdgeKind.FALLTHROUGH))
        elif op not in RETURN_OPCODES and b.stop < n:
            edges.append((bid, bid + 1, EdgeKind.FALLTHROUGH))
    succ: list[list[int]] = [[] for _ in blocks]
    pred: list[list[int]] = [[] for _ in blocks]
    for src, dst, _ in edges:
        succ[src].append(dst)
        pred[dst].append(src)
    return CFG(
        method=method,
        blocks=blocks,
        edges=tuple(edges),
        succ=tuple(tuple(sorted(s)) for s in succ),
        pred=tuple(map(tuple, pred)),  # edges come in ascending source order
        block_of=block_of,
        writes=tuple(map(written_register, instructions)),
        paired=tuple(paired),
        has_const_string=has_const_string,
    )


def immediate_postdominators(cfg: CFG) -> dict[int, int]:
    """ipdom for every block over the CFG augmented with a synthetic exit.

    Blocks that cannot reach any return are assigned EXIT.
    """
    instructions = cfg.method.instructions
    exits = [bid for bid, b in enumerate(cfg.blocks) if instructions[b.stop - 1].is_return()]
    return _ipdoms_from_edges(len(cfg.blocks), cfg.succ, exits)


def _ipdoms_from_edges(
    nblocks: int, succs: Sequence[Sequence[int]] | Mapping[int, Sequence[int]], exits: list[int]
) -> dict[int, int]:
    """Cooper, Harvey and Kennedy's iterative dominance algorithm ("A Simple,
    Fast Dominance Algorithm", 2001) on the reverse graph rooted at EXIT,
    where a block's immediate dominator is its immediate postdominator.
    Each pass visits every edge once, and passes repeat until nothing
    changes: two for every CFG of the corpus and the synthetic workloads.
    """
    into: dict[int, list[int]] = {bid: [] for bid in range(nblocks)}
    into[EXIT] = list(exits)
    for bid in range(nblocks):
        for s in succs[bid]:
            into[s].append(bid)
    returns = set(exits)

    # postorder of the reverse graph by an explicit stack, because a method
    # can nest deeper than Python's recursion limit; EXIT comes last
    rank: dict[int, int] = {}
    stack = [(EXIT, iter(into[EXIT]))]
    visited = {EXIT}
    while stack:
        node, rest = stack[-1]
        for nxt in rest:
            if nxt not in visited:
                visited.add(nxt)
                stack.append((nxt, iter(into[nxt])))
                break
        else:
            stack.pop()
            rank[node] = len(rank)
    order = list(rank)[-2::-1]  # reverse postorder, EXIT left out

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rank[a] < rank[b]:
                a = idom[a]
            while rank[b] < rank[a]:
                b = idom[b]
        return a

    idom = {EXIT: EXIT}
    changed = True
    while changed:
        changed = False
        for bid in order:
            # successors that never reach the exit are not ranked and
            # contribute no exit paths
            new = EXIT if bid in returns else None
            for s in succs[bid]:
                if s in idom:
                    new = s if new is None else intersect(s, new)
            if idom.get(bid) != new:
                idom[bid] = new
                changed = True
    return {bid: idom.get(bid, EXIT) for bid in range(nblocks)}


@dataclass(frozen=True)
class CallEdge:
    caller: str
    call_index: int
    callee: str
    resolved: bool


class CallGraph:
    """Each distinct method reference's call target, resolved once.

    ``target(ref)`` is the ``(callee, resolved)`` of every invoke naming
    ``ref``: the resolved method's signature, or the reference's own when
    it does not resolve to a body. ``callers(sig)`` lists the methods with
    a call resolved to ``sig``, sorted. ``edges`` derives one
    :class:`CallEdge` per invoke, in program order, on each access.
    """

    def __init__(
        self,
        program: Program,
        targets: dict[MethodRef, tuple[str, bool]],
        callers: dict[str, tuple[str, ...]],
    ):
        self.program = program
        self._targets = targets
        self._callers = callers

    def target(self, ref: MethodRef) -> tuple[str, bool]:
        return self._targets[ref]

    def callers(self, signature: str) -> tuple[str, ...]:
        return self._callers.get(signature, ())

    @property
    def edges(self) -> tuple[CallEdge, ...]:
        targets = self._targets
        return tuple(
            CallEdge(method.signature, index, *targets[ins.method_ref])
            for method in self.program.methods()
            for index, ins in enumerate(method.instructions)
            if ins.method_ref is not None
        )


def resolve_call(program: Program, owner: str, name: str, descriptor: str) -> MethodIR | None:
    """Resolve by exact match, then along the loaded superclass chain.

    Returns the declaring method only when it has a body; dispatch fans
    out to a single target (the static receiver type), never to subclasses.
    """
    seen: set[str] = set()
    current: str | None = owner
    while current and current not in seen:
        seen.add(current)
        cls = program.index.get(current)
        if cls is None:
            return None
        for m in cls.methods:
            if m.name == name and m.descriptor == descriptor:
                return m if m.has_body else None
        current = cls.super_name
    return None


def build_call_graph(program: Program) -> CallGraph:
    """Resolve each distinct method reference once; unresolved callees are data."""
    targets: dict[MethodRef, tuple[str, bool]] = {}
    callers: dict[str, set[str]] = {}
    for method in program.methods():
        caller = method.signature
        for ins in method.instructions:
            ref = ins.method_ref  # set on an invoke only
            if ref is None:
                continue
            target = targets.get(ref)
            if target is None:
                found = resolve_call(program, ref.owner, ref.name, ref.descriptor)
                target = targets[ref] = (
                    (found.signature, True) if found is not None else (ref.signature, False)
                )
            if target[1]:
                callers.setdefault(target[0], set()).add(caller)
    return CallGraph(
        program, targets, {callee: tuple(sorted(c)) for callee, c in callers.items()}
    )


class CFGMap(Mapping[str, CFG]):
    """CFGs of the methods with a body, keyed by signature, each built on
    first lookup. ``methods`` holds the bodies, for code that needs no CFG.
    Concurrent first lookups of a method all get the same CFG."""

    def __init__(self, methods: dict[str, MethodIR]):
        self.methods = methods
        self._built: dict[str, CFG] = {}

    def __getitem__(self, sig: str) -> CFG:
        cfg = self._built.get(sig)
        return cfg if cfg is not None else self._built.setdefault(sig, build_cfg(self.methods[sig]))

    def __contains__(self, sig: object) -> bool:
        return sig in self.methods

    def __iter__(self) -> Iterator[str]:
        return iter(self.methods)

    def __len__(self) -> int:
        return len(self.methods)


def build_cfgs(program: Program) -> CFGMap:
    """CFGs for every method with a body, keyed by signature, built lazily."""
    return CFGMap({m.signature: m for m in program.methods() if m.has_body})


def cfg_to_dot(cfg: CFG) -> str:
    lines = ["digraph cfg {", '  node [shape=box, fontname="monospace"];']
    for bid, block in enumerate(cfg.blocks):
        body = "\\l".join(f"{i}: {cfg.method.instructions[i].opcode.value}" for i in block)
        lines.append(f'  b{bid} [label="B{bid}\\l{body}\\l"];')
    for src, dst, kind in cfg.edges:
        lines.append(f'  b{src} -> b{dst} [label="{kind.value}"];')
    lines.append("}")
    return "\n".join(lines)


def call_graph_to_dot(graph: CallGraph) -> str:
    lines = ["digraph calls {", "  node [shape=box];"]
    names: dict[str, str] = {}

    def nid(sig: str) -> str:
        if sig not in names:
            names[sig] = f"n{len(names)}"
            lines.append(f'  {names[sig]} [label="{sig}"];')
        return names[sig]

    for e in graph.edges:
        style = "solid" if e.resolved else "dashed"
        lines.append(f"  {nid(e.caller)} -> {nid(e.callee)} [style={style}];")
    lines.append("}")
    return "\n".join(lines)
