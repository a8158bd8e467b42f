"""Control-flow graphs, the whole-program call graph and postdominators."""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat

from .ir import IF_OPCODES, INVOKE_OPCODES, MethodIR, MethodRef, Opcode, Program, written_register

# synthetic exit node joining all return blocks
EXIT = -1

# the definition site CFG.defs reports for method entry
ENTRY_DEF = -1


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
    strings read ``feeding`` and ``literals``, the one backward query
    through moves.
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
            found = memo[(start, register)] = frozenset(defs)
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
    leaders = {0}
    for ins in instructions:
        if ins.branch_target is not None:
            leaders.add(ins.branch_target)
            if ins.index + 1 < n:
                leaders.add(ins.index + 1)
        elif ins.is_return() and ins.index + 1 < n:
            leaders.add(ins.index + 1)
    for ins in instructions:
        if ins.branch_target is not None and not 0 <= ins.branch_target < n:
            raise RuntimeError(
                f"internal: {method.signature} branch target {ins.branch_target} "
                f"outside body (frontend should have rejected this)"
            )
    starts = sorted(leaders)
    blocks = tuple(map(range, starts, [*starts[1:], n]))
    block_of = tuple(chain.from_iterable(repeat(bid, len(b)) for bid, b in enumerate(blocks)))

    # a branch target starts its block, and the next block starts right
    # after the last instruction of this one
    edges: list[tuple[int, int, EdgeKind]] = []
    for bid, b in enumerate(blocks):
        last = instructions[b.stop - 1]
        if last.opcode is Opcode.GOTO:
            edges.append((bid, block_of[last.branch_target], EdgeKind.GOTO))
        elif last.opcode in IF_OPCODES:
            edges.append((bid, block_of[last.branch_target], EdgeKind.BRANCH_TAKEN))
            if b.stop < n:
                edges.append((bid, bid + 1, EdgeKind.FALLTHROUGH))
        elif not last.is_return() and b.stop < n:
            edges.append((bid, bid + 1, EdgeKind.FALLTHROUGH))
    succ: list[list[int]] = [[] for _ in blocks]
    pred: list[list[int]] = [[] for _ in blocks]
    for src, dst, _ in edges:
        succ[src].append(dst)
        pred[dst].append(src)
    paired: list[int | None] = [None] * n
    for ins in instructions:
        i = ins.index - 1
        if ins.opcode is Opcode.MOVE_RESULT and i >= 0 and instructions[i].opcode in INVOKE_OPCODES:
            paired[i], paired[ins.index] = ins.index, i
    return CFG(
        method=method,
        blocks=blocks,
        edges=tuple(edges),
        succ=tuple(tuple(sorted(s)) for s in succ),
        pred=tuple(map(tuple, pred)),  # edges come in ascending source order
        block_of=block_of,
        writes=tuple(map(written_register, instructions)),
        paired=tuple(paired),
        has_const_string=any(i.opcode is Opcode.CONST_STRING for i in instructions),
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


@dataclass
class CallGraph:
    edges: tuple[CallEdge, ...]

    def __post_init__(self) -> None:
        self._out: dict[str, dict[int, CallEdge]] = {}
        self._in: dict[str, list[CallEdge]] = {}
        for e in self.edges:
            self._out.setdefault(e.caller, {}).setdefault(e.call_index, e)
            self._in.setdefault(e.callee, []).append(e)

    def edge_at(self, caller: str, call_index: int) -> CallEdge | None:
        """The edge of the invoke at `call_index` in `caller`, if any."""
        return self._out.get(caller, {}).get(call_index)

    def callers_of(self, signature: str) -> list[CallEdge]:
        return self._in.get(signature, [])


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
    """One edge per invoke instruction; unresolved callees are data."""
    edges: list[CallEdge] = []
    callees: dict[MethodRef, tuple[str, bool]] = {}  # each distinct ref resolved once
    for cls in program.classes:
        for method in cls.methods:
            caller = method.signature
            for ins in method.instructions:
                if ins.opcode not in INVOKE_OPCODES:
                    continue
                ref = ins.method_ref
                assert ref is not None
                callee = callees.get(ref)
                if callee is None:
                    target = resolve_call(program, ref.owner, ref.name, ref.descriptor)
                    callee = callees[ref] = (
                        (target.signature, True) if target is not None else (ref.signature, False)
                    )
                edges.append(CallEdge(caller, ins.index, *callee))
    return CallGraph(edges=tuple(edges))


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
    for bid in range(len(cfg.blocks)):
        body = "\\l".join(f"{i.index}: {i.opcode.value}" for i in cfg.instructions_of(bid))
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
