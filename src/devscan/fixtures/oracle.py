"""Brute-force reference interpreter for the taint contract.

Independent of the dataflow engine: it enumerates instruction-level paths
(each control edge taken at most twice, so loops unroll twice) and pushes
origin marks through register copies, parameter passing, library returns
and callee returns until the cross-method tables stabilize. Meant for
fixture-sized programs only.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs import resolve_call
from ..ir import INVOKE_OPCODES, MethodIR, Opcode, Program
from ..taint import DeviceInfoSource, SourceKind

Marks = frozenset[int]
EMPTY: Marks = frozenset()


class OracleLimitError(RuntimeError):
    pass


def _successor_indices(method: MethodIR, i: int) -> list[int]:
    ins = method.instructions[i]
    if ins.opcode is Opcode.GOTO:
        return [ins.branch_target]
    if ins.branch_target is not None:
        out = [ins.branch_target]
        if i + 1 < len(method.instructions):
            out.append(i + 1)
        return out
    if ins.is_return():
        return []
    if i + 1 < len(method.instructions):
        return [i + 1]
    return []


def _enumerate_paths(method: MethodIR, max_paths: int) -> list[list[int]]:
    """All entry paths with every control edge traversed at most twice."""
    paths: list[list[int]] = []

    def walk(i: int, path: list[int], edge_counts: dict[tuple[int, int], int]) -> None:
        if len(paths) > max_paths:
            raise OracleLimitError(
                f"{method.signature}: more than {max_paths} paths"
            )
        path.append(i)
        succs = _successor_indices(method, i)
        extended = False
        for s in succs:
            edge = (i, s)
            if edge_counts.get(edge, 0) >= 2:
                continue
            edge_counts[edge] = edge_counts.get(edge, 0) + 1
            walk(s, path, edge_counts)
            edge_counts[edge] -= 1
            extended = True
        if not extended:
            paths.append(list(path))
        path.pop()

    if method.instructions:
        walk(0, [], {})
    return paths


@dataclass
class _Tables:
    param_taint: dict[str, dict[int, set[int]]]
    return_taint: dict[str, set[int]]

    def snapshot(self) -> tuple:
        return (
            {sig: {r: frozenset(m) for r, m in regs.items()} for sig, regs in self.param_taint.items()},
            {sig: frozenset(m) for sig, m in self.return_taint.items()},
        )


class _Simulator:
    def __init__(self, program: Program, sources: list[DeviceInfoSource]):
        self.program = program
        self.sget_sources: dict[tuple[str, int], int] = {}
        self.invoke_sources: dict[tuple[str, int], int] = {}
        for idx, src in enumerate(sources):
            key = (src.method, src.index)
            if src.kind is SourceKind.BUILD_FIELD_READ:
                self.sget_sources[key] = idx
            else:
                self.invoke_sources[key] = idx
        self.tables = _Tables(param_taint={}, return_taint={})

    def run_path(
        self,
        method: MethodIR,
        path: list[int],
        record: dict[int, set[int]] | None,
    ) -> None:
        sig = method.signature
        regs: dict[int, Marks] = dict(
            (r, frozenset(m))
            for r, m in self.tables.param_taint.get(sig, {}).items()
        )
        pending: Marks = EMPTY
        pending_valid = False
        for i in path:
            if record is not None:
                tainted = record.setdefault(i, set())
                for r, m in regs.items():
                    if m:
                        tainted.add(r)
            ins = method.instructions[i]
            op = ins.opcode
            if op is Opcode.MOVE_RESULT:
                regs[ins.operands[0]] = pending if pending_valid else EMPTY
                pending_valid = False
                continue
            if op in INVOKE_OPCODES:
                pending = self._invoke(sig, i, ins, regs)
                pending_valid = True
                continue
            pending_valid = False  # a move-result reads only the instruction right before it
            if op is Opcode.CONST_STRING or op is Opcode.NEW_INSTANCE:
                regs[ins.operands[0]] = EMPTY
            elif op is Opcode.SGET_OBJECT:
                origin = self.sget_sources.get((sig, i))
                regs[ins.operands[0]] = frozenset([origin]) if origin is not None else EMPTY
            elif op is Opcode.IGET_OBJECT:
                regs[ins.operands[0]] = EMPTY
            elif op is Opcode.MOVE:
                regs[ins.operands[0]] = regs.get(ins.operands[1], EMPTY)
            elif op in (Opcode.RETURN_OBJECT, Opcode.RETURN_VALUE):
                marks = regs.get(ins.operands[0], EMPTY)
                if marks:
                    self.tables.return_taint.setdefault(sig, set()).update(marks)

    def _invoke(self, sig: str, i: int, ins, regs: dict[int, Marks]) -> Marks:
        result: set[int] = set()
        origin = self.invoke_sources.get((sig, i))
        if origin is not None:
            result.add(origin)
        ref = ins.method_ref
        callee = resolve_call(self.program, ref.owner, ref.name, ref.descriptor)
        if callee is not None:
            base = callee.registers - len(ins.operands)
            if base >= 0:
                for word, arg in enumerate(ins.operands):
                    marks = regs.get(arg, EMPTY)
                    if marks:
                        self.tables.param_taint.setdefault(
                            callee.signature, {}
                        ).setdefault(base + word, set()).update(marks)
            result.update(self.tables.return_taint.get(callee.signature, set()))
        else:
            for arg in ins.operands:
                result.update(regs.get(arg, EMPTY))
        return frozenset(result)


def oracle_interpret(
    program: Program,
    sources: list[DeviceInfoSource],
    max_paths: int = 20000,
) -> dict[str, dict[int, frozenset[int]]]:
    """Tainted-register sets per program point, by exhaustive simulation.

    A program point is the state immediately before an instruction runs.
    """
    methods = [m for m in program.methods() if m.has_body]
    paths = {m.signature: _enumerate_paths(m, max_paths) for m in methods}
    sim = _Simulator(program, sources)

    rounds = 0
    # params flow down and returns flow up; each direction needs at most one
    # round per call-depth level
    max_rounds = 2 * len(methods) + 4
    while True:
        before = sim.tables.snapshot()
        for m in methods:
            for path in paths[m.signature]:
                sim.run_path(m, path, record=None)
        rounds += 1
        if sim.tables.snapshot() == before:
            break
        if rounds > max_rounds:
            raise OracleLimitError("cross-method tables failed to stabilize")

    result: dict[str, dict[int, frozenset[int]]] = {}
    for m in methods:
        record: dict[int, set[int]] = {i: set() for i in range(len(m.instructions))}
        for path in paths[m.signature]:
            sim.run_path(m, path, record=record)
        result[m.signature] = {i: frozenset(s) for i, s in record.items()}
    return result
