"""Confirmation of device-conditioned branches and extraction of the code
regions they control."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .devicedb import DeviceInfoDB, IdentifierMatch, match_identifier
from .graphs import CFG, ENTRY_DEF, CallGraph, CFGMap, immediate_postdominators
from .ir import (
    IF_OPCODES,
    INVOKE_OPCODES,
    Instruction,
    MethodIR,
    Opcode,
    descriptor_to_dotted,
    package_of,
)
from .taint import TaintResult


class ComparisonKind(str, Enum):
    STRING_EQUALS = "string_equals"
    EQUALS_IGNORE_CASE = "equals_ignore_case"
    STARTS_WITH = "starts_with"
    ENDS_WITH = "ends_with"
    CONTAINS = "contains"
    COMPARE_TO = "compare_to"
    REFERENCE_EQ = "reference_eq"


class OperandSide(str, Enum):
    RECEIVER = "receiver"
    ARGUMENT = "argument"
    BOTH = "both"


class Arm(str, Enum):
    TAKEN = "taken"
    FALLTHROUGH = "fallthrough"
    UNKNOWN = "unknown"


_COMPARISON_NAMES = {
    "equals": ComparisonKind.STRING_EQUALS,
    "equalsIgnoreCase": ComparisonKind.EQUALS_IGNORE_CASE,
    "startsWith": ComparisonKind.STARTS_WITH,
    "endsWith": ComparisonKind.ENDS_WITH,
    "contains": ComparisonKind.CONTAINS,
    "compareTo": ComparisonKind.COMPARE_TO,
}
_STRINGY_OWNERS = {"Ljava/lang/String;", "Ljava/lang/CharSequence;"}
# static equality helpers; their first argument stands for the receiver.
# Kotlin's StringsKt.equals(a, b, ignoreCase) is left out: its flag is a
# lowered const/4, so equals and equalsIgnoreCase cannot be told apart.
_EQUALS_HELPERS = {
    ("Landroid/text/TextUtils;", "equals"),
    ("Lkotlin/jvm/internal/Intrinsics;", "areEqual"),
}


@dataclass(frozen=True)
class GuardSite:
    method: str
    branch_instruction: int
    comparison: ComparisonKind
    tainted_operand_side: OperandSide
    condition_register: int
    comparison_call: int | None = None  # invoke index for call-based sites

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "index": self.branch_instruction,
            "comparison": self.comparison.value,
            "tainted_operand_side": self.tainted_operand_side.value,
            "condition_register": self.condition_register,
        }


@dataclass(frozen=True)
class DeviceGuard:
    site: GuardSite
    identifiers: tuple[IdentifierMatch, ...]
    guard_strings: tuple[str, ...]


@dataclass(frozen=True)
class BehaviorSnippet:
    guard: DeviceGuard
    region: dict[str, tuple[tuple[int, int], ...]]  # arm -> block index ranges
    reachable_methods: frozenset[str]
    invoked_system_methods: frozenset[str]
    package_names: frozenset[str]
    matched_arm: Arm = Arm.UNKNOWN
    truncated: bool = False
    # flattened text of the region used by keyword classification
    region_literals: tuple[str, ...] = ()
    invoked_names: tuple[str, ...] = ()
    referenced_types: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "guard": self.site_json(),
            "identifiers": [
                {
                    "matched_text": m.matched_text,
                    "kind": m.kind,
                    "db_entry": m.db_entry,
                    "match_mode": m.match_mode,
                }
                for m in self.guard.identifiers
            ],
            "guard_strings": list(self.guard.guard_strings),
            "region": {
                "method": self.guard.site.method,
                **{arm: [list(r) for r in ranges] for arm, ranges in self.region.items()},
            },
            "matched_arm": self.matched_arm.value,
            "reachable_methods": sorted(self.reachable_methods),
            "invoked_system_methods": sorted(self.invoked_system_methods),
            "package_names": sorted(self.package_names),
            "truncated": self.truncated,
        }

    def site_json(self) -> dict:
        return self.guard.site.to_json_dict()


def _comparison_invoke(method: MethodIR, index: int) -> tuple[ComparisonKind, Instruction] | None:
    ins = method.instructions[index]
    if ins.opcode not in INVOKE_OPCODES or ins.method_ref is None:
        return None
    ref = ins.method_ref
    if (ref.owner, ref.name) in _EQUALS_HELPERS:
        return ComparisonKind.STRING_EQUALS, ins
    kind = _COMPARISON_NAMES.get(ref.name)
    if kind is None or ref.owner not in _STRINGY_OWNERS:
        return None
    return kind, ins


def _tainted_side(
    taint: TaintResult, sig: str, invoke: Instruction
) -> OperandSide | None:
    if not invoke.operands:
        return None
    receiver_tainted = taint.tainted(sig, invoke.index, invoke.operands[0])
    argument_tainted = any(taint.tainted(sig, invoke.index, r) for r in invoke.operands[1:])
    if receiver_tainted and argument_tainted:
        return OperandSide.BOTH
    if receiver_tainted:
        return OperandSide.RECEIVER
    if argument_tainted:
        return OperandSide.ARGUMENT
    return None


def _may_hold_sites(taint: TaintResult, sig: str, cfg: CFG) -> bool:
    # every site needs an if, and an if or string comparison reading taint
    m = cfg.method
    reads = [i for i in m.instructions if i.opcode in IF_OPCODES or _comparison_invoke(m, i.index)]
    return any(i.opcode in IF_OPCODES for i in reads) and any(
        taint.tainted(sig, i.index, r) for i in reads for r in i.operands
    )


def find_guard_sites(taint: TaintResult, cfg: CFG) -> list[GuardSite]:
    """Branches of one method whose condition depends on device information.

    A site is either an if on a register holding the boolean of a string
    comparison with a tainted operand, or an if directly on a tainted
    register (reference_eq). The comparison form wins when both apply.
    """
    method = cfg.method
    sig = method.signature
    sites: list[GuardSite] = []
    for ins in method.instructions:
        if ins.opcode not in IF_OPCODES:
            continue
        site = None
        for reg in ins.operands:
            for d in sorted(x for x in cfg.feeding(ins.index, reg) if x >= 0):
                invoke_index = cfg.paired[d]  # a definition paired is a move-result
                if invoke_index is None:
                    continue
                cmp = _comparison_invoke(method, invoke_index)
                if cmp is None:
                    continue
                kind, invoke = cmp
                side = _tainted_side(taint, sig, invoke)
                if side is None:
                    continue
                site = GuardSite(
                    method=sig,
                    branch_instruction=ins.index,
                    comparison=kind,
                    tainted_operand_side=side,
                    condition_register=reg,
                    comparison_call=invoke_index,
                )
                break
            if site:
                break
        if site is None:
            for pos, reg in enumerate(ins.operands):
                if taint.tainted(sig, ins.index, reg):
                    side = OperandSide.RECEIVER if pos == 0 else OperandSide.ARGUMENT
                    site = GuardSite(
                        method=sig,
                        branch_instruction=ins.index,
                        comparison=ComparisonKind.REFERENCE_EQ,
                        tainted_operand_side=side,
                        condition_register=reg,
                    )
                    break
        if site is not None:
            sites.append(site)
    return sites


def collect_guard_strings(site: GuardSite, cfg: CFG) -> list[str]:
    """Const-strings semantically tied to the guard's condition.

    Collects literals flowing into the comparison call's operands, then
    every literal in the site's basic block or in a block holding a
    definition on the chain: one worklist of ``cfg.feeding`` queries from
    the condition register and the comparison's operands, where a paired
    move-result adds its invoke and queues the invoke's operands. Every
    literal comes from a const-string, so a method without one yields none.
    """
    if not cfg.has_const_string:
        return []
    method = cfg.method
    out: list[str] = []
    seen: set[str] = set()

    def add(lit: str) -> None:
        if lit not in seen:
            seen.add(lit)
            out.append(lit)

    work = [(site.branch_instruction, site.condition_register)]
    if site.comparison_call is not None:
        invoke = method.instructions[site.comparison_call]
        for arg in invoke.operands:
            for lit in cfg.literals(invoke.index, arg):
                add(lit)
            work.append((invoke.index, arg))
    chain_defs: set[int] = set()
    asked: set[tuple[int, int]] = set()
    while work:
        query = work.pop()
        if query in asked:
            continue
        asked.add(query)
        for d in cfg.feeding(*query) - {ENTRY_DEF}:
            chain_defs.add(d)
            inv = cfg.paired[d]  # a definition paired is a move-result
            if inv is not None and inv not in chain_defs:
                chain_defs.add(inv)
                work += [(inv, arg) for arg in method.instructions[inv].operands]

    blocks = {cfg.block_of[site.branch_instruction]}
    blocks |= {cfg.block_of[d] for d in chain_defs}
    for bid in sorted(blocks):
        for ins in cfg.instructions_of(bid):
            if ins.opcode is Opcode.CONST_STRING:
                add(ins.literal or "")
    return out


def confirm_device_guard(
    site: GuardSite, strings: list[str], db: DeviceInfoDB
) -> DeviceGuard | None:
    """Promote a site to a DeviceGuard when a guard string names a device."""
    matches: list[IdentifierMatch] = []
    seen: set[IdentifierMatch] = set()
    for s in strings:
        if not s:
            continue
        for m in match_identifier(s, db):
            if m not in seen:
                seen.add(m)
                matches.append(m)
    if not matches:
        return None
    return DeviceGuard(site=site, identifiers=tuple(matches), guard_strings=tuple(strings))


def _matched_arm(site: GuardSite, method: MethodIR) -> Arm:
    branch = method.instructions[site.branch_instruction]
    if branch.opcode not in (Opcode.IF_EQZ, Opcode.IF_NEZ):
        return Arm.UNKNOWN
    if site.comparison is ComparisonKind.REFERENCE_EQ:
        return Arm.UNKNOWN
    # boolean comparisons: nonzero means the relation holds;
    # compareTo: zero means equal
    holds_when_nonzero = site.comparison is not ComparisonKind.COMPARE_TO
    taken_on_nonzero = branch.opcode is Opcode.IF_NEZ
    return Arm.TAKEN if taken_on_nonzero == holds_when_nonzero else Arm.FALLTHROUGH


def _arm_blocks(cfg: CFG, cond_block: int, entry: int, stop: int) -> set[int]:
    if entry == stop:
        return set()
    seen = {entry}
    work = [entry]
    while work:
        cur = work.pop()
        for succ in cfg.succ[cur]:
            if succ == stop or succ == cond_block or succ in seen:
                continue
            seen.add(succ)
            work.append(succ)
    return seen


def extract_region(
    guard: DeviceGuard,
    cfgs: CFGMap,
    call_graph: CallGraph,
) -> BehaviorSnippet:
    """Extract both branch arms plus transitively reachable callees.

    An arm is the set of blocks reachable from its branch edge without
    passing the condition block's immediate postdominator; blocks shared by
    both arms are treated as common continuation and dropped from each.
    Called methods with bodies, those in ``cfgs.methods``, are followed to a
    fixpoint; unresolved callees accumulate as system methods.
    """
    site = guard.site
    cfg = cfgs[site.method]
    method = cfg.method
    branch = method.instructions[site.branch_instruction]
    cond_block = cfg.block_of[site.branch_instruction]
    ipdom = immediate_postdominators(cfg)[cond_block]

    taken_entry = cfg.block_of[branch.branch_target]
    taken = _arm_blocks(cfg, cond_block, taken_entry, ipdom)
    fall_index = site.branch_instruction + 1
    if fall_index < len(method.instructions):
        fall_entry = cfg.block_of[fall_index]
        fallthrough = _arm_blocks(cfg, cond_block, fall_entry, ipdom)
    else:
        fallthrough = set()
    shared = taken & fallthrough
    taken -= shared
    fallthrough -= shared

    # each block as its first and last instruction index
    region = {
        arm.value: tuple((cfg.blocks[b][0], cfg.blocks[b][-1]) for b in sorted(bids))
        for arm, bids in ((Arm.TAKEN, taken), (Arm.FALLTHROUGH, fallthrough))
    }

    region_instructions: list[Instruction] = []
    for b in sorted(taken | fallthrough):
        region_instructions.extend(cfg.instructions_of(b))

    reachable: set[str] = set()
    system: set[str] = set()
    literals: list[str] = []
    invoked_names: list[str] = []
    types: list[str] = []

    def scan(instructions, owner_sig: str) -> list[str]:
        new_callees = []
        for ins in instructions:
            if ins.opcode is Opcode.CONST_STRING:
                literals.append(ins.literal or "")
            elif ins.opcode is Opcode.NEW_INSTANCE and ins.type_ref:
                types.append(descriptor_to_dotted(ins.type_ref))
            elif ins.opcode is Opcode.SGET_OBJECT or ins.opcode is Opcode.IGET_OBJECT:
                if ins.field_ref:
                    types.append(descriptor_to_dotted(ins.field_ref.owner))
            elif ins.opcode in INVOKE_OPCODES and ins.method_ref:
                edge = call_graph.edge_at(owner_sig, ins.index)
                ref = ins.method_ref
                invoked_names.append(f"{descriptor_to_dotted(ref.owner)}.{ref.name}")
                if edge is not None and edge.resolved:
                    new_callees.append(edge.callee)
                else:
                    system.add(ref.signature)
        return new_callees

    work = deque(scan(region_instructions, site.method))
    while work:
        callee = work.popleft()
        if callee in reachable:
            continue
        reachable.add(callee)
        if callee in cfgs.methods:
            work.extend(scan(cfgs.methods[callee].instructions, callee))

    packages = {package_of(method.owner)}
    packages.update(package_of(sig.split("->", 1)[0]) for sig in reachable)
    packages.discard("")

    return BehaviorSnippet(
        guard=guard,
        region=region,
        reachable_methods=frozenset(reachable),
        invoked_system_methods=frozenset(system),
        package_names=frozenset(packages),
        matched_arm=_matched_arm(site, method),
        region_literals=tuple(literals),
        invoked_names=tuple(invoked_names),
        referenced_types=tuple(types),
    )


def find_device_guards(
    taint: TaintResult,
    cfgs: CFGMap,
    db: DeviceInfoDB,
) -> list[DeviceGuard]:
    """find_guard_sites + collect_guard_strings + confirm_device_guard, one
    method at a time. Methods where no if or comparison reads a tainted
    register are skipped, and an untainted one before its CFG is built."""
    guards: list[DeviceGuard] = []
    for sig in sorted(cfgs):
        if not taint.tainted_in(sig) or not _may_hold_sites(taint, sig, cfg := cfgs[sig]):
            continue
        for site in find_guard_sites(taint, cfg):
            strings = collect_guard_strings(site, cfg)
            guard = confirm_device_guard(site, strings, db)
            if guard is not None:
                guards.append(guard)
    return guards
