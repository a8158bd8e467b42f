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
    taint: TaintResult, sig: str, invoke: Instruction, index: int
) -> OperandSide | None:
    if not invoke.operands:
        return None
    receiver_tainted = taint.tainted(sig, index, invoke.operands[0])
    argument_tainted = any(taint.tainted(sig, index, r) for r in invoke.operands[1:])
    if receiver_tainted and argument_tainted:
        return OperandSide.BOTH
    if receiver_tainted:
        return OperandSide.RECEIVER
    if argument_tainted:
        return OperandSide.ARGUMENT
    return None


def find_guard_sites(taint: TaintResult, cfg: CFG) -> list[GuardSite]:
    """Branches of one method whose condition depends on device information.

    A site is either an if on a register holding the boolean of a string
    comparison with a tainted operand, or an if directly on a tainted
    register (reference_eq). The comparison form wins when both apply.
    """
    method = cfg.method
    sig = method.signature
    sites: list[GuardSite] = []
    for index, ins in enumerate(method.instructions):
        if ins.opcode not in IF_OPCODES:
            continue
        site = None
        for reg in ins.operands:
            for d in sorted(x for x in cfg.feeding(index, reg) if x >= 0):
                invoke_index = cfg.paired[d]  # a definition paired is a move-result
                if invoke_index is None:
                    continue
                cmp = _comparison_invoke(method, invoke_index)
                if cmp is None:
                    continue
                kind, invoke = cmp
                side = _tainted_side(taint, sig, invoke, invoke_index)
                if side is None:
                    continue
                site = GuardSite(
                    method=sig,
                    branch_instruction=index,
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
                if taint.tainted(sig, index, reg):
                    side = OperandSide.RECEIVER if pos == 0 else OperandSide.ARGUMENT
                    site = GuardSite(
                        method=sig,
                        branch_instruction=index,
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
    the condition register and the comparison's operands, each asked once,
    where a paired move-result adds its invoke and queues the invoke's
    operands. Every literal comes from a const-string, so a method without
    one yields none.
    """
    if not cfg.has_const_string:
        return []
    code = cfg.method.instructions
    const_string = Opcode.CONST_STRING
    call = site.comparison_call
    operands = [] if call is None else [(call, arg) for arg in code[call].operands]
    work = [(site.branch_instruction, site.condition_register), *operands]
    answers: dict[tuple[int, int], frozenset[int]] = {}
    chain = {site.branch_instruction}
    while work:
        query = work.pop()
        if query in answers:
            continue
        answers[query] = feeding = cfg.feeding(*query) - {ENTRY_DEF}
        chain |= feeding
        for d in feeding:
            inv = cfg.paired[d]  # a definition paired is a move-result
            if inv is not None:
                chain.add(inv)
                work += [(inv, arg) for arg in code[inv].operands]

    # the operands' literals first, then those of the chain's blocks
    found = [d for query in operands for d in sorted(answers[query])]
    found += [i for b in sorted({cfg.block_of[d] for d in chain}) for i in cfg.blocks[b]]
    return list(dict.fromkeys(code[i].literal or "" for i in found if code[i].opcode is const_string))


def confirm_device_guard(
    site: GuardSite,
    strings: list[str],
    db: DeviceInfoDB,
    memo: dict[str, list[IdentifierMatch]] | None = None,
) -> DeviceGuard | None:
    """Promote a site to a DeviceGuard when a guard string names a device.

    ``memo`` maps the strings already matched against ``db`` to their
    matches; a string missing from it is matched and added.
    """
    memo = {} if memo is None else memo
    matches: list[IdentifierMatch] = []
    seen: set[IdentifierMatch] = set()
    for s in strings:
        if not s:
            continue
        found = memo.get(s)
        if found is None:
            found = memo[s] = match_identifier(s, db)
        for m in found:
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

    # enum members read once: each read of one costs a class attribute lookup
    const_string, new_instance = Opcode.CONST_STRING, Opcode.NEW_INSTANCE
    field_reads = (Opcode.SGET_OBJECT, Opcode.IGET_OBJECT)
    target = call_graph.target

    def scan(instructions) -> list[str]:
        new_callees = []
        for ins in instructions:
            op = ins.opcode
            if op is const_string:
                literals.append(ins.literal or "")
            elif op is new_instance and ins.type_ref:
                types.append(descriptor_to_dotted(ins.type_ref))
            elif op in field_reads:
                if ins.field_ref:
                    types.append(descriptor_to_dotted(ins.field_ref.owner))
            elif op in INVOKE_OPCODES and ins.method_ref:
                ref = ins.method_ref
                invoked_names.append(f"{descriptor_to_dotted(ref.owner)}.{ref.name}")
                callee, resolved = target(ref)
                if resolved:
                    new_callees.append(callee)
                else:
                    system.add(callee)  # the reference's own signature
        return new_callees

    work = deque(scan(region_instructions))
    while work:
        callee = work.popleft()
        if callee in reachable:
            continue
        reachable.add(callee)
        if callee in cfgs.methods:
            work.extend(scan(cfgs.methods[callee].instructions))

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
    method at a time. A method with no tainted register is skipped before
    its CFG is built. Each distinct guard string is matched against ``db``
    once per call."""
    guards: list[DeviceGuard] = []
    matched: dict[str, list[IdentifierMatch]] = {}
    for sig in sorted(s for s in cfgs if taint.tainted_in(s)):
        cfg = cfgs[sig]
        for site in find_guard_sites(taint, cfg):
            strings = collect_guard_strings(site, cfg)
            guard = confirm_device_guard(site, strings, db, matched)
            if guard is not None:
                guards.append(guard)
    return guards
