"""Typed instruction-level IR for disassembled Android classes.

The instruction set is a deliberate subset of Dalvik: string constants,
register moves, invokes, move-result, returns, equality branches, goto,
object field reads, new-instance and nop. Everything else is lowered to
``nop`` by the frontend. :data:`SHAPES` gives each opcode's operands, and
the decoder, the printer, the validator and the register helpers read it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple


class Opcode(Enum):
    CONST_STRING = "const-string"
    MOVE = "move"
    INVOKE_VIRTUAL = "invoke-virtual"
    INVOKE_STATIC = "invoke-static"
    INVOKE_DIRECT = "invoke-direct"
    INVOKE_INTERFACE = "invoke-interface"
    MOVE_RESULT = "move-result"
    RETURN_VOID = "return-void"
    RETURN_OBJECT = "return-object"
    RETURN_VALUE = "return"
    IF_EQZ = "if-eqz"
    IF_NEZ = "if-nez"
    IF_EQ = "if-eq"
    IF_NE = "if-ne"
    GOTO = "goto"
    SGET_OBJECT = "sget-object"
    IGET_OBJECT = "iget-object"
    NEW_INSTANCE = "new-instance"
    NOP = "nop"

    # members are singletons, so identity hashing agrees with Enum's
    # equality and skips its Python-level hash of the member name
    __hash__ = object.__hash__


INVOKE_OPCODES = frozenset({
    Opcode.INVOKE_VIRTUAL,
    Opcode.INVOKE_STATIC,
    Opcode.INVOKE_DIRECT,
    Opcode.INVOKE_INTERFACE,
})
IF_OPCODES = frozenset({Opcode.IF_EQZ, Opcode.IF_NEZ, Opcode.IF_EQ, Opcode.IF_NE})
RETURN_OPCODES = frozenset({Opcode.RETURN_VOID, Opcode.RETURN_OBJECT, Opcode.RETURN_VALUE})


class Shape(NamedTuple):
    """What every instruction of one opcode holds and does.

    ``registers`` is the number of register operands, or None for an
    invoke's register list; ``attachment`` is the one ``Instruction`` slot
    besides them the opcode sets (``literal``, ``field_ref``,
    ``method_ref``, ``type_ref`` or ``branch_target``), or None; ``writes``
    says whether the first register is written; ``reads`` slices the
    operands whose values are consumed.
    """

    registers: int | None
    attachment: str | None
    writes: bool
    reads: slice


_NONE, _ALL, _SECOND = slice(0, 0), slice(None), slice(1, 2)
SHAPES: dict[Opcode, Shape] = {
    Opcode.CONST_STRING: Shape(1, "literal", True, _NONE),
    Opcode.MOVE: Shape(2, None, True, _SECOND),
    Opcode.INVOKE_VIRTUAL: Shape(None, "method_ref", False, _ALL),
    Opcode.INVOKE_STATIC: Shape(None, "method_ref", False, _ALL),
    Opcode.INVOKE_DIRECT: Shape(None, "method_ref", False, _ALL),
    Opcode.INVOKE_INTERFACE: Shape(None, "method_ref", False, _ALL),
    Opcode.MOVE_RESULT: Shape(1, None, True, _NONE),
    Opcode.RETURN_VOID: Shape(0, None, False, _NONE),
    Opcode.RETURN_OBJECT: Shape(1, None, False, _ALL),
    Opcode.RETURN_VALUE: Shape(1, None, False, _ALL),
    Opcode.IF_EQZ: Shape(1, "branch_target", False, _ALL),
    Opcode.IF_NEZ: Shape(1, "branch_target", False, _ALL),
    Opcode.IF_EQ: Shape(2, "branch_target", False, _ALL),
    Opcode.IF_NE: Shape(2, "branch_target", False, _ALL),
    Opcode.GOTO: Shape(0, "branch_target", False, _NONE),
    Opcode.SGET_OBJECT: Shape(1, "field_ref", True, _NONE),
    Opcode.IGET_OBJECT: Shape(2, "field_ref", True, _SECOND),
    Opcode.NEW_INSTANCE: Shape(1, "type_ref", True, _NONE),
    Opcode.NOP: Shape(0, None, False, _NONE),
}
_SLOTS = ("literal", "field_ref", "method_ref", "type_ref", "branch_target")
# opcode -> for each of _SLOTS, whether it must be set
_SLOT_SHAPES = {
    op: tuple(slot == shape.attachment for slot in _SLOTS) for op, shape in SHAPES.items()
}


class IRError(ValueError):
    """Structurally invalid IR."""


@dataclass(frozen=True, slots=True)
class FieldRef:
    owner: str
    name: str
    type_desc: str

    def __str__(self) -> str:
        return f"{self.owner}->{self.name}:{self.type_desc}"


@dataclass(frozen=True, slots=True)
class MethodRef:
    owner: str
    name: str
    descriptor: str

    @property
    def signature(self) -> str:
        return f"{self.owner}->{self.name}{self.descriptor}"

    def __str__(self) -> str:
        return self.signature


class Instruction(NamedTuple):
    index: int
    opcode: Opcode
    operands: tuple[int, ...] = ()
    literal: str | None = None
    field_ref: FieldRef | None = None
    method_ref: MethodRef | None = None
    type_ref: str | None = None
    branch_target: int | None = None

    def is_return(self) -> bool:
        return self.opcode in RETURN_OPCODES


def validate_instruction(ins: Instruction) -> None:
    """Check that exactly the operand slots required by the opcode are set."""
    regs, needed, _, _ = SHAPES[ins.opcode]
    # one comparison settles a valid instruction; the checks below word the error
    if (regs is None or len(ins.operands) == regs) and _SLOT_SHAPES[ins.opcode] == (
        ins.literal is not None,
        ins.field_ref is not None,
        ins.method_ref is not None,
        ins.type_ref is not None,
        ins.branch_target is not None,
    ):
        return
    if regs is not None and len(ins.operands) != regs:
        raise IRError(
            f"{ins.opcode.value} at {ins.index}: expected {regs} register "
            f"operands, got {len(ins.operands)}"
        )
    for slot in _SLOTS:
        value = getattr(ins, slot)
        if slot == needed:
            if value is None:
                raise IRError(f"{ins.opcode.value} at {ins.index}: missing {slot}")
        elif value is not None:
            raise IRError(f"{ins.opcode.value} at {ins.index}: unexpected {slot}")


def written_register(ins: Instruction) -> int | None:
    """Register defined by the instruction, if any."""
    return ins.operands[0] if SHAPES[ins.opcode].writes else None


def read_registers(ins: Instruction) -> tuple[int, ...]:
    """Registers whose value the instruction consumes."""
    return ins.operands[SHAPES[ins.opcode].reads]


_TYPE = r"\[*(?:L[^;]+;|[ZBSCIJFD])"
_TYPE_RE = re.compile(_TYPE)
# a parameter's class name ends before the ")" that closes the list
_PARAM_RE = re.compile(r"\[*(?:L[^;)]*;|[ZBSCIJFD])")
_DESCRIPTOR_RE = re.compile(rf"\(((?:{_PARAM_RE.pattern})*)\)(V|{_TYPE})")


def parse_method_descriptor(descriptor: str) -> tuple[tuple[str, ...], str]:
    """Split ``(ILjava/lang/String;)V`` into parameter types and return type."""
    m = _DESCRIPTOR_RE.fullmatch(descriptor)
    if m is None:
        raise IRError(f"bad method descriptor: {descriptor!r}")
    return tuple(_PARAM_RE.findall(m.group(1))), m.group(2)


def is_type_descriptor(desc: str) -> bool:
    """One value type: a class, an array or a primitive other than ``V``."""
    return _TYPE_RE.fullmatch(desc) is not None


def type_words(type_desc: str) -> int:
    """Register words a value of this type occupies (wide types take 2)."""
    return 2 if type_desc in ("J", "D") else 1


def descriptor_to_dotted(desc: str) -> str:
    """``Lcom/app/Foo;`` -> ``com.app.Foo``; other descriptors unchanged."""
    if desc.startswith("L") and desc.endswith(";"):
        return desc[1:-1].replace("/", ".")
    return desc


def is_class_descriptor(desc: str) -> bool:
    return len(desc) >= 3 and desc.startswith("L") and desc.endswith(";")


def package_of(class_descriptor: str) -> str:
    """``Lcom/app/Foo;`` -> ``com.app``; ``""`` for a class in no package."""
    dotted = descriptor_to_dotted(class_descriptor)
    return dotted.rsplit(".", 1)[0] if "." in dotted else ""


@dataclass
class MethodIR:
    owner: str
    name: str
    descriptor: str
    registers: int
    instructions: tuple[Instruction, ...]
    is_abstract_or_native: bool = False
    is_static: bool = False
    lowered_count: int = 0

    @property
    def signature(self) -> str:
        return f"{self.owner}->{self.name}{self.descriptor}"

    @property
    def has_body(self) -> bool:
        return not self.is_abstract_or_native and bool(self.instructions)

    def param_word_count(self) -> int:
        params, _ = parse_method_descriptor(self.descriptor)
        words = 0 if self.is_static else 1
        return words + sum(type_words(p) for p in params)

    def param_registers(self) -> tuple[int, ...]:
        """Registers holding parameters on entry (p0..pN mapped to vN)."""
        words = self.param_word_count()
        return tuple(range(self.registers - words, self.registers))

    def validate(self) -> None:
        if self.is_abstract_or_native and self.instructions:
            raise IRError(f"{self.signature}: abstract/native method with a body")
        for i, ins in enumerate(self.instructions):
            if ins.index != i:
                raise IRError(f"{self.signature}: instruction indices not dense")
            validate_instruction(ins)
            for reg in ins.operands:
                if not 0 <= reg < self.registers:
                    raise IRError(
                        f"{self.signature}: register v{reg} out of range at {i}"
                    )
            if ins.branch_target is not None and not (
                0 <= ins.branch_target < len(self.instructions)
            ):
                raise IRError(f"{self.signature}: branch target out of range at {i}")


@dataclass
class ClassDef:
    class_name: str
    super_name: str
    methods: tuple[MethodIR, ...]
    fields: tuple[tuple[str, str], ...] = ()

    def validate(self) -> None:
        """Class-level checks; each method is checked by MethodIR.validate."""
        if not is_class_descriptor(self.class_name):
            raise IRError(f"bad class descriptor: {self.class_name!r}")
        seen: set[str] = set()
        for m in self.methods:
            sig = f"{m.name}{m.descriptor}"
            if sig in seen:
                raise IRError(f"{self.class_name}: duplicate method {sig}")
            seen.add(sig)


@dataclass
class Program:
    classes: tuple[ClassDef, ...]
    index: dict[str, ClassDef] = field(init=False)

    def __post_init__(self) -> None:
        self.index = {c.class_name: c for c in self.classes}

    def methods(self):
        for cls in self.classes:
            yield from cls.methods
