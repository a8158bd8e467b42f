"""Parser for smali disassembly, covering the supported instruction subset.

One ``.smali`` file holds one class. Instructions outside the subset that
still look like valid smali are lowered to ``nop`` and counted per method;
debug and annotation directives are skipped. Anything unparseable raises
:class:`SmaliSyntaxError` with the offending line and column.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .ir import (
    INVOKE_OPCODES,
    SHAPES,
    ClassDef,
    FieldRef,
    Instruction,
    IRError,
    MethodIR,
    MethodRef,
    Opcode,
    Program,
    is_type_descriptor,
    parse_method_descriptor,
    type_words,
)


class SmaliSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class ProgramLoadError(ValueError):
    """Nothing loadable; ``diagnostics`` says why each file was dropped."""

    def __init__(self, message: str, diagnostics: list[Diagnostic] | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


# Mnemonics mapped into the subset. Width/range suffixed forms collapse to
# their base semantics; the register list already tells the rest.
_MNEMONIC_ALIASES = {
    "const-string": Opcode.CONST_STRING,
    "const-string/jumbo": Opcode.CONST_STRING,
    "move": Opcode.MOVE,
    "move/from16": Opcode.MOVE,
    "move/16": Opcode.MOVE,
    "move-object": Opcode.MOVE,
    "move-object/from16": Opcode.MOVE,
    "move-object/16": Opcode.MOVE,
    "move-wide": Opcode.MOVE,
    "move-wide/from16": Opcode.MOVE,
    "move-wide/16": Opcode.MOVE,
    "invoke-virtual": Opcode.INVOKE_VIRTUAL,
    "invoke-virtual/range": Opcode.INVOKE_VIRTUAL,
    "invoke-static": Opcode.INVOKE_STATIC,
    "invoke-static/range": Opcode.INVOKE_STATIC,
    "invoke-direct": Opcode.INVOKE_DIRECT,
    "invoke-direct/range": Opcode.INVOKE_DIRECT,
    "invoke-interface": Opcode.INVOKE_INTERFACE,
    "invoke-interface/range": Opcode.INVOKE_INTERFACE,
    "move-result": Opcode.MOVE_RESULT,
    "move-result-object": Opcode.MOVE_RESULT,
    "move-result-wide": Opcode.MOVE_RESULT,
    "return-void": Opcode.RETURN_VOID,
    "return-object": Opcode.RETURN_OBJECT,
    "return": Opcode.RETURN_VALUE,
    "return-wide": Opcode.RETURN_VALUE,
    "if-eqz": Opcode.IF_EQZ,
    "if-nez": Opcode.IF_NEZ,
    "if-eq": Opcode.IF_EQ,
    "if-ne": Opcode.IF_NE,
    "goto": Opcode.GOTO,
    "goto/16": Opcode.GOTO,
    "goto/32": Opcode.GOTO,
    "sget-object": Opcode.SGET_OBJECT,
    "iget-object": Opcode.IGET_OBJECT,
    "new-instance": Opcode.NEW_INSTANCE,
    "nop": Opcode.NOP,
}

# Data/annotation block directives that are safe to skip wholesale.
_SKIPPABLE_BLOCKS = {
    ".annotation": ".end annotation",
    ".subannotation": ".end subannotation",
    ".packed-switch": ".end packed-switch",
    ".sparse-switch": ".end sparse-switch",
    ".array-data": ".end array-data",
}

# Debug/metadata directives that carry no IR content. `.param` annotation
# blocks need no special casing: the inner `.annotation` is block-skipped
# and the stray `.end param` is skipped here.
_SKIPPABLE_LINES = (
    ".line",
    ".prologue",
    ".epilogue",
    ".source",
    ".local",
    ".end local",
    ".restart local",
    ".catch",
    ".catchall",
    ".param",
    ".end param",
    ".end field",
)


def _is_skippable_line(line: str) -> bool:
    return any(line == d or line.startswith(d + " ") for d in _SKIPPABLE_LINES)

_LABEL_RE = re.compile(r"^:[A-Za-z_][A-Za-z0-9_]*$")
_REGISTER_RE = re.compile(r"^[vp]\d+$")
_CLASS_RE = re.compile(r"^L[^;]+;$")
_MNEMONIC_RE = re.compile(r"^[a-z][a-z0-9/.-]*$")
# method names in headers and references alike; `-` appears in D8's
# synthetic accessors such as `-$$Nest$mbrand`
_METHOD_NAME = r"<?[A-Za-z0-9_$\-]+>?"
_METHOD_REF_RE = re.compile(
    rf"^(?P<owner>\[*L[^;]+;)->(?P<name>{_METHOD_NAME}):?(?P<desc>\([^)]*\).+)$"
)
_METHOD_PROTO_RE = re.compile(rf"^({_METHOD_NAME})(\(.*\).+)$")
_CONST_STRING_RE = re.compile(r'^([vp]\d+)\s*,\s*"(.*)"$', re.DOTALL)
_INVOKE_RE = re.compile(r"^\{(.*)\}\s*,\s*(\S+)$")
_FIELD_DIRECTIVE_RE = re.compile(r"^\.field\s+(?:[a-z]+\s+)*([A-Za-z0-9_$]+):(\S+)")
_FIELD_REF_RE = re.compile(
    r"^(?P<owner>\[*L[^;]+;)->(?P<name>[A-Za-z0-9_$]+):(?P<desc>\[*(?:L[^;]+;|[ZBSCIJFD]))$"
)

_ESCAPES = {
    "n": "\n",
    "r": "\r",
    "t": "\t",
    "b": "\b",
    "f": "\f",
    "0": "\0",
    "'": "'",
    '"': '"',
    "\\": "\\",
}


def _unescape(raw: str, line_no: int) -> str:
    out: list[str] = []
    i = 0
    while i < len(raw):
        c = raw[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise SmaliSyntaxError("dangling escape in string literal", line_no)
        nxt = raw[i + 1]
        if nxt == "u":
            if i + 6 > len(raw):
                raise SmaliSyntaxError("bad \\u escape in string literal", line_no)
            try:
                out.append(chr(int(raw[i + 2 : i + 6], 16)))
            except ValueError:
                raise SmaliSyntaxError("bad \\u escape in string literal", line_no)
            i += 6
        elif nxt in _ESCAPES:
            out.append(_ESCAPES[nxt])
            i += 2
        else:
            raise SmaliSyntaxError(f"unknown escape \\{nxt}", line_no)
    return "".join(out)


_PRINTED_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(text: str) -> str:
    out: list[str] = []
    for c in text:
        if c in _PRINTED_ESCAPES:
            out.append(_PRINTED_ESCAPES[c])
        elif ord(c) < 0x20:
            out.append(f"\\u{ord(c):04x}")
        else:
            out.append(c)
    return "".join(out)


def _strip_comment(line: str) -> str:
    # '#' starts a comment unless inside a quoted string
    in_string = False
    i = 0
    while i < len(line):
        c = line[i]
        if c == '"':
            in_string = not in_string
        elif c == "\\" and in_string:
            i += 1  # the escaped character, a quote or backslash included
        elif c == "#" and not in_string:
            return line[:i]
        i += 1
    return line


# one instruction line: (line_no, text, labels); `text` is stripped
_Raw = tuple[int, str, tuple[str, ...]]
# what `_build` decodes from one instruction line: its Instruction, with no
# branch target, the branch's label token, and whether the mnemonic was
# lowered to nop
_Decoded = tuple[Instruction, str | None, bool]
# `.method` header text -> (name, descriptor, is_static,
# is_abstract_or_native, parameter words)
_Header = tuple[str, str, bool, bool, int]


class _DecodeMemo:
    """What one load has decoded, reused wherever the same text recurs.

    Instructions are immutable and hold no position, so a repeated line is
    the first decode's ``Instruction`` object (hash-consing). ``lines`` and
    ``branches`` are keyed by a method's register context ``(registers,
    param_words)``, which decides every register a line names: ``lines``
    maps instruction text to its :data:`_Decoded`, ``branches`` a branch
    line's ``(text, target)`` to its ``Instruction``. ``refs`` maps a method
    reference's text to its one ``MethodRef``, across register contexts,
    and ``strings`` holds one copy of each owner, name and descriptor those
    name; a descriptor is checked once, before it enters ``strings``. Only
    successful decodes are stored, so a bad line is decoded, and rejected,
    wherever it appears.
    """

    __slots__ = ("headers", "lines", "branches", "refs", "strings")

    def __init__(self) -> None:
        self.headers: dict[str, _Header] = {}
        self.lines: dict[tuple[int, int], dict[str, _Decoded]] = {}
        self.branches: dict[tuple[int, int], dict[tuple[str, int], Instruction]] = {}
        self.refs: dict[str, MethodRef] = {}
        self.strings: dict[str, str] = {}

    def method_ref(self, text: str, line_no: int) -> MethodRef:
        ref = self.refs.get(text)
        if ref is None:
            m = _METHOD_REF_RE.match(text)
            if not m:
                raise SmaliSyntaxError(f"malformed method reference {text!r}", line_no)
            strings = self.strings
            # owners and names never start with "(", so a descriptor in `strings` was checked
            if m.group("desc") not in strings:
                try:
                    parse_method_descriptor(m.group("desc"))
                except IRError as exc:
                    raise SmaliSyntaxError(str(exc), line_no)
            ref = self.refs[text] = MethodRef(*[strings.setdefault(g, g) for g in m.groups()])
        return ref


class _MethodParser:
    """Parses one `.method` body into a MethodIR."""

    def __init__(self, owner: str, header: str, line_no: int, memo: _DecodeMemo):
        self.owner = owner
        self.line_no = line_no
        self.memo = memo
        parsed = memo.headers.get(header)
        if parsed is None:
            parsed = memo.headers[header] = _split_method_header(header, line_no)
        (
            self.name,
            self.descriptor,
            self.is_static,
            self.is_abstract_or_native,
            self.param_words,
        ) = parsed
        self.registers: int | None = None
        self.locals: int | None = None
        self.raw: list[_Raw] = []
        self.pending_labels: list[str] = []

    def finish(self, end_line: int) -> MethodIR:
        if self.is_abstract_or_native:
            if self.raw:
                raise SmaliSyntaxError(
                    f"abstract/native method {self.name} has instructions",
                    self.raw[0][0],
                )
            return MethodIR(
                owner=self.owner,
                name=self.name,
                descriptor=self.descriptor,
                registers=self.param_words,
                instructions=(),
                is_abstract_or_native=True,
                is_static=self.is_static,
            )
        if self.pending_labels:
            raise SmaliSyntaxError(
                f"label {self.pending_labels[-1]} has no following instruction",
                end_line,
            )
        param_words = self.param_words
        if self.registers is not None:
            registers = self.registers
        elif self.locals is not None:
            registers = self.locals + param_words
        else:
            registers = param_words
        if registers < param_words:
            raise SmaliSyntaxError(
                f".registers {registers} below parameter count {param_words}",
                self.line_no,
            )

        label_to_index: dict[str, int] = {}
        for idx, (line_no, _, labels) in enumerate(self.raw):
            for label in labels:
                if label in label_to_index:
                    raise SmaliSyntaxError(f"duplicate label {label}", line_no)
                label_to_index[label] = idx

        # Each distinct line is decoded once per register context, so the
        # method needs no MethodIR.validate pass: `_build` sets exactly the
        # slots of the opcode's SHAPES row, `_reg` checks its registers under
        # the memo's key, and `_label` its branch target against this
        # method's own labels.
        context = (registers, param_words)
        decoded_lines = self.memo.lines.setdefault(context, {})
        branches = self.memo.branches.setdefault(context, {})
        instructions: list[Instruction] = []
        lowered = 0
        for line_no, text, _ in self.raw:
            decoded = decoded_lines.get(text)
            if decoded is None:
                decoded = _build(text, line_no, registers, param_words, label_to_index, self.memo)
                decoded_lines[text] = decoded
            ins, label, is_lowered = decoded
            if label is not None:  # a label names an index in this method only
                key = (text, _label(label, label_to_index, line_no))
                if key not in branches:
                    branches[key] = ins._replace(branch_target=key[1])
                ins = branches[key]
            instructions.append(ins)
            lowered += is_lowered

        return MethodIR(
            owner=self.owner,
            name=self.name,
            descriptor=self.descriptor,
            registers=registers,
            instructions=tuple(instructions),
            is_abstract_or_native=False,
            is_static=self.is_static,
            lowered_count=lowered,
        )


def _reg(token: str, registers: int, param_words: int, line_no: int) -> int:
    if not _REGISTER_RE.match(token):
        raise SmaliSyntaxError(f"bad register {token!r}", line_no)
    n = int(token[1:])
    if token[0] == "p":
        n = registers - param_words + n
    if not 0 <= n < registers:
        raise SmaliSyntaxError(f"register {token} out of range", line_no)
    return n


def _build(
    text: str,
    line_no: int,
    registers: int,
    param_words: int,
    labels: dict[str, int],
    memo: _DecodeMemo,
) -> _Decoded:
    """Decode one instruction line, checking it in a fixed order.

    The result depends on ``labels`` only through the label check, so it
    holds for any line with the same text and register context; the caller
    resolves the returned label token itself.
    """

    def reg(token: str) -> int:
        return _reg(token, registers, param_words, line_no)

    first = text.split(None, 1)
    mnemonic = first[0]
    rest = first[1] if len(first) > 1 else ""
    opcode = _MNEMONIC_ALIASES.get(mnemonic)
    if opcode is None:
        if _MNEMONIC_RE.match(mnemonic):
            # recognized smali shape, outside the subset
            return Instruction(Opcode.NOP), None, True
        raise SmaliSyntaxError(f"unrecognized opcode {mnemonic!r}", line_no)

    if opcode is Opcode.CONST_STRING:
        m = _CONST_STRING_RE.match(rest)
        if not m:
            raise SmaliSyntaxError("malformed const-string", line_no)
        operands = (reg(m.group(1)),)
        literal = m.group(2)
        if "\\" in literal:
            literal = _unescape(literal, line_no)
        return Instruction(opcode, operands, literal), None, False
    if opcode in INVOKE_OPCODES:
        m = _INVOKE_RE.match(rest)
        if not m:
            raise SmaliSyntaxError("malformed invoke", line_no)
        regs = _invoke_regs(m.group(1), reg, line_no)
        return Instruction(opcode, regs, method_ref=memo.method_ref(m.group(2), line_no)), None, False

    # every other opcode: its registers, then its attachment, comma-separated
    n, attachment, _, _ = SHAPES[opcode]
    count = n + (attachment is not None)
    if count == 0:
        if rest:
            raise SmaliSyntaxError(f"{opcode.value} takes no operands", line_no)
        return Instruction(opcode), None, False
    parts = [p.strip() for p in rest.split(",")]
    if len(parts) != count or not all(parts):
        raise SmaliSyntaxError(f"expected {count} operands, got {rest!r}", line_no)
    field_ref = type_ref = label = None
    if attachment == "branch_target":
        label = parts[n]
        _label(label, labels, line_no)
    elif attachment == "field_ref":
        ref = _FIELD_REF_RE.match(parts[n])
        if not ref:
            raise SmaliSyntaxError(f"malformed field reference {parts[n]!r}", line_no)
        field_ref = FieldRef(*ref.groups())
    elif attachment == "type_ref":
        if not _CLASS_RE.match(parts[n]):
            raise SmaliSyntaxError(f"bad type {parts[n]!r}", line_no)
        type_ref = parts[n]
    operands = tuple([reg(p) for p in parts[:n]])
    return Instruction(opcode, operands, field_ref=field_ref, type_ref=type_ref), label, False


def _invoke_regs(inner: str, reg: Callable[[str], int], line_no: int) -> tuple[int, ...]:
    inner = inner.strip()
    if not inner:
        return ()
    if ".." in inner:
        lo, hi = (t.strip() for t in inner.split("..", 1))
        lo_n = reg(lo)
        hi_n = reg(hi)
        if hi_n < lo_n:
            raise SmaliSyntaxError("bad register range", line_no)
        return tuple(range(lo_n, hi_n + 1))
    return tuple([reg(tok.strip()) for tok in inner.split(",")])


def _label(token: str, labels: dict[str, int], line_no: int) -> int:
    token = token.strip()
    if token not in labels:
        raise SmaliSyntaxError(f"unknown label {token}", line_no)
    return labels[token]


def _parse_count(line: str, directive: str, line_no: int) -> int:
    rest = line[len(directive) :].strip()
    if not rest.isdigit():
        raise SmaliSyntaxError(f"bad {directive} count {rest!r}", line_no)
    return int(rest)


def _split_method_header(header: str, line_no: int) -> _Header:
    tokens = header.split()
    if not tokens:
        raise SmaliSyntaxError("empty .method header", line_no)
    proto = tokens[-1]
    flags = tokens[:-1]
    m = _METHOD_PROTO_RE.match(proto)
    if not m:
        raise SmaliSyntaxError(f"malformed method prototype {proto!r}", line_no)
    name, descriptor = m.group(1), m.group(2)
    try:
        params, _ = parse_method_descriptor(descriptor)
    except IRError as exc:
        raise SmaliSyntaxError(str(exc), line_no)
    is_static = "static" in flags
    param_words = (0 if is_static else 1) + sum(type_words(p) for p in params)
    return name, descriptor, is_static, bool({"abstract", "native"} & set(flags)), param_words


def parse_smali_class(text: str) -> ClassDef:
    """Parse the smali source of a single class."""
    return _parse_class(text, _DecodeMemo())


def _parse_class(text: str, memo: _DecodeMemo) -> ClassDef:
    class_name: str | None = None
    super_name: str | None = None
    fields: list[tuple[str, str]] = []
    methods: list[MethodIR] = []
    method: _MethodParser | None = None
    skip_until: str | None = None

    # the open method's instruction lines and the labels awaiting one
    raw: list[_Raw] = []
    pending: list[str] = []

    lines = text.split("\n")
    for line_no, rawline in enumerate(lines, start=1):
        line = (_strip_comment(rawline) if "#" in rawline else rawline).strip()
        if not line:
            continue
        if skip_until is not None:
            if line == skip_until or line.startswith(skip_until + " "):
                skip_until = None
            continue
        first = line[0]
        if first != ".":  # an instruction or label; every directive starts with "."
            if method is None:
                raise SmaliSyntaxError(f"instruction outside method: {line!r}", line_no)
            if first == ":" and _LABEL_RE.match(line):
                pending.append(line)
            elif pending:
                raw.append((line_no, line, tuple(pending)))
                pending.clear()
            else:
                raw.append((line_no, line, ()))
            continue
        if method is not None:  # the directives a method body holds most
            if line == ".end method":
                methods.append(method.finish(line_no))
                method = None
                continue
            if line.startswith(".registers"):
                method.registers = _parse_count(line, ".registers", line_no)
                continue
            if line.startswith(".locals"):
                method.locals = _parse_count(line, ".locals", line_no)
                continue
        if line.startswith(".class"):
            tokens = line.split()
            if len(tokens) < 2 or not _CLASS_RE.match(tokens[-1]):
                raise SmaliSyntaxError("malformed .class directive", line_no)
            class_name = tokens[-1]
            continue
        if line.startswith(".super"):
            tokens = line.split()
            if len(tokens) != 2 or not _CLASS_RE.match(tokens[1]):
                raise SmaliSyntaxError("malformed .super directive", line_no)
            super_name = tokens[1]
            continue
        if line.startswith(".implements"):
            continue
        if line.startswith(".field"):
            m = _FIELD_DIRECTIVE_RE.match(line)
            if not m or not is_type_descriptor(m.group(2)):
                raise SmaliSyntaxError("malformed .field directive", line_no)
            fields.append((m.group(1), m.group(2)))
            continue
        if line.startswith(".method"):
            if method is not None:
                raise SmaliSyntaxError("nested .method", line_no)
            if class_name is None:
                raise SmaliSyntaxError(".method before .class", line_no)
            method = _MethodParser(class_name, line[len(".method") :].strip(), line_no, memo)
            raw, pending = method.raw, method.pending_labels
            continue
        if line == ".end method":
            raise SmaliSyntaxError(".end method without .method", line_no)
        if _is_skippable_line(line):
            continue
        block_start = line.split(None, 1)[0]
        if block_start in _SKIPPABLE_BLOCKS:
            skip_until = _SKIPPABLE_BLOCKS[block_start]
            # the labels before a payload name its data, not an instruction
            payloads = (".packed-switch", ".sparse-switch", ".array-data")
            if method is not None and block_start in payloads:
                pending.clear()
            continue
        if line.startswith(".end"):
            raise SmaliSyntaxError(f"unmatched {line!r}", line_no)
        # unknown single-line directive: safe to ignore

    if method is not None:
        raise SmaliSyntaxError("missing .end method", len(lines))
    if skip_until is not None:
        raise SmaliSyntaxError(f"unterminated block (expected {skip_until})", len(lines))
    if class_name is None:
        raise SmaliSyntaxError("missing .class directive", 1)
    cls = ClassDef(
        class_name=class_name,
        super_name=super_name or "Ljava/lang/Object;",
        methods=tuple(methods),
        fields=tuple(fields),
    )
    try:
        cls.validate()
    except IRError as exc:
        raise SmaliSyntaxError(str(exc), 1)
    return cls


def print_smali_class(cls: ClassDef) -> str:
    """Emit canonical smali for a ClassDef; reparsing yields an equal class.

    Each lowered line prints as the mnemonic ``lowered``, which the parser
    lowers to ``nop`` and counts again, so ``lowered_count`` survives too;
    this holds whenever a method has at least ``lowered_count`` nops, as
    every parsed method has.
    """
    out: list[str] = [f".class public {cls.class_name}", f".super {cls.super_name}", ""]
    for name, type_desc in cls.fields:
        out.append(f".field public {name}:{type_desc}")
    if cls.fields:
        out.append("")
    for method in cls.methods:
        flags = []
        if method.is_static:
            flags.append("static")
        if method.is_abstract_or_native:
            flags.append("abstract")
        flag_str = (" ".join(flags) + " ") if flags else ""
        out.append(f".method public {flag_str}{method.name}{method.descriptor}")
        if not method.is_abstract_or_native:
            out.append(f"    .registers {method.registers}")
            targets = {ins.branch_target for ins in method.instructions}
            lowered = method.lowered_count
            for index, ins in enumerate(method.instructions):
                if index in targets:
                    out.append(f"    :L{index}")
                if lowered and ins.opcode is Opcode.NOP:
                    # nops are all alike, so any of them may stand for the
                    # lowered lines: a mnemonic outside the subset lowers again
                    out.append("    lowered")
                    lowered -= 1
                else:
                    out.append(f"    {_format_instruction(ins)}")
        out.append(".end method")
        out.append("")
    return "\n".join(out)


def _format_instruction(ins: Instruction) -> str:
    """The opcode, then its registers and attachment, as :func:`_build` reads them."""
    args = [f"v{r}" for r in ins.operands]
    if ins.method_ref is not None:  # an invoke's registers are one braced list
        args = ["{" + ", ".join(args) + "}", str(ins.method_ref)]
    elif ins.literal is not None:
        args.append(f'"{_escape(ins.literal)}"')
    elif ins.branch_target is not None:
        args.append(f":L{ins.branch_target}")
    elif ins.field_ref is not None:
        args.append(str(ins.field_ref))
    elif ins.type_ref is not None:
        args.append(ins.type_ref)
    return f"{ins.opcode.value} {', '.join(args)}" if args else ins.opcode.value


@dataclass(frozen=True)
class Diagnostic:
    path: str
    message: str

    def to_json_dict(self) -> dict:
        return {"path": self.path, "message": self.message}


def load_program(root: str | Path) -> tuple[Program, list[Diagnostic]]:
    """Load every regular ``.smali`` file under ``root`` into a Program.

    Per-file read and parse failures and duplicate class names become
    diagnostics instead of aborting the load; an empty result is an error
    that carries them.
    """
    root = Path(root)
    if not root.is_dir():
        reason = "is not a directory" if root.exists() else "does not exist"
        raise ProgramLoadError(f"smali root {root} {reason}")
    classes: list[ClassDef] = []
    seen: dict[str, Path] = {}
    diagnostics: list[Diagnostic] = []
    # lives for this load only, so a batch's memory does not grow per app
    memo = _DecodeMemo()
    for path in sorted(root.rglob("*.smali")):
        if not path.is_file():  # a directory or device named like a class file
            continue
        try:
            text = path.read_text(encoding="utf-8")
            cls = _parse_class(text, memo)
        except (SmaliSyntaxError, UnicodeDecodeError, OSError) as exc:
            diagnostics.append(Diagnostic(str(path), str(exc)))
            continue
        if cls.class_name in seen:
            diagnostics.append(
                Diagnostic(
                    str(path),
                    f"duplicate class {cls.class_name} (first seen in {seen[cls.class_name]})",
                )
            )
            continue
        seen[cls.class_name] = path
        classes.append(cls)
    if not classes:
        raise ProgramLoadError(f"no classes loaded from {root}", diagnostics)
    return Program(tuple(classes)), diagnostics
