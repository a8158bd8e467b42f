from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from devscan.ir import Instruction, IRError, MethodIR, Opcode, package_of, validate_instruction
from devscan.smali import (
    ProgramLoadError,
    SmaliSyntaxError,
    load_program,
    parse_smali_class,
    print_smali_class,
)

SINGLE = """
.class public Lcom/app/Single;
.super Ljava/lang/Object;

.method public static name()V
    .registers 1
    const-string v0, "oppo"
    return-void
.end method
"""


def test_single_const_string():
    cls = parse_smali_class(SINGLE)
    assert cls.class_name == "Lcom/app/Single;"
    (method,) = cls.methods
    assert method.instructions[0].opcode is Opcode.CONST_STRING
    assert method.instructions[0].literal == "oppo"


def test_source_package():
    cls = parse_smali_class(SINGLE)
    assert package_of(cls.class_name) == "com.app"


def test_abstract_method_has_no_instructions():
    cls = parse_smali_class(
        """
.class public Lcom/app/Abs;
.super Ljava/lang/Object;

.method public abstract doIt()V
.end method
"""
    )
    (method,) = cls.methods
    assert method.is_abstract_or_native
    assert method.instructions == ()


def test_fig2_shape_fixture_parses():
    from tests.conftest import corpus_run

    run = corpus_run("oppo_perm")
    cls = run.program.classes[0]
    assert [m.name for m in cls.methods] == [
        "getManufacturer",
        "startSettingPage",
        "oppoApi",
    ]
    refs = [
        i.method_ref.name
        for m in cls.methods
        for i in m.instructions
        if i.method_ref is not None
    ]
    assert "getManufacturer" in refs and "oppoApi" in refs


def test_literal_preserved_byte_exact():
    text = SINGLE.replace(
        '"oppo"', '"com.color.safecenter.permission.PermissionManagerActivity"'
    )
    cls = parse_smali_class(text)
    assert (
        cls.methods[0].instructions[0].literal
        == "com.color.safecenter.permission.PermissionManagerActivity"
    )


def test_hash_inside_literal_not_a_comment():
    text = SINGLE.replace('"oppo"', '"tag#1"  # trailing comment')
    cls = parse_smali_class(text)
    assert cls.methods[0].instructions[0].literal == "tag#1"


@pytest.mark.parametrize(
    "literal, value",
    [
        # the closing quote follows an escaped backslash, not an escaped quote
        ('"C:\\\\" # drive root', "C:\\"),
        ('"a\\"#b"  # quote', 'a"#b'),
    ],
)
def test_comment_after_escaped_character(literal, value):
    cls = parse_smali_class(SINGLE.replace('"oppo"', literal))
    assert cls.methods[0].instructions[0].literal == value


def test_literal_escapes_roundtrip():
    text = SINGLE.replace('"oppo"', '"a\\"b\\\\c\\n\\u0161 mixed.CASE/slash"')
    cls = parse_smali_class(text)
    assert cls.methods[0].instructions[0].literal == 'a"b\\c\nš mixed.CASE/slash'
    again = parse_smali_class(print_smali_class(cls))
    assert again == cls


def test_unsupported_opcode_lowered_to_nop_with_count():
    cls = parse_smali_class(
        """
.class public Lcom/app/Low;
.super Ljava/lang/Object;

.method public static f(I)I
    .registers 2
    add-int/lit8 v0, p0, 0x1
    return v0
.end method
"""
    )
    (method,) = cls.methods
    assert method.instructions[0].opcode is Opcode.NOP
    assert method.lowered_count == 1


def test_unknown_if_variant_lowers():
    cls = parse_smali_class(
        """
.class public Lcom/app/IfLt;
.super Ljava/lang/Object;

.method public static f(II)V
    .registers 2
    if-lt p0, p1, :x
    :x
    return-void
.end method
"""
    )
    assert cls.methods[0].instructions[0].opcode is Opcode.NOP


def test_debug_directives_skipped():
    cls = parse_smali_class(
        """
.class public Lcom/app/Dbg;
.super Ljava/lang/Object;

.method public static f()V
    .locals 1
    .prologue
    .line 10
    const-string v0, "x"
    .local v0, "name":Ljava/lang/String;
    .line 11
    return-void
.end method
"""
    )
    assert [i.opcode for i in cls.methods[0].instructions] == [
        Opcode.CONST_STRING,
        Opcode.RETURN_VOID,
    ]


def test_apktool_style_class_parses():
    # directive mix as emitted by common disassemblers
    cls = parse_smali_class(
        """
.class public final Lcom/app/Real;
.super Ljava/lang/Object;
.source "Real.java"

.implements Ljava/io/Serializable;

# static fields
.field public static final TAG:Ljava/lang/String; = "Real"

.field private count:I
    .annotation runtime Lcom/app/Keep;
    .end annotation
.end field

.method public static check(Landroid/content/Context;)V
    .registers 3
    .param p0, "context"    # Landroid/content/Context;
    .prologue
    .line 42
    sget-object v0, Landroid/os/Build;->BRAND:Ljava/lang/String;
    .local v0, "brand":Ljava/lang/String;
    const-string v1, "oppo"
    invoke-virtual {v0, v1}, Ljava/lang/String;->equals(Ljava/lang/Object;)Z
    move-result v2
    .end local v0    # "brand":Ljava/lang/String;
    if-eqz v2, :cond_0
    .line 43
    nop
    :cond_0
    .restart local v0    # "brand":Ljava/lang/String;
    return-void
.end method

.method public bridge synthetic describe()V
    .registers 1
    .param p0
        .annotation runtime Lcom/app/Keep;
        .end annotation
    .end param
    return-void
.end method
"""
    )
    assert [m.name for m in cls.methods] == ["check", "describe"]
    assert cls.fields == (("TAG", "Ljava/lang/String;"), ("count", "I"))
    check = cls.methods[0]
    assert [i.opcode for i in check.instructions] == [
        Opcode.SGET_OBJECT,
        Opcode.CONST_STRING,
        Opcode.INVOKE_VIRTUAL,
        Opcode.MOVE_RESULT,
        Opcode.IF_EQZ,
        Opcode.NOP,
        Opcode.RETURN_VOID,
    ]
    assert check.instructions[4].branch_target == 6


def test_annotation_block_skipped():
    cls = parse_smali_class(
        """
.class public Lcom/app/Anno;
.super Ljava/lang/Object;

.annotation system Ldalvik/annotation/MemberClasses;
    value = {
        Lcom/app/Anno$Inner;
    }
.end annotation

.method public static f()V
    .registers 1
    return-void
.end method
"""
    )
    assert len(cls.methods) == 1


@pytest.mark.parametrize(
    "use, payload",
    [
        ("packed-switch v0, :data", ".packed-switch 0x0\n        :case\n    .end packed-switch"),
        ("sparse-switch v0, :data", ".sparse-switch\n        0x5 -> :case\n    .end sparse-switch"),
        ("fill-array-data v0, :data", ".array-data 4\n        0x1\n    .end array-data"),
    ],
)
def test_label_before_payload_names_no_instruction(use, payload):
    """baksmali puts payloads after a method's last instruction, each behind
    the label that names its data."""
    cls = parse_smali_class(
        f"""
.class public Lcom/app/Payload;
.super Ljava/lang/Object;

.method public static f(I)V
    .registers 1
    {use}
    :case
    return-void

    :data
    {payload}
.end method
"""
    )
    (method,) = cls.methods
    assert [i.opcode for i in method.instructions] == [Opcode.NOP, Opcode.RETURN_VOID]
    assert method.lowered_count == 1


def test_syntax_error_reports_line():
    bad = SINGLE.replace('const-string v0, "oppo"', "const-string v0,")
    with pytest.raises(SmaliSyntaxError) as err:
        parse_smali_class(bad)
    assert err.value.line == 7


def test_unknown_label_is_error():
    with pytest.raises(SmaliSyntaxError):
        parse_smali_class(
            """
.class public Lcom/app/BadLabel;
.super Ljava/lang/Object;

.method public static f()V
    .registers 1
    goto :nowhere
    return-void
.end method
"""
        )


def test_register_out_of_range_is_error():
    with pytest.raises(SmaliSyntaxError):
        parse_smali_class(
            """
.class public Lcom/app/BadReg;
.super Ljava/lang/Object;

.method public static f()V
    .registers 1
    const-string v5, "x"
    return-void
.end method
"""
        )


def test_duplicate_method_rejected():
    with pytest.raises(SmaliSyntaxError):
        parse_smali_class(
            """
.class public Lcom/app/Dup;
.super Ljava/lang/Object;

.method public static f()V
    .registers 1
    return-void
.end method

.method public static f()V
    .registers 1
    return-void
.end method
"""
        )


def test_param_registers_map_to_high_registers():
    cls = parse_smali_class(
        """
.class public Lcom/app/Params;
.super Ljava/lang/Object;

.method public two(Ljava/lang/String;)V
    .registers 4
    move-object v0, p1
    move-object v1, p0
    return-void
.end method
"""
    )
    (method,) = cls.methods
    # instance method, 4 registers, 2 param words: p0 -> v2, p1 -> v3
    assert method.instructions[0].operands == (0, 3)
    assert method.instructions[1].operands == (1, 2)
    assert method.param_registers() == (2, 3)


def test_invoke_range_expands():
    cls = parse_smali_class(
        """
.class public Lcom/app/Range;
.super Ljava/lang/Object;

.method public static f()V
    .registers 4
    invoke-static/range {v0 .. v3}, Lcom/app/Range;->g(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V
    return-void
.end method
"""
    )
    assert cls.methods[0].instructions[0].operands == (0, 1, 2, 3)


# -- round-trip property ----------------------------------------------------


@st.composite
def _method_bodies(draw):
    """Random but well-formed instruction lists for a 4-register method."""
    n = draw(st.integers(min_value=1, max_value=12))
    regs = st.integers(min_value=0, max_value=3)
    literal = st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
    )
    instructions = []
    for index in range(n):
        kind = draw(st.sampled_from(["const", "move", "invoke", "sget", "if", "goto", "new", "nop"]))
        if kind == "const":
            ins = Instruction(index, Opcode.CONST_STRING, (draw(regs),), literal=draw(literal))
        elif kind == "move":
            ins = Instruction(index, Opcode.MOVE, (draw(regs), draw(regs)))
        elif kind == "invoke":
            owner, name, desc = ("Lcom/app/Helper;", "use", "(Ljava/lang/String;)V")
            from devscan.ir import MethodRef

            ins = Instruction(index, Opcode.INVOKE_STATIC, (draw(regs),), method_ref=MethodRef(owner, name, desc))
        elif kind == "sget":
            from devscan.ir import FieldRef

            ins = Instruction(
                index,
                Opcode.SGET_OBJECT,
                (draw(regs),),
                field_ref=FieldRef("Landroid/os/Build;", "BRAND", "Ljava/lang/String;"),
            )
        elif kind == "if":
            ins = Instruction(
                index,
                Opcode.IF_EQZ,
                (draw(regs),),
                branch_target=draw(st.integers(min_value=0, max_value=n)),
            )
        elif kind == "goto":
            ins = Instruction(
                index, Opcode.GOTO, (), branch_target=draw(st.integers(min_value=0, max_value=n))
            )
        elif kind == "new":
            ins = Instruction(index, Opcode.NEW_INSTANCE, (draw(regs),), type_ref="Lcom/app/Thing;")
        else:
            ins = Instruction(index, Opcode.NOP)
        instructions.append(ins)
    instructions.append(Instruction(n, Opcode.RETURN_VOID))
    # some of the nops stand for lines the parser lowered
    nops = sum(ins.opcode is Opcode.NOP for ins in instructions)
    return tuple(instructions), draw(st.integers(min_value=0, max_value=nops))


@given(_method_bodies())
@settings(max_examples=120, deadline=None)
def test_print_parse_roundtrip(drawn):
    from devscan.ir import ClassDef

    body, lowered = drawn
    method = MethodIR(
        owner="Lcom/app/Rt;",
        name="f",
        descriptor="()V",
        registers=4,
        instructions=body,
        is_static=True,
        lowered_count=lowered,
    )
    method.validate()
    cls = ClassDef(
        class_name="Lcom/app/Rt;",
        super_name="Ljava/lang/Object;",
        methods=(method,),
    )
    reparsed = parse_smali_class(print_smali_class(cls))
    assert reparsed.methods[0].instructions == body
    assert reparsed.methods[0].registers == 4
    assert reparsed == cls


def test_lowered_lines_survive_print_and_parse():
    cls = parse_smali_class(
        _HEAD + _method("const/4 v0, 0x1", "nop", "add-int/lit8 v1, v0, 0x2", "return-void")
    )
    assert cls.methods[0].lowered_count == 2
    again = parse_smali_class(print_smali_class(cls))
    assert again.methods[0].lowered_count == 2
    assert again == cls


def _one_of_each_shape(op):
    """An instruction of ``op`` setting every slot its row asks for."""
    from devscan.ir import SHAPES, FieldRef, MethodRef

    registers, attachment, _, _ = SHAPES[op]
    sample = {
        "literal": 'a "quoted"\nline',
        "field_ref": FieldRef("Landroid/os/Build;", "BRAND", "Ljava/lang/String;"),
        "method_ref": MethodRef("Lcom/app/K;", "g", "(Ljava/lang/String;I)V"),
        "type_ref": "Lcom/app/Thing;",
        "branch_target": 0,
    }
    operands = tuple(range(2 if registers is None else registers))
    return Instruction(0, op, operands, **({attachment: sample[attachment]} if attachment else {}))


def test_every_opcode_has_one_shape():
    from devscan.ir import SHAPES

    assert SHAPES.keys() == set(Opcode)


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.value)
def test_each_opcode_decodes_prints_and_decodes_back(op):
    from devscan.ir import ClassDef

    ins = _one_of_each_shape(op)
    validate_instruction(ins)
    method = MethodIR(
        owner="Lcom/app/K;",
        name="f",
        descriptor="()V",
        registers=3,
        instructions=(ins, Instruction(1, Opcode.RETURN_VOID)),
        is_static=True,
    )
    cls = ClassDef("Lcom/app/K;", "Ljava/lang/Object;", (method,))
    text = print_smali_class(cls)
    decoded = parse_smali_class(text)
    assert decoded == cls
    assert print_smali_class(decoded) == text


def test_two_register_ifs():
    from devscan.graphs import build_cfg
    from devscan.ir import IF_OPCODES

    cls = parse_smali_class(
        _HEAD
        + _method(
            "if-eq v0, v1, :a", "nop", ":a", "if-ne v1, v0, :b", "return-void", ":b",
            "return-void", header="public static f(II)V",
        )
    )
    (method,) = cls.methods
    ifs = [(i.opcode, i.operands, i.branch_target) for i in method.instructions[::2][:2]]
    assert ifs == [(Opcode.IF_EQ, (0, 1), 2), (Opcode.IF_NE, (1, 0), 4)]
    cfg = build_cfg(method)
    conditional = [
        b for b, block in enumerate(cfg.blocks)
        if method.instructions[block[-1]].opcode in IF_OPCODES
    ]
    assert [cfg.succ[b] for b in conditional] == [(1, 2), (3, 4)]
    assert parse_smali_class(print_smali_class(cls)) == cls


def test_branch_targets_inside_method(all_fixture_ids):
    from tests.conftest import corpus_run

    for fid in all_fixture_ids:
        for method in corpus_run(fid).program.methods():
            for ins in method.instructions:
                if ins.branch_target is not None:
                    assert 0 <= ins.branch_target < len(method.instructions)


def test_corpus_roundtrip(all_fixture_ids):
    from tests.conftest import corpus_run

    for fid in all_fixture_ids:
        for cls in corpus_run(fid).program.classes:
            assert parse_smali_class(print_smali_class(cls)) == cls


# -- load_program -----------------------------------------------------------

def test_load_program_counts(tmp_path):
    for name in ("A", "B", "C"):
        (tmp_path / f"{name}.smali").write_text(
            SINGLE.replace("Lcom/app/Single;", f"Lcom/app/{name};"), encoding="utf-8"
        )
    program, diagnostics = load_program(tmp_path)
    assert len(program.classes) == 3
    assert diagnostics == []


def test_load_program_empty_dir_is_error(tmp_path):
    with pytest.raises(ProgramLoadError):
        load_program(tmp_path)


def test_load_program_missing_root_is_error(tmp_path):
    with pytest.raises(ProgramLoadError):
        load_program(tmp_path / "nope")


def test_load_program_collects_diagnostics(tmp_path):
    (tmp_path / "A.smali").write_text(SINGLE, encoding="utf-8")
    (tmp_path / "B.smali").write_text(
        SINGLE.replace("Lcom/app/Single;", "Lcom/app/B;"), encoding="utf-8"
    )
    (tmp_path / "broken.smali").write_text(".class oops", encoding="utf-8")
    program, diagnostics = load_program(tmp_path)
    assert len(program.classes) == 2
    assert len(diagnostics) == 1
    assert "broken.smali" in diagnostics[0].path


def test_load_program_rejects_duplicate_class(tmp_path):
    (tmp_path / "A.smali").write_text(SINGLE, encoding="utf-8")
    (tmp_path / "B.smali").write_text(SINGLE, encoding="utf-8")
    program, diagnostics = load_program(tmp_path)
    assert len(program.classes) == 1
    assert "duplicate class" in diagnostics[0].message


def test_validate_instruction_rejects_extra_slots():
    ins = Instruction(0, Opcode.NOP, (), literal="x")
    with pytest.raises(IRError):
        validate_instruction(ins)


# -- parser contract: one bad input per SmaliSyntaxError kind ----------------

_HEAD = ".class public Lcom/app/K;\n.super Ljava/lang/Object;\n"


def _method(*body, header="public static f()V", registers=2):
    lines = "".join(f"    {line}\n" for line in body)
    return f".method {header}\n    .registers {registers}\n{lines}.end method\n"


# kind -> (smali source, line, exact message); the class starts at line 1,
# so a method's first body line is line 5
SYNTAX_ERRORS = {
    "bad register": (
        _HEAD + _method("move-result x0", "return-void"), 5, "bad register 'x0'"),
    "register out of range": (
        _HEAD + _method('const-string v5, "x"', "return-void"), 5, "register v5 out of range"),
    "malformed const-string": (
        _HEAD + _method("const-string v0,", "return-void"), 5, "malformed const-string"),
    "malformed invoke": (
        _HEAD + _method("invoke-static v0, Lcom/app/K;->f()V", "return-void"), 5,
        "malformed invoke"),
    "malformed method reference": (
        _HEAD + _method("invoke-static {}, Lcom/app/K;f()V", "return-void"), 5,
        "malformed method reference 'Lcom/app/K;f()V'"),
    "malformed field reference": (
        _HEAD + _method("sget-object v0, Landroid/os/Build;->BRAND", "return-void"), 5,
        "malformed field reference 'Landroid/os/Build;->BRAND'"),
    "wrong operand count": (
        _HEAD + _method("move-object v0", "return-void"), 5, "expected 2 operands, got 'v0'"),
    "unknown label": (
        _HEAD + _method("goto :nowhere", "return-void"), 5, "unknown label :nowhere"),
    "duplicate label": (
        _HEAD + _method(":a", "nop", ":a", "return-void"), 8, "duplicate label :a"),
    "trailing label": (
        _HEAD + _method("return-void", ":end"), 7, "label :end has no following instruction"),
    "return-void with operands": (
        _HEAD + _method("return-void v0"), 5, "return-void takes no operands"),
    "nop with operands": (
        _HEAD + _method("nop v0", "return-void"), 5, "nop takes no operands"),
    "one register, two operands": (
        _HEAD + _method("move-result v0, v1", "return-void"), 5,
        "expected 1 operands, got 'v0, v1'"),
    "one label, two operands": (
        _HEAD + _method(":a", "goto :a, :b"), 6, "expected 1 operands, got ':a, :b'"),
    "unrecognized opcode": (
        _HEAD + _method("Frob v0", "return-void"), 5, "unrecognized opcode 'Frob'"),
    "bad type": (
        _HEAD + _method("new-instance v0, Lcom/app/K", "return-void"), 5, "bad type 'Lcom/app/K'"),
    ".registers below parameter count": (
        _HEAD + _method("return-void", header="public f(Ljava/lang/String;)V", registers=1), 3,
        ".registers 1 below parameter count 2"),
    "abstract method with a body": (
        _HEAD + ".method public abstract f()V\n    return-void\n.end method\n", 4,
        "abstract/native method f has instructions"),
    "duplicate method": (
        _HEAD + _method("return-void") + _method("return-void"), 1,
        "Lcom/app/K;: duplicate method f()V"),
    "nested .method": (
        _HEAD + ".method public static f()V\n.method public static g()V\n.end method\n", 4,
        "nested .method"),
    "missing .end method": (
        _HEAD + ".method public static f()V\n    .registers 1\n    return-void\n", 6,
        "missing .end method"),
    "unterminated block": (
        _HEAD + ".annotation system Ldalvik/annotation/Signature;\n    value = {}\n", 5,
        "unterminated block (expected .end annotation)"),
    "unknown escape": (
        _HEAD + _method('const-string v0, "a\\qb"', "return-void"), 5, "unknown escape \\q"),
    "bad register range": (
        _HEAD + _method("invoke-static/range {v1 .. v0}, Lcom/app/K;->g(II)V", "return-void"), 5,
        "bad register range"),
    # when one line breaks two rules, the first check in parse order wins
    "register checked before escape": (
        _HEAD + _method('const-string v9, "a\\qb"', "return-void"), 5, "register v9 out of range"),
    "label checked before register": (
        _HEAD + _method("if-eqz v9, :nowhere", "return-void"), 5, "unknown label :nowhere"),
    "first bad line wins": (
        _HEAD + _method("move-result x0", "goto :nowhere"), 5, "bad register 'x0'"),
    "malformed method descriptor": (
        _HEAD + _method("return-void", header="public f(Landroid/content/Context)V"), 3,
        "bad method descriptor: '(Landroid/content/Context)V'"),
    "bad return type": (
        _HEAD + _method("return-void", header="public static g(Landroid/content/Context;)Q"), 3,
        "bad method descriptor: '(Landroid/content/Context;)Q'"),
    "malformed reference descriptor": (
        _HEAD + _method("invoke-static {v0}, Lcom/app/K;->g(Landroid/content/Context)V",
                        "return-void"), 5,
        "bad method descriptor: '(Landroid/content/Context)V'"),
    # a register valid in one method is checked again in the next
    "registers are per method": (
        _HEAD + _method("move-result v1", "return-void")
        + _method("move-result v1", "return-void", header="public static g()V", registers=1), 10,
        "register v1 out of range"),
}


@pytest.mark.parametrize("kind", sorted(SYNTAX_ERRORS))
def test_syntax_error_contract(kind):
    text, line, message = SYNTAX_ERRORS[kind]
    with pytest.raises(SmaliSyntaxError) as err:
        parse_smali_class(text)
    assert (err.value.line, str(err.value)) == (line, f"line {line}, col 1: {message}")


# -- one decode per distinct line per load ----------------------------------


def test_load_program_equals_parsing_each_file_alone(all_fixture_ids):
    from devscan.fixtures import corpus_root

    for fid in all_fixture_ids:
        root = corpus_root() / fid / "smali"
        program, diagnostics = load_program(root)
        assert diagnostics == []
        alone = [
            parse_smali_class(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.smali"))
        ]
        assert list(program.classes) == alone, fid


def test_load_program_checks_registers_per_method(tmp_path):
    # the same line in a method with fewer registers must fail again
    (tmp_path / "A.smali").write_text(
        _HEAD.replace("K;", "A;") + _method("move-object v3, v0", "return-void", registers=4),
        encoding="utf-8",
    )
    (tmp_path / "B.smali").write_text(
        _HEAD.replace("K;", "B;") + _method("move-object v3, v0", "return-void", registers=2),
        encoding="utf-8",
    )
    program, diagnostics = load_program(tmp_path)
    assert [cls.class_name for cls in program.classes] == ["Lcom/app/A;"]
    assert [(Path(d.path).name, d.message) for d in diagnostics] == [
        ("B.smali", "line 5, col 1: register v3 out of range")
    ]


def test_same_branch_line_resolves_per_method():
    cls = parse_smali_class(
        _HEAD
        + _method("if-eqz v0, :a", "nop", ":a", "return-void")
        + _method("if-eqz v0, :a", ":a", "return-void", header="public static g()V")
    )
    assert [m.instructions[0].branch_target for m in cls.methods] == [2, 1]


def test_repeated_lowered_line_counts_each_time():
    cls = parse_smali_class(
        _HEAD
        + _method("const/4 v0, 0x1", "const/4 v0, 0x1", "return-void")
        + _method("const/4 v0, 0x1", "return-void", header="public static g()V")
    )
    assert [m.lowered_count for m in cls.methods] == [2, 1]


def test_method_reference_name_may_hold_dash():
    # D8 nest accessors: `-$$Nest$m<name>` in headers and references alike
    accessor = "Lcom/app/K;->-$$Nest$mbrand(Lcom/app/K;)Ljava/lang/String;"
    cls = parse_smali_class(
        _HEAD
        + _method(
            f"invoke-static {{p0}}, {accessor}",
            "return-void",
            header="static synthetic -$$Nest$mbrand(Lcom/app/K;)Ljava/lang/String;",
            registers=1,
        )
    )
    (method,) = cls.methods
    assert method.name == "-$$Nest$mbrand"
    assert str(method.instructions[0].method_ref) == accessor


# -- IR contract -------------------------------------------------------------


def test_instruction_contract():
    import inspect

    params = inspect.signature(Instruction).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        ("index", inspect.Parameter.empty),
        ("opcode", inspect.Parameter.empty),
        ("operands", ()),
        ("literal", None),
        ("field_ref", None),
        ("method_ref", None),
        ("type_ref", None),
        ("branch_target", None),
    ]
    ins = Instruction(3, Opcode.GOTO, branch_target=0)
    assert (ins.index, ins.opcode, ins.operands, ins.branch_target) == (3, Opcode.GOTO, (), 0)
    assert ins == Instruction(3, Opcode.GOTO, (), None, None, None, None, 0)
    returns = {Opcode.RETURN_VOID, Opcode.RETURN_OBJECT, Opcode.RETURN_VALUE}
    for op in Opcode:
        assert Instruction(0, op).is_return() is (op in returns)


def test_refs_and_opcodes_contract():
    from devscan.ir import FieldRef, MethodRef

    field = FieldRef("La/B;", "x", "I")
    method = MethodRef("La/B;", "x", "I")
    assert field != method and method != field
    assert field == FieldRef("La/B;", "x", "I")
    assert hash(field) == hash(FieldRef("La/B;", "x", "I"))
    assert len({field, method}) == 2
    table = {op: op.value for op in Opcode}
    assert all(table[op] == op.value for op in Opcode) and len(table) == 19
    members = frozenset({Opcode.MOVE, Opcode.NOP})
    assert Opcode.NOP in members and Opcode.GOTO not in members
    assert Opcode("nop") in members


@pytest.mark.parametrize(
    "ins, message",
    [
        (Instruction(0, Opcode.MOVE, (1,)), "move at 0: expected 2 register operands, got 1"),
        (Instruction(1, Opcode.GOTO), "goto at 1: missing branch_target"),
        (Instruction(2, Opcode.CONST_STRING, (0,), "s", type_ref="La/B;"),
         "const-string at 2: unexpected type_ref"),
    ],
)
def test_validate_instruction_messages(ins, message):
    with pytest.raises(IRError) as err:
        validate_instruction(ins)
    assert str(err.value) == message
