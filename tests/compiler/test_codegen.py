"""Unit tests for code generation (repro.compiler.codegen)."""

import hashlib
import random
import re

import pytest

from repro.compiler import (
    CompileError,
    Op,
    compile_source,
    compile_term,
    validate_program,
)
from repro.core import ClassVar, Instance, LocatedClassVar, LocatedName, Lit, Name, Site, val_msg


def ops(block):
    return [i.op for i in block.instrs]


class TestBasicCompilation:
    def test_nil(self):
        prog = compile_source("0")
        validate_program(prog)
        assert ops(prog.blocks[prog.main]) == [Op.HALT]

    def test_message(self):
        prog = compile_source("x![1]")
        validate_program(prog)
        main = prog.blocks[prog.main]
        assert ops(main) == [Op.PUSHL, Op.PUSHC, Op.TRMSG, Op.HALT]
        assert prog.externals == ["x"]

    def test_message_label_and_arity(self):
        prog = compile_source("x!go[1, 2, 3]")
        main = prog.blocks[prog.main]
        trmsg = [i for i in main.instrs if i.op is Op.TRMSG][0]
        assert trmsg.args == ("go", 3)

    def test_new_allocates(self):
        prog = compile_source("new x x![1]")
        validate_program(prog)
        main = prog.blocks[prog.main]
        assert Op.NEWCH in ops(main)
        assert prog.externals == []

    def test_object_compiles_method_blocks(self):
        prog = compile_source("x?{ read(r) = r![1], write(u) = 0 }")
        validate_program(prog)
        assert len(prog.objects) == 1
        assert set(prog.objects[0].methods) == {"read", "write"}
        # Two method blocks + main.
        assert len(prog.blocks) == 3

    def test_par_forks(self):
        prog = compile_source("x![1] | y![2] | z![3]")
        validate_program(prog)
        main = prog.blocks[prog.main]
        assert ops(main).count(Op.FORK) == 2
        # Two fork blocks + main.
        assert len(prog.blocks) == 3

    def test_object_captures_free_names(self):
        prog = compile_source("new a x?(w) = a![w]")
        validate_program(prog)
        main = prog.blocks[prog.main]
        trobj = [i for i in main.instrs if i.op is Op.TROBJ][0]
        assert trobj.args[1] == 1  # captures a
        method_block = prog.blocks[prog.objects[0].methods["val"]]
        assert method_block.nfree == 1
        assert method_block.nparams == 1

    def test_def_group(self):
        prog = compile_source("def Cell(s, v) = s?(r) = r![v] in new x Cell[x, 9]")
        validate_program(prog)
        assert len(prog.groups) == 1
        (group,) = prog.groups
        assert group.clauses[0][0] == "Cell"
        main = prog.blocks[prog.main]
        assert Op.DEFGROUP in ops(main)
        assert Op.INSTOF in ops(main)

    def test_mutual_recursion_shares_group(self):
        prog = compile_source(
            "def Ping(n) = Pong[n] and Pong(n) = Ping[n] in Ping[0]")
        validate_program(prog)
        assert len(prog.groups) == 1
        assert len(prog.groups[0].clauses) == 2
        # Clause blocks address group classrefs in their env.
        for _hint, bid in prog.groups[0].clauses:
            blk = prog.blocks[bid]
            assert blk.nfree == 2  # the two group classrefs
            assert Op.INSTOF in ops(blk)

    def test_if_branches(self):
        prog = compile_source("if 1 < 2 then x![] else y![]")
        validate_program(prog)
        main = prog.blocks[prog.main]
        o = ops(main)
        assert Op.JMPF in o and Op.JMP in o

    def test_expression_code(self):
        prog = compile_source("x![1 + 2 * n]")
        main = prog.blocks[prog.main]
        o = ops(main)
        assert Op.ADD in o and Op.MUL in o

    def test_externals_deterministic_order(self):
        prog = compile_source("a![] | b![] | c![]")
        assert prog.externals == ["a", "b", "c"]

    def test_frame_sizes_validated(self):
        prog = compile_source(
            "new a b c (a![1] | b![2] | c![3] | a?(w) = b![w])")
        validate_program(prog)


class TestExportImportCompilation:
    def test_export_new(self):
        prog = compile_source("export new svc svc?(w) = 0")
        validate_program(prog)
        main = prog.blocks[prog.main]
        assert Op.EXPORT in ops(main)
        exp = [i for i in main.instrs if i.op is Op.EXPORT][0]
        assert exp.args[1] == "svc"

    def test_import_name(self):
        prog = compile_source("import svc from server in svc![1]")
        validate_program(prog)
        main = prog.blocks[prog.main]
        imp = [i for i in main.instrs if i.op is Op.IMPORT][0]
        assert imp.args[0] == "svc"
        assert imp.args[1] == "server"

    def test_export_def(self):
        prog = compile_source("export def Applet(x) = x![1] in 0")
        validate_program(prog)
        main = prog.blocks[prog.main]
        assert Op.EXPORTCLASS in ops(main)

    def test_import_class(self):
        prog = compile_source("import Applet from server in Applet[1]")
        validate_program(prog)
        main = prog.blocks[prog.main]
        o = ops(main)
        assert Op.IMPORTCLASS in o and Op.INSTOF in o


class TestCompileErrors:
    def test_located_name_rejected(self):
        term = val_msg(LocatedName(Site("s"), Name("x")), Lit(1))
        with pytest.raises(CompileError):
            compile_term(term)

    def test_located_class_rejected(self):
        term = Instance(LocatedClassVar(Site("s"), ClassVar("X")), ())
        with pytest.raises(CompileError):
            compile_term(term)

    def test_unbound_class_rejected(self):
        with pytest.raises(CompileError):
            compile_term(Instance(ClassVar("X"), ()))


class TestDisassembler:
    def test_disassemble_runs(self):
        prog = compile_source(
            "def Cell(s, v) = s?{ read(r) = r![v] | Cell[s, v], write(u) = Cell[s, u] } "
            "in new x Cell[x, 9]")
        text = prog.disassemble()
        assert "block" in text
        assert "defgroup" in text
        assert "Cell" in text

    def test_instruction_count(self):
        prog = compile_source("x![1] | y![2]")
        assert prog.instruction_count() > 4


# -- pinned output on a large generated def group ---------------------------
#
# One 64-clause group in the shape of the `coldstart` benchmark's
# programs (five body forms, arities 2-4, three-digit literals), written
# here because tests do not import the benchmarks.  The digest covers
# every block, object and group the compiler emits; it was recorded
# before the front end's per-token and per-clause loops were rewritten,
# so a change that alters an instruction, a frame layout or a table
# order shows up here.

_FORMS = ("arith", "branch", "channel", "object", "call")
_PARAMS = ("acc", "x", "y", "z")


def _group_source(seed: int, classes: int) -> str:
    rng = random.Random(seed)
    lit = lambda: rng.randint(100, 999)  # noqa: E731
    forms = [_FORMS[i % len(_FORMS)] for i in range(classes)]
    arities = [2 + i % 3 for i in range(classes)]
    rng.shuffle(forms)
    rng.shuffle(arities)
    names = [f"Kx{i:03d}" for i in range(classes)]
    clauses = []
    for i in range(classes):
        params = _PARAMS[:arities[i]]
        if i + 1 < classes:
            extra = [p if p in params else str(lit())
                     for p in _PARAMS[2:arities[i + 1]]]
            head = f"{names[i + 1]}[{{}}, {{}}" + "".join(
                f", {e}" for e in extra) + "]"
        else:
            head = "join![{}]"
        call = lambda acc, x: head.format(acc, x)  # noqa: E731
        a, b, d = lit(), lit(), lit()
        form = forms[i]
        if form == "branch":
            body = (f"if x > {a} then {call(f'acc + {b}', f'x - {d}')} "
                    f"else {call(f'acc + x + {d}', f'x + {b}')}")
        elif form == "channel":
            body = f"new t (t![x + {a}] | t?(w) = {call('acc + w', 'x')})"
        elif form == "object":
            body = (f"new o (o!put[x, {a}] | o?{{ put(p, q) = "
                    f"{call('acc + p * q', f'x + {b}')}, skip() = 0 }})")
        elif form == "call":
            body = (f"new s ((s?{{ get(k, r) = r![k + {a}] }}) | "
                    f"let w = s!get[x] in {call('acc + w', f'x + {b}')})")
        else:
            body = call(f"acc + x * {a} + {b}", f"x + {d}")
        clauses.append(f"{names[i]}({', '.join(params)}) = {body}")
    start = f"{names[0]}[" + ", ".join(
        str(lit()) for _ in range(arities[0])) + "]"
    return ("new join (\ndef " + "\nand ".join(clauses)
            + f"\nin ({start} | join?(v) = print![v]))\n")


def _program_digest(prog) -> str:
    rows = [tuple((i.op.name, i.args) for i in b.instrs)
            + (b.nfree, b.nparams, b.frame_size, b.name) for b in prog.blocks]
    rows.append(tuple((o.methods, o.name) for o in prog.objects))
    rows.append(tuple((g.clauses, g.nfree, g.name) for g in prog.groups))
    rows.append((prog.externals, prog.main))
    # Object names carry a Name's process-wide serial: number them by
    # first appearance so the digest does not depend on what ran before.
    serials: dict[str, int] = {}
    text = re.sub(r"#(\d+)",
                  lambda m: f"#{serials.setdefault(m[1], len(serials))}",
                  repr(rows))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def test_generated_group_compiles_to_pinned_code():
    source = _group_source(2027, 64)
    assert source.count("\nand ") == 63
    prog = compile_source(source)
    validate_program(prog)
    assert len(prog.groups) == 1 and len(prog.groups[0].clauses) == 64
    assert _program_digest(prog) == "8ba7fb0da311e17daabf34d739a80ce7"
