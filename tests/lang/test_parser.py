"""Unit tests for the DiTyCO parser, including the paper's programs."""

import pytest

from repro.core import (
    VAL,
    Def,
    ExportDef,
    ExportNew,
    If,
    ImportClass,
    ImportName,
    Instance,
    Label,
    Lit,
    Message,
    New,
    Nil,
    Object,
    Par,
    flatten_par,
    free_names,
)
from repro.lang import ParseError, parse_process, parse_program


class TestAtoms:
    def test_nil(self):
        assert isinstance(parse_process("0"), Nil)

    def test_message(self):
        p = parse_process("x!go[1, true]")
        assert isinstance(p, Message)
        assert p.label == Label("go")
        assert p.args == (Lit(1), Lit(True))

    def test_val_message_sugar(self):
        p = parse_process("x![9]")
        assert isinstance(p, Message)
        assert p.label == VAL

    def test_empty_args(self):
        p = parse_process("x!ping[]")
        assert p.args == ()

    def test_object_multi_method(self):
        p = parse_process("x?{ read(r) = r![1], write(u) = 0 }")
        assert isinstance(p, Object)
        assert set(p.methods) == {Label("read"), Label("write")}

    def test_val_object_sugar(self):
        p = parse_process("x?(w) = 0")
        assert isinstance(p, Object)
        assert set(p.methods) == {VAL}

    def test_duplicate_method_rejected(self):
        with pytest.raises(ParseError):
            parse_process("x?{ m() = 0, m() = 0 }")

    def test_instance_requires_defined_class(self):
        with pytest.raises(ParseError):
            parse_process("Cell[x, 9]")


class TestBinders:
    def test_new_single(self):
        p = parse_process("new x x![1]")
        assert isinstance(p, New)
        assert len(p.names) == 1
        body = p.body
        assert isinstance(body, Message)
        assert body.subject is p.names[0]

    def test_new_multiple(self):
        p = parse_process("new x y z x![]")
        assert isinstance(p, New)
        assert [n.hint for n in p.names] == ["x", "y", "z"]

    def test_new_scope_greedy(self):
        p = parse_process("new x x![] | x?(w) = 0")
        assert isinstance(p, New)
        leaves = flatten_par(p.body)
        assert len(leaves) == 2
        assert leaves[0].subject is p.names[0]
        assert leaves[1].subject is p.names[0]

    def test_parens_limit_scope(self):
        p = parse_process("(new x x![]) | y![]")
        assert isinstance(p, Par)
        assert isinstance(p.left, New)

    def test_free_names_recorded(self):
        parsed = parse_program("print![42]")
        assert "print" in parsed.free_names

    def test_same_free_name_shared(self):
        p = parse_process("x![1] | x?(w) = 0")
        leaves = flatten_par(p)
        assert leaves[0].subject is leaves[1].subject

    def test_shadowing(self):
        p = parse_process("new x (new x x![]) | x![]")
        assert isinstance(p, New)
        outer = p.names[0]
        left, right = flatten_par(p.body)
        assert isinstance(left, New)
        inner_msg = left.body
        assert inner_msg.subject is left.names[0]
        assert inner_msg.subject is not outer
        assert right.subject is outer

    def test_duplicate_binder_rejected(self):
        with pytest.raises(ParseError):
            parse_process("new x x x![]")


class TestDef:
    def test_simple_def(self):
        p = parse_process("def X(a) = a![] in new y X[y]")
        assert isinstance(p, Def)
        (var,) = p.definitions.clauses
        assert var.hint == "X"

    def test_recursive_def(self):
        p = parse_process("def Loop() = Loop[] in Loop[]")
        assert isinstance(p, Def)
        (var,) = p.definitions.clauses
        clause = p.definitions.clauses[var]
        assert isinstance(clause.body, Instance)
        assert clause.body.classref is var

    def test_mutual_recursion(self):
        p = parse_process(
            "def Ping(n) = Pong[n] and Pong(n) = Ping[n] in Ping[0]")
        vars_ = list(p.definitions.clauses)
        assert [v.hint for v in vars_] == ["Ping", "Pong"]
        ping_body = p.definitions.clauses[vars_[0]].body
        assert isinstance(ping_body, Instance)
        assert ping_body.classref is vars_[1]

    def test_cell_program(self):
        """The paper's section-2 cell, verbatim syntax."""
        src = """
        def Cell(self, v) =
          self ? { read(r)  = r![v] | Cell[self, v],
                   write(u) = Cell[self, u] }
        in new x Cell[x, 9] | new y Cell[y, true]
        """
        p = parse_process(src)
        assert isinstance(p, Def)
        (cell,) = p.definitions.clauses
        clause = p.definitions.clauses[cell]
        assert [n.hint for n in clause.params] == ["self", "v"]
        assert isinstance(clause.body, Object)
        assert set(clause.body.methods) == {Label("read"), Label("write")}

    def test_duplicate_class_rejected(self):
        with pytest.raises(ParseError):
            parse_process("def X() = 0 and X() = 0 in 0")

    def test_nested_def_in_clause_body(self):
        p = parse_process("def X() = def Y() = 0 in Y[] in X[]")
        assert isinstance(p, Def)
        (x,) = p.definitions.clauses
        inner = p.definitions.clauses[x].body
        assert isinstance(inner, Def)

    def test_if_with_and_in_clause_body(self):
        # Boolean 'and' inside an if-condition must not terminate the clause.
        p = parse_process(
            "def X(a, b) = if a and b then x![] else 0 in X[true, false]")
        assert isinstance(p, Def)
        (x,) = p.definitions.clauses
        body = p.definitions.clauses[x].body
        assert isinstance(body, If)


class TestClausePrePass:
    """The pass that finds where each clause of a ``def`` group ends
    (its ``and`` / ``in`` at bracket depth 0) before any body is parsed,
    so that every clause can name every class of its group."""

    @staticmethod
    def clauses(src):
        p = parse_process(src)
        assert isinstance(p, Def)
        return {v.hint: m.body for v, m in p.definitions.clauses.items()}

    def test_boolean_and_in_if_condition(self):
        bodies = self.clauses(
            "def A(x, y) = if x > 1 and not y < 2 or x == y then A[x - 1, y]"
            " else 0 and B() = A[3, 1] in B[]")
        assert list(bodies) == ["A", "B"]
        cond = bodies["A"].condition
        assert cond.op == "or" and cond.left.op == "and"

    def test_and_inside_brackets(self):
        bodies = self.clauses(
            "def A(x) = x![(true and false), x and x] | x?{ m(a) = "
            "a![a and a] } and B() = 0 in 0")
        assert list(bodies) == ["A", "B"]
        msg = flatten_par(bodies["A"])[0]
        assert [arg.op for arg in msg.args] == ["and", "and"]

    def test_nested_def_let_import_in_clause_body(self):
        bodies = self.clauses(
            "def A(s) = def C(y) = y![1] and D() = 0 in "
            "let w = s!get[1] in import z from site in C[z] | w![] "
            "and B() = if true then def E() = 0 in E[] else 0 in A[q] | B[]")
        assert list(bodies) == ["A", "B"]
        nested = bodies["A"]
        assert isinstance(nested, Def)
        assert [v.hint for v in nested.definitions.clauses] == ["C", "D"]
        assert isinstance(nested.body, New)          # the let's reply
        assert isinstance(bodies["B"], If)

    def test_forward_reference_to_later_clause(self):
        p = parse_process("def A(x) = B[x + 1] and B(y) = y![] in A[1]")
        a, b = p.definitions.clauses
        body = p.definitions.clauses[a].body
        assert isinstance(body, Instance) and body.classref is b

    @pytest.mark.parametrize("src, message", [
        ("def X() = x![1]",
         "1:16: unterminated def: expected 'in'"),
        ("def X() = x![1]) and Y() = 0 in 0",
         "1:16: unbalanced bracket in def body"),
        ("def A(x) = if x > 1 in 0",
         "1:25: unterminated 'if': expected 'then'"),
        ("def A(x) = let w = s!get[x] and 0",
         "1:34: unterminated construct: expected 'in'"),
        ("def A(x) = if (x > 1)) then 0 else 0 and B() = 0 in 0",
         "1:22: unbalanced bracket in def body"),
        ("def A(x) = def C() = 0) in 0 and B() = 0 in 0",
         "1:23: unbalanced bracket in def body"),
        ("def A(x) =\n  import y from s) in y![x] and B() = 0 in 0",
         "2:18: unbalanced bracket in def body"),
    ])
    def test_errors(self, src, message):
        with pytest.raises(ParseError) as info:
            parse_process(src)
        assert str(info.value) == message


class TestIfLet:
    def test_if(self):
        p = parse_process("if 1 < 2 then x![] else y![]")
        assert isinstance(p, If)

    def test_if_nested(self):
        p = parse_process("if true then if false then 0 else 0 else 0")
        assert isinstance(p, If)
        assert isinstance(p.then_branch, If)

    def test_let_desugars(self):
        # let d = db!newChunk[] in print![d]
        p = parse_process("let d = db!newChunk[] in print![d]")
        assert isinstance(p, New)  # new r (...)
        req, cont = flatten_par(p.body)
        assert isinstance(req, Message)
        assert req.label == Label("newChunk")
        assert req.args == (p.names[0],)  # reply name appended
        assert isinstance(cont, Object)
        assert set(cont.methods) == {VAL}

    def test_let_with_val_label(self):
        p = parse_process("let z = x![1] in 0")
        req, _ = flatten_par(p.body)
        assert req.label == VAL
        assert req.args[0] == Lit(1)


class TestExpressions:
    def _arg(self, src):
        p = parse_process(f"x![{src}]")
        return p.args[0]

    def test_precedence_mul_add(self):
        from repro.core import BinOp

        e = self._arg("1 + 2 * 3")
        assert isinstance(e, BinOp) and e.op == "+"
        assert isinstance(e.right, BinOp) and e.right.op == "*"

    def test_parens(self):
        from repro.core import BinOp

        e = self._arg("(1 + 2) * 3")
        assert isinstance(e, BinOp) and e.op == "*"

    def test_comparison(self):
        from repro.core import BinOp

        e = self._arg("n <= 10")
        assert isinstance(e, BinOp) and e.op == "<="

    def test_bool_precedence(self):
        from repro.core import BinOp

        e = self._arg("true or false and true")
        assert isinstance(e, BinOp) and e.op == "or"

    def test_not(self):
        from repro.core import UnOp

        e = self._arg("not true")
        assert isinstance(e, UnOp) and e.op == "not"

    def test_unary_minus(self):
        from repro.core import UnOp

        e = self._arg("-n")
        assert isinstance(e, UnOp) and e.op == "-"

    def test_string_arg(self):
        e = self._arg('"hello"')
        assert e == Lit("hello")

    def test_left_assoc(self):
        from repro.core import BinOp

        e = self._arg("10 - 3 - 2")
        assert isinstance(e, BinOp)
        assert isinstance(e.left, BinOp)


class TestExportImport:
    def test_export_new(self):
        parsed = parse_program("export new svc svc?(w) = 0")
        prog = parsed.program
        assert isinstance(prog, ExportNew)
        assert [n.hint for n in prog.names] == ["svc"]

    def test_export_def(self):
        parsed = parse_program("export def Applet(x) = x![1] in 0")
        prog = parsed.program
        assert isinstance(prog, ExportDef)

    def test_import_name(self):
        parsed = parse_program("import svc from server in svc![1]")
        prog = parsed.program
        assert isinstance(prog, ImportName)
        assert str(prog.site) == "server"
        body = prog.body
        assert isinstance(body, Message)
        assert body.subject is prog.name

    def test_import_class(self):
        parsed = parse_program("import Applet from server in Applet[1]")
        prog = parsed.program
        assert isinstance(prog, ImportClass)
        body = prog.body
        assert isinstance(body, Instance)
        assert body.classref is prog.var

    def test_parse_process_rejects_export(self):
        with pytest.raises(ParseError):
            parse_process("export new x 0")

    def test_applet_server_program(self):
        """Section 4's code-shipping applet server, near-verbatim."""
        src = """
        def AppletServer(self) =
          self ? {
            applet_j(p) = (p?(x) = x![42]) | AppletServer[self]
          }
        in export new appletserver
           AppletServer[appletserver]
        """
        parsed = parse_program(src)
        prog = parsed.program
        assert isinstance(prog, Def)
        body = prog.body
        assert isinstance(body, ExportNew)

    def test_seti_client_program(self):
        src = "import Install from seti in Install[]"
        parsed = parse_program(src)
        assert isinstance(parsed.program, ImportClass)


class TestErrors:
    def test_unexpected_trailing_input(self):
        with pytest.raises(ParseError):
            parse_process("x![] y![]")

    def test_missing_bracket(self):
        with pytest.raises(ParseError):
            parse_process("x!go[1")

    def test_missing_in(self):
        with pytest.raises(ParseError):
            parse_process("def X() = 0 X[]")

    def test_missing_else(self):
        with pytest.raises(ParseError):
            parse_process("if true then 0")

    def test_bad_method_sep(self):
        with pytest.raises(ParseError):
            parse_process("x?{ m() = 0 n() = 0 }")

    def test_error_mentions_position(self):
        try:
            parse_process("new x\n  !")
        except ParseError as e:
            assert "2:" in str(e)
        else:  # pragma: no cover
            pytest.fail("expected ParseError")
