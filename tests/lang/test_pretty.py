"""Round-trip tests: pretty(parse(src)) re-parses to an alpha-equivalent term."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Lit,
    LocatedName,
    Name,
    Site,
    alpha_equal,
    flatten_par,
    val_msg,
)
from repro.lang import is_printable_source, parse_process, parse_program, pretty


ROUND_TRIP_SOURCES = [
    "0",
    "x![9]",
    "x!go[1, true, \"s\"]",
    "x?(w) = 0",
    "x?{ read(r) = r![1], write(u) = 0 }",
    "new x x![1] | x?(w) = 0",
    "new x y z x![] | y![] | z![]",
    "(new x x![]) | (new x x![])",
    "def Cell(self, v) = self?{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] } in new x Cell[x, 9] | new y Cell[y, true]",
    "def Even(n) = Odd[n - 1] and Odd(n) = Even[n - 1] in Even[10]",
    "if 1 < 2 then x![] else y![]",
    "if a and b or not c then 0 else 0",
    "let d = db!newChunk[] in print![d]",
    "x![1 + 2 * 3]",
    "x![(1 + 2) * 3]",
    "x![-n]",
    'x!say["hi\\n"]',
    "def Loop(n) = if n > 0 then Loop[n - 1] else 0 in Loop[10]",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_round_trip_alpha_equal(src):
    p1 = parse_process(src)
    printed = pretty(p1)
    p2 = parse_process(printed)
    # Free names differ by object identity between two parses; compare
    # the second round-trip instead, where the printer has already
    # canonicalised lexemes.
    printed2 = pretty(p2)
    assert printed == printed2
    # Closed terms must be alpha-equal outright.
    from repro.core import free_names

    if not free_names(p1):
        assert alpha_equal(p1, p2)


@pytest.mark.parametrize("src", [
    "export new svc svc?(w) = 0",
    "export def Applet(x) = x![1] in 0",
    "import svc from server in svc![1]",
    "import Applet from server in Applet[1]",
])
def test_round_trip_site_programs(src):
    parsed1 = parse_program(src)
    printed = pretty(parsed1.program)
    parsed2 = parse_program(printed)
    assert pretty(parsed2.program) == printed


def test_val_object_left_of_par_keeps_its_scope():
    # The sugar's body extends to the right: printed bare, ``x?(r) = 0``
    # followed by ``| 0`` would re-parse with ``| 0`` inside the body.
    src = "(x![1] | x?(r) = 0) | 0"
    printed = pretty(parse_process(src))
    assert pretty(parse_process(printed)) == printed
    kinds = lambda p: [type(q) for q in flatten_par(p)]  # noqa: E731
    assert kinds(parse_process(printed)) == kinds(parse_process(src))


class TestPrintability:
    def test_plain_term_printable(self):
        p = parse_process("new x x![1]")
        assert is_printable_source(p)

    def test_located_term_not_printable(self):
        p = val_msg(LocatedName(Site("s"), Name("x")), Lit(1))
        assert not is_printable_source(p)

    def test_located_term_prints_with_site_notation(self):
        p = val_msg(LocatedName(Site("s"), Name("x")), Lit(1))
        assert "s.x" in pretty(p)


class TestNamerDisambiguation:
    def test_distinct_names_same_hint(self):
        a, b = Name("x"), Name("x")
        from repro.core import par

        printed = pretty(par(val_msg(a), val_msg(b)))
        # Two different free names must print with two different lexemes.
        lines = [l.strip("| ").strip() for l in printed.splitlines()]
        assert len(set(lines)) == 2

    def test_keyword_hint_avoided(self):
        n = Name("new")
        printed = pretty(val_msg(n))
        assert not printed.startswith("new!")

    def test_shadowed_binders_disambiguated(self):
        src = "new x (new x x![]) | x![]"
        p = parse_process(src)
        printed = pretty(p)
        p2 = parse_process(printed)
        assert alpha_equal(p, p2)


# -- def groups, generated ---------------------------------------------------
#
# Whole programs built from the constructs a clause body can hold: the
# parser finds each clause's end in a pre-pass (every ``and`` / ``in`` at
# bracket depth 0 that is not an ``if`` condition's or a nested
# construct's), so the bodies mix exactly those.

_CMP = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
_ARITH = st.sampled_from(["+", "-", "*"])


@st.composite
def _def_groups(draw):
    classes = [f"K{i}" for i in range(draw(st.integers(1, 30)))]
    fresh = iter(range(10 ** 6))

    def expr(scope, depth):
        if depth == 0 or draw(st.booleans()):
            return draw(st.one_of(st.integers(0, 999).map(str),
                                  st.sampled_from(scope)))
        return (f"({expr(scope, depth - 1)} {draw(_ARITH)} "
                f"{expr(scope, depth - 1)})")

    def cond(scope, depth):
        kind = draw(st.integers(0, 3 if depth else 0))
        if kind == 0:
            return f"{expr(scope, 1)} {draw(_CMP)} {expr(scope, 1)}"
        if kind == 1:
            return f"not {cond(scope, depth - 1)}"
        op = "and" if kind == 2 else "or"
        return f"({cond(scope, depth - 1)} {op} {cond(scope, depth - 1)})"

    def args(scope, n):
        return ", ".join(expr(scope, 1) for _ in range(n))

    def proc(scope, depth):
        kind = draw(st.integers(0, 9 if depth else 2))
        var = draw(st.sampled_from(scope))
        if kind == 0:
            return "0"
        if kind == 1:
            return f"{var}!m[{args(scope, draw(st.integers(0, 2)))}]"
        if kind == 2:
            return f"{draw(st.sampled_from(classes))}[{args(scope, 2)}]"
        if kind == 3:
            return (f"if {cond(scope, 2)} then {proc(scope, depth - 1)} "
                    f"else {proc(scope, depth - 1)}")
        if kind == 4:
            v = f"n{next(fresh)}"
            return f"(new {v} {proc(scope + [v], depth - 1)})"
        if kind == 5:
            return (f"{var}?{{ m(p) = {proc(scope + ['p'], depth - 1)}, "
                    f"k() = {proc(scope, depth - 1)} }}")
        if kind == 6:
            return f"({proc(scope, depth - 1)} | {proc(scope, depth - 1)})"
        if kind == 7:
            v = f"w{next(fresh)}"
            return (f"(let {v} = {var}!get[{expr(scope, 1)}] in "
                    f"{proc(scope + [v], depth - 1)})")
        if kind == 8:
            inner = f"L{next(fresh)}"
            return (f"(def {inner}(q) = {proc(scope + ['q'], depth - 1)} in "
                    f"{inner}[{expr(scope, 1)}])")
        return f"{var}?(r) = {proc(scope + ['r'], depth - 1)}"

    clauses = [f"{c}(a, b) = {proc(['a', 'b', 'out'], 3)}" for c in classes]
    return ("def " + "\nand ".join(clauses)
            + f"\nin {classes[0]}[1, 2] | {proc(['out'], 2)}")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_def_groups())
def test_def_group_round_trip(src):
    printed = pretty(parse_process(src))
    assert pretty(parse_process(printed)) == printed
