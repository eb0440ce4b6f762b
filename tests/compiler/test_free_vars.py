"""Codegen's one-walk free variables equal the calculus' own.

``codegen.free_vars_table`` computes, bottom-up in one walk, the free
names and free class variables of every subterm codegen captures an
environment for, each sorted by serial; ``repro.core.subst.free_names``
/ ``free_classvars`` are the definitions.  The generated terms draw every identifier from a
small shared pool, so one identifier is free in one place and bound in
another, binders shadow, and located identifiers sit beside simple
ones.
"""

from hypothesis import given, settings, strategies as st

from repro.compiler.codegen import Compiler, free_vars_table
from repro.core import (
    BinOp,
    ClassVar,
    Def,
    Definitions,
    ExportDef,
    ExportNew,
    If,
    ImportClass,
    ImportName,
    Instance,
    Label,
    Lit,
    LocatedClassVar,
    LocatedName,
    Message,
    Method,
    Name,
    New,
    Nil,
    Object,
    Par,
    Site,
    UnOp,
)
from repro.core.subst import free_classvars, free_names
from repro.core.terms import flatten_par
from repro.lang import parse_program

NAMES = [Name(h) for h in "abcde"]
CLASSES = [ClassVar(h) for h in "XYZ"]
SITE = Site("s")


def _distinct(pool, max_size):
    return st.lists(st.sampled_from(pool), min_size=1, max_size=max_size,
                    unique_by=id).map(tuple)


_EXPRS = st.recursive(
    st.one_of(st.sampled_from(NAMES), st.integers(0, 9).map(Lit),
              st.sampled_from(NAMES).map(lambda n: LocatedName(SITE, n))),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda lr: BinOp("+", *lr)),
        inner.map(lambda e: UnOp("-", e))),
    max_leaves=4)
_ARGS = st.lists(_EXPRS, max_size=3).map(tuple)
_SUBJECTS = st.one_of(
    st.sampled_from(NAMES),
    st.sampled_from(NAMES).map(lambda n: LocatedName(SITE, n)))
_CLASSREFS = st.one_of(
    st.sampled_from(CLASSES),
    st.sampled_from(CLASSES).map(lambda c: LocatedClassVar(SITE, c)))


def _processes(inner):
    methods = st.builds(Method, _distinct(NAMES, 2), inner)
    clauses = st.dictionaries(st.sampled_from(CLASSES), methods,
                              min_size=1, max_size=2, dict_class=dict)
    return st.one_of(
        st.builds(Par, inner, inner),
        st.builds(New, _distinct(NAMES, 2), inner),
        st.builds(Object, _SUBJECTS,
                  st.dictionaries(st.sampled_from([Label("l"), Label("m")]),
                                  methods, min_size=1, max_size=2)),
        st.builds(Def, clauses.map(Definitions), inner),
        st.builds(If, _EXPRS, inner, inner),
        st.builds(ExportNew, _distinct(NAMES, 2), inner),
        st.builds(ExportDef, clauses.map(Definitions), inner),
        st.builds(ImportName, st.sampled_from(NAMES), st.just(SITE), inner),
        st.builds(ImportClass, st.sampled_from(CLASSES), st.just(SITE),
                  inner),
    )


TERMS = st.recursive(
    st.one_of(st.just(Nil()),
              st.builds(Message, _SUBJECTS, st.just(Label("l")), _ARGS),
              st.builds(Instance, _CLASSREFS, _ARGS)),
    _processes, max_leaves=12)


def oracle(p):
    """What the table must hold for ``p``."""
    def by_serial(found):
        return tuple(sorted(found, key=lambda v: v.serial))
    return by_serial(free_names(p)), by_serial(free_classvars(p))


def captures(term):
    """Every subterm codegen captures from, found without the table:
    the leaves of each parallel composition, each method and clause
    body, and the program body under its export/import wrappers."""
    found = []
    body = term
    while isinstance(body, (ExportNew, ImportName, ExportDef, ImportClass)):
        body = body.body
    found.append(body)
    stack = [term]
    while stack:
        p = stack.pop()
        if isinstance(p, Par):
            found += flatten_par(p)
            stack += [p.left, p.right]
        elif isinstance(p, Object):
            bodies = [m.body for m in p.methods.values()]
            found += bodies
            stack += bodies
        elif isinstance(p, (Def, ExportDef)):
            bodies = [m.body for m in p.definitions.clauses.values()]
            found += bodies
            stack += bodies + [p.body]
        elif isinstance(p, If):
            stack += [p.then_branch, p.else_branch]
        elif isinstance(p, (New, ExportNew, ImportName, ImportClass)):
            stack.append(p.body)
    return found


@settings(max_examples=400, deadline=None)
@given(TERMS)
def test_one_walk_equals_the_calculus(term):
    table = free_vars_table(term)
    points = captures(term)
    assert set(table) == {id(p) for p in points}
    for p in points:
        assert table[id(p)] == oracle(p), p


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([
    "x![1] | y![2]",
    "new r (r?{ get(k, s) = s![k + v] } | q![r])",
    "def A(n) = if n > 0 then A[n - 1] | out![n] else B[n] "
    "and B(m) = m?(w) = A[w] in A[3]",
    "export new svc svc?(r) = r![7] | log![svc]",
    "import K from s in new c (K[c] | c?(v) = print![v])",
    "export def Applet(x) = x![6 * 7] in 0",
    "let w = s!get[1] in print![w + z]",
]), min_size=1, max_size=4).map(" | ".join))
def test_codegen_reads_only_the_table(source):
    # Every capture codegen makes is looked up in the table (a missing
    # entry would raise KeyError), and the table is gone afterwards.
    term = parse_program(source).program
    table = free_vars_table(term)
    for p in captures(term):
        assert table[id(p)] == oracle(p)
    compiler = Compiler()
    compiler.compile(term)
    assert compiler._free == {}
