"""Pretty-printer: core terms back to DiTyCO concrete syntax.

The printer emits source text that re-parses to an alpha-equivalent
term (round-trip property tested in ``tests/lang``).  Binders are
printed with their hints, disambiguated with numeric suffixes whenever
two visible names share a lexeme.  The paper's abbreviations are used
on output: ``val``-labelled messages print as ``x![v]`` and
single-``val``-method objects as ``x?(y) = P``.

Located identifiers cannot be written in the source language, so a
term containing them (a term already shipped between sites) is printed
with the explicit ``site.name`` notation of the calculus and flagged
as non-reparsable via :func:`is_printable_source`.
"""

from __future__ import annotations

from repro.core.names import ClassVar, LocatedName, Name, VAL
from repro.core.network import ExportDef, ExportNew, ImportClass, ImportName, SiteProgram
from repro.core.subst import free_located_classvars, free_located_names
from repro.core.terms import (
    BinOp,
    Def,
    Expr,
    If,
    Instance,
    Lit,
    Message,
    New,
    Nil,
    Object,
    Par,
    Process,
    UnOp,
)

_KEYWORDS_TO_AVOID = {
    "new", "def", "in", "and", "if", "then", "else", "let",
    "export", "import", "from", "not", "or", "true", "false", "val",
}


class _Namer:
    """Assigns printable lexemes to Name/ClassVar objects, avoiding
    collisions between distinct identifiers with equal hints."""

    def __init__(self) -> None:
        self.assigned: dict[object, str] = {}
        self.used: set[str] = set()

    def lexeme(self, ident: Name | ClassVar) -> str:
        key = id(ident)
        if key in self.assigned:
            return self.assigned[key]
        base = ident.hint or ("X" if isinstance(ident, ClassVar) else "x")
        if isinstance(ident, ClassVar):
            base = base[0].upper() + base[1:]
        else:
            base = base[0].lower() + base[1:]
        base = "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in base)
        if base in _KEYWORDS_TO_AVOID:
            base = base + "_"
        candidate = base
        counter = 2
        while candidate in self.used:
            candidate = f"{base}{counter}"
            counter += 1
        self.used.add(candidate)
        self.assigned[key] = candidate
        return candidate


def is_printable_source(p: Process) -> bool:
    """True iff ``p`` contains no located identifiers (and can therefore
    be printed as legal DiTyCO source)."""
    return not free_located_names(p) and not free_located_classvars(p)


def pretty(p: SiteProgram, indent: int = 0) -> str:
    """Render a process (or site program) as DiTyCO source text."""
    namer = _Namer()
    return _proc(p, namer, indent)


def pretty_expr(e: Expr) -> str:
    """Render one expression."""
    return _expr(e, _Namer())


def _lit(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    return repr(v)


def _expr(e: Expr, namer: _Namer) -> str:
    if isinstance(e, Lit):
        return _lit(e.value)
    if isinstance(e, Name):
        return namer.lexeme(e)
    if isinstance(e, LocatedName):
        return f"{e.site}.{namer.lexeme(e.name)}"
    if isinstance(e, BinOp):
        return f"({_expr(e.left, namer)} {e.op} {_expr(e.right, namer)})"
    if isinstance(e, UnOp):
        if e.op == "not":
            return f"(not {_expr(e.operand, namer)})"
        return f"(-{_expr(e.operand, namer)})"
    raise TypeError(f"not an expression: {e!r}")


def _subject(s, namer: _Namer) -> str:
    if isinstance(s, Name):
        return namer.lexeme(s)
    return f"{s.site}.{namer.lexeme(s.name)}"


def _classref(c, namer: _Namer) -> str:
    if isinstance(c, ClassVar):
        return namer.lexeme(c)
    return f"{c.site}.{namer.lexeme(c.var)}"


def _args(args: tuple[Expr, ...], namer: _Namer) -> str:
    return ", ".join(_expr(a, namer) for a in args)


def _proc(p: SiteProgram, namer: _Namer, indent: int) -> str:
    pad = "  " * indent
    if isinstance(p, Nil):
        return f"{pad}0"
    if isinstance(p, Par):
        parts = _par_leaves(p)
        rendered = [_term(q, namer, indent) for q in parts]
        sep = f"\n{pad}| "
        first = rendered[0].lstrip() if rendered else "0"
        rest = [r.lstrip() for r in rendered[1:]]
        return pad + first + "".join(f"\n{pad}| {r}" for r in rest)
    return _term(p, namer, indent)


def _par_leaves(p: Process) -> list[Process]:
    out: list[Process] = []
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, Par):
            stack.append(q.right)
            stack.append(q.left)
        else:
            out.append(q)
    return out


def _term(p: SiteProgram, namer: _Namer, indent: int) -> str:
    """Render one parallel factor.  Binder-style constructs are wrapped
    in parentheses so the output re-parses with the same grouping."""
    pad = "  " * indent
    if isinstance(p, Nil):
        return f"{pad}0"
    if isinstance(p, Message):
        if p.label == VAL:
            return f"{pad}{_subject(p.subject, namer)}![{_args(p.args, namer)}]"
        return (f"{pad}{_subject(p.subject, namer)}!{p.label}"
                f"[{_args(p.args, namer)}]")
    if isinstance(p, Instance):
        return f"{pad}{_classref(p.classref, namer)}[{_args(p.args, namer)}]"
    if isinstance(p, Object):
        subj = _subject(p.subject, namer)
        if set(p.methods) == {VAL}:
            m = p.methods[VAL]
            params = ", ".join(namer.lexeme(x) for x in m.params)
            body = _proc(m.body, namer, indent + 1).lstrip()
            # The sugar's body runs as far right as a binder's does.
            return f"{pad}({subj}?({params}) = {body})"
        methods = []
        for label, m in p.methods.items():
            params = ", ".join(namer.lexeme(x) for x in m.params)
            body = _proc(m.body, namer, indent + 2).lstrip()
            methods.append(f"{'  ' * (indent + 1)}{label}({params}) = ({body})")
        inner = ",\n".join(methods)
        return f"{pad}{subj}?{{\n{inner}\n{pad}}}"
    if isinstance(p, New):
        names = " ".join(namer.lexeme(n) for n in p.names)
        body = _proc(p.body, namer, indent + 1)
        return f"{pad}(new {names}\n{body})"
    if isinstance(p, Def):
        clauses = []
        for i, (var, m) in enumerate(p.definitions.clauses.items()):
            kw = "def" if i == 0 else "and"
            params = ", ".join(namer.lexeme(x) for x in m.params)
            body = _proc(m.body, namer, indent + 1).lstrip()
            clauses.append(f"{pad}{kw} {namer.lexeme(var)}({params}) = ({body})")
        body = _proc(p.body, namer, indent + 1)
        return "(" + "\n".join(clauses) + f"\n{pad}in\n{body})"
    if isinstance(p, If):
        cond = _expr(p.condition, namer)
        t = _proc(p.then_branch, namer, indent + 1)
        e = _proc(p.else_branch, namer, indent + 1)
        return f"{pad}(if {cond} then\n{t}\n{pad}else\n{e})"
    if isinstance(p, ExportNew):
        names = " ".join(namer.lexeme(n) for n in p.names)
        body = _proc(p.body, namer, indent + 1)
        return f"{pad}(export new {names}\n{body})"
    if isinstance(p, ExportDef):
        clauses = []
        for i, (var, m) in enumerate(p.definitions.clauses.items()):
            kw = "export def" if i == 0 else "and"
            params = ", ".join(namer.lexeme(x) for x in m.params)
            body = _proc(m.body, namer, indent + 1).lstrip()
            clauses.append(f"{pad}{kw} {namer.lexeme(var)}({params}) = ({body})")
        body = _proc(p.body, namer, indent + 1)
        return "(" + "\n".join(clauses) + f"\n{pad}in\n{body})"
    if isinstance(p, ImportName):
        body = _proc(p.body, namer, indent + 1)
        return f"{pad}(import {namer.lexeme(p.name)} from {p.site} in\n{body})"
    if isinstance(p, ImportClass):
        body = _proc(p.body, namer, indent + 1)
        return f"{pad}(import {namer.lexeme(p.var)} from {p.site} in\n{body})"
    raise TypeError(f"not a process: {p!r}")
