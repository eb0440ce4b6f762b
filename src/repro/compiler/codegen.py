"""Code generation: core-calculus terms -> TyCO VM byte-code.

One :class:`~repro.compiler.assembly.CodeBlock` is emitted per method
body, parallel branch and class clause, preserving the nested block
structure of the source (section 5).  Variables are resolved to frame
slots at compile time; the frame of every block is laid out as
``[captured env | parameters | locals]``.

Free names of the program become *externals*: the main block receives
one environment slot per distinct free lexeme, and the executing site
binds each lexeme to an ambient channel (``print`` and friends are
builtin console channels, exported/imported names come from the name
service).

Objects capture the free variables of all their method bodies by value
(one shared environment tuple), classes capture the free variables of
all their clause bodies plus the class references of their own group --
this shared, partially cyclic environment is built by the ``DEFGROUP``
instruction at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.names import ClassVar, Name
from repro.core.network import (
    ExportDef,
    ExportNew,
    ImportClass,
    ImportName,
    SiteProgram,
)
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
    flatten_par,
)

from .assembly import (
    NOARG_INSTRS,
    ClassGroup,
    CodeBlock,
    Instr,
    ObjectCode,
    Op,
    Program,
)


class CompileError(Exception):
    """A term cannot be compiled (e.g. located identifiers in source)."""


_BINOP_CODE = {
    "+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "/": Op.DIV, "%": Op.MOD,
    "<": Op.LT, "<=": Op.LE, ">": Op.GT, ">=": Op.GE,
    "==": Op.EQ, "!=": Op.NE, "and": Op.BAND, "or": Op.BOR,
}


@dataclass(slots=True)
class _Ctx:
    """Per-block compilation context."""

    names: dict[Name, int]                 # name -> frame slot
    classes: dict[ClassVar, int]           # classvar -> frame slot (classref)
    nfree: int
    nparams: int
    next_slot: int
    instrs: list[Instr] = field(default_factory=list)
    high_water: int = 0

    def alloc(self) -> int:
        slot = self.next_slot
        self.next_slot += 1
        self.high_water = max(self.high_water, self.next_slot)
        return slot

    def emit(self, op: Op, *args) -> None:
        # No-arg instructions (HALT, the operators) are interned: one
        # Instr per opcode program-wide keeps blocks small and makes
        # equality checks on relinked code cheap.
        if args:
            self.instrs.append(Instr(op, args))
        else:
            self.instrs.append(NOARG_INSTRS[op])

    def frame_size(self) -> int:
        return max(self.high_water, self.nfree + self.nparams)


def free_vars_table(
        term: SiteProgram,
) -> dict[int, tuple[tuple[Name, ...], tuple[ClassVar, ...]]]:
    """The free names and free class variables, each sorted by serial,
    of every subterm codegen captures an environment for, keyed by
    ``id``: each leaf of a parallel composition, each method and clause
    body, and the program body under its export/import wrappers (its
    free names are the externals).

    One bottom-up walk: a subterm's sets are built from its children's,
    where :func:`repro.core.subst.free_names` and ``free_classvars``
    walk the subtree again for every capture above it.  They hold the
    same identifiers (``tests/compiler/test_free_vars.py``).  The keys
    are ids, so the table is only good while ``term`` lives.
    """
    table = {}
    # The wrappers Compiler._collect_externals looks through.
    body = term
    while isinstance(body, (ExportNew, ImportName, ExportDef, ImportClass)):
        if isinstance(body, ExportDef):
            _clauses(body.definitions.clauses.values(), set(), set(), table)
        body = body.body
    _keep(body, table)
    return table


def _keep(p, table) -> tuple[set[Name], set[ClassVar]]:
    """``_walk(p)``, entered in the table."""
    names, classes = _walk(p, table)
    table[id(p)] = (tuple(sorted(names, key=_serial)),
                    tuple(sorted(classes, key=_serial)))
    return names, classes


def _clauses(methods, names: set[Name], classes: set[ClassVar],
             table) -> None:
    """Add the free variables of the method or clause bodies."""
    for m in methods:
        body_names, body_classes = _keep(m.body, table)
        body_names.difference_update(m.params)
        names |= body_names
        classes |= body_classes


def _walk(p, table) -> tuple[set[Name], set[ClassVar]]:
    """The free names and class variables of ``p``, as new sets."""
    kind = type(p)
    if kind is Message:
        names = {p.subject} if type(p.subject) is Name else set()
        for arg in p.args:
            _expr_names(arg, names)
        return names, set()
    if kind is Instance:
        names = set()
        for arg in p.args:
            _expr_names(arg, names)
        return names, {p.classref} if type(p.classref) is ClassVar else set()
    if kind is Par:
        names, classes = set(), set()
        for leaf in flatten_par(p):
            leaf_names, leaf_classes = _keep(leaf, table)
            names |= leaf_names
            classes |= leaf_classes
        return names, classes
    if kind is New or kind is ExportNew:
        names, classes = _walk(p.body, table)
        names.difference_update(p.names)
        return names, classes
    if kind is Object:
        names, classes = set(), set()
        if type(p.subject) is Name:
            names.add(p.subject)
        _clauses(p.methods.values(), names, classes, table)
        return names, classes
    if kind is Def or kind is ExportDef:
        names, classes = _walk(p.body, table)
        group = p.definitions.clauses
        _clauses(group.values(), names, classes, table)
        classes.difference_update(group)
        return names, classes
    if kind is If:
        names, classes = _walk(p.then_branch, table)
        else_names, else_classes = _walk(p.else_branch, table)
        names |= else_names
        classes |= else_classes
        _expr_names(p.condition, names)
        return names, classes
    if kind is Nil:
        return set(), set()
    if kind is ImportName:
        names, classes = _walk(p.body, table)
        names.discard(p.name)
        return names, classes
    if kind is ImportClass:
        names, classes = _walk(p.body, table)
        classes.discard(p.var)
        return names, classes
    raise TypeError(f"not a process: {p!r}")


def _expr_names(e: Expr, out: set[Name]) -> None:
    kind = type(e)
    if kind is Name:
        out.add(e)
    elif kind is BinOp:
        _expr_names(e.left, out)
        _expr_names(e.right, out)
    elif kind is UnOp:
        _expr_names(e.operand, out)
    # Lit and LocatedName contribute no free simple names.


def _serial(var: "Name | ClassVar") -> int:
    return var.serial


class Compiler:
    """Compiles one site program into a :class:`Program` area."""

    def __init__(self, source_name: str = "<program>") -> None:
        self.program = Program(source_name=source_name)
        self.fork_count = 0
        #: free_vars_table of the term being compiled, for that long.
        self._free: dict[int, tuple] = {}

    # -- public API ----------------------------------------------------------

    def compile(self, term: SiteProgram) -> Program:
        self._free = free_vars_table(term)
        try:
            return self._compile(term)
        finally:
            self._free = {}

    def _compile(self, term: SiteProgram) -> Program:
        externals = self._collect_externals(term)
        self.program.externals = [n.hint for n in externals]
        ctx = _Ctx(
            names={n: i for i, n in enumerate(externals)},
            classes={},
            nfree=len(externals),
            nparams=0,
            next_slot=len(externals),
        )
        self._compile_proc(term, ctx)
        ctx.emit(Op.HALT)
        main = CodeBlock(
            instrs=tuple(ctx.instrs),
            nfree=ctx.nfree,
            nparams=0,
            frame_size=ctx.frame_size(),
            name="main",
        )
        self.program.main = self.program.add_block(main)
        return self.program

    # -- externals ---------------------------------------------------------------

    def _collect_externals(self, term: SiteProgram) -> list[Name]:
        """Free names of the program in first-occurrence order.

        Export/import wrappers bind their identifiers, so we unwrap
        them before computing free names.
        """
        binders: list[Name] = []
        body: SiteProgram = term
        while True:
            if isinstance(body, ExportNew):
                binders.extend(body.names)
                body = body.body
            elif isinstance(body, (ImportName,)):
                binders.append(body.name)
                body = body.body
            elif isinstance(body, (ExportDef, ImportClass)):
                body = body.body
            else:
                break
        # Deterministic order: by serial (creation order ~ source order).
        bound = set(binders)
        return [n for n in self._free[id(body)][0] if n not in bound]

    # -- processes -----------------------------------------------------------------

    def _compile_proc(self, p: SiteProgram, ctx: _Ctx) -> None:
        if isinstance(p, Nil):
            return
        if isinstance(p, Par):
            leaves = flatten_par(p)
            if not leaves:
                return
            # Fork every branch but the first; continue inline with it.
            for branch in leaves[1:]:
                self._compile_fork(branch, ctx)
            self._compile_proc(leaves[0], ctx)
            return
        if isinstance(p, New):
            for n in p.names:
                slot = ctx.alloc()
                ctx.names[n] = slot
                ctx.emit(Op.NEWCH, slot)
            self._compile_proc(p.body, ctx)
            return
        if isinstance(p, Message):
            self._push_subject(p.subject, ctx)
            for a in p.args:
                self._compile_expr(a, ctx)
            ctx.emit(Op.TRMSG, p.label.text, len(p.args))
            return
        if isinstance(p, Object):
            self._compile_object(p, ctx)
            return
        if isinstance(p, Instance):
            cref = p.classref
            if not isinstance(cref, ClassVar):
                raise CompileError(
                    f"located class reference {cref} cannot appear in source")
            slot = ctx.classes.get(cref)
            if slot is None:
                raise CompileError(f"unbound class variable {cref}")
            ctx.emit(Op.PUSHL, slot)
            for a in p.args:
                self._compile_expr(a, ctx)
            ctx.emit(Op.INSTOF, len(p.args))
            return
        if isinstance(p, Def):
            self._compile_def(p.definitions.clauses, ctx, export_hints=None)
            self._compile_proc(p.body, ctx)
            return
        if isinstance(p, If):
            self._compile_expr(p.condition, ctx)
            jmpf_at = len(ctx.instrs)
            ctx.emit(Op.JMPF, -1)  # patched below
            self._compile_proc(p.then_branch, ctx)
            jmp_at = len(ctx.instrs)
            ctx.emit(Op.JMP, -1)
            else_target = len(ctx.instrs)
            self._compile_proc(p.else_branch, ctx)
            end_target = len(ctx.instrs)
            ctx.instrs[jmpf_at] = Instr(Op.JMPF, (else_target,))
            ctx.instrs[jmp_at] = Instr(Op.JMP, (end_target,))
            return
        if isinstance(p, ExportNew):
            for n in p.names:
                slot = ctx.names.get(n)
                if slot is None:
                    slot = ctx.alloc()
                    ctx.names[n] = slot
                    ctx.emit(Op.NEWCH, slot)
                ctx.emit(Op.EXPORT, slot, n.hint)
            self._compile_proc(p.body, ctx)
            return
        if isinstance(p, ExportDef):
            hints = {var: var.hint for var in p.definitions.clauses}
            self._compile_def(p.definitions.clauses, ctx, export_hints=hints)
            self._compile_proc(p.body, ctx)
            return
        if isinstance(p, ImportName):
            slot = ctx.names.get(p.name)
            if slot is None:
                slot = ctx.alloc()
                ctx.names[p.name] = slot
            ctx.emit(Op.IMPORT, p.name.hint, p.site.text, slot)
            self._compile_proc(p.body, ctx)
            return
        if isinstance(p, ImportClass):
            slot = ctx.alloc()
            ctx.classes[p.var] = slot
            ctx.emit(Op.IMPORTCLASS, p.var.hint, p.site.text, slot)
            self._compile_proc(p.body, ctx)
            return
        raise CompileError(f"cannot compile {p!r}")

    # -- helpers --------------------------------------------------------------------

    def _push_subject(self, subject, ctx: _Ctx) -> None:
        if not isinstance(subject, Name):
            raise CompileError(
                f"located name {subject} cannot appear in source code")
        slot = ctx.names.get(subject)
        if slot is None:
            raise CompileError(f"unbound name {subject}")
        ctx.emit(Op.PUSHL, slot)

    def _free_vars_of(self, p: Process, ctx: _Ctx) -> tuple[list[Name], list[ClassVar]]:
        """Variables of ``p`` that must be captured from ``ctx``."""
        free, classes = self._free[id(p)]
        fns = [n for n in free if n in ctx.names]
        # Anything free but unknown to the context is a genuine error --
        # external names were pre-bound in the main context and inner
        # contexts inherit captures explicitly.
        unknown = [n for n in free if n not in ctx.names]
        if unknown:
            raise CompileError(f"unbound name(s) {unknown} in nested block")
        fcs = list(classes)
        missing = [c for c in fcs if c not in ctx.classes]
        if missing:
            raise CompileError(f"unbound class variable(s) {missing}")
        return fns, fcs

    def _capture_env(self, fns: list[Name], fcs: list[ClassVar], ctx: _Ctx) -> int:
        """Push captured values; return the capture count."""
        for n in fns:
            ctx.emit(Op.PUSHL, ctx.names[n])
        for c in fcs:
            ctx.emit(Op.PUSHL, ctx.classes[c])
        return len(fns) + len(fcs)

    def _child_ctx(self, fns: list[Name], fcs: list[ClassVar],
                   params: tuple[Name, ...]) -> _Ctx:
        names = {n: i for i, n in enumerate(fns)}
        classes = {c: len(fns) + i for i, c in enumerate(fcs)}
        nfree = len(fns) + len(fcs)
        for j, prm in enumerate(params):
            names[prm] = nfree + j
        return _Ctx(
            names=names,
            classes=classes,
            nfree=nfree,
            nparams=len(params),
            next_slot=nfree + len(params),
        )

    def _compile_block(self, body: Process, fns, fcs, params, name: str) -> int:
        child = self._child_ctx(fns, fcs, params)
        self._compile_proc(body, child)
        child.emit(Op.HALT)
        block = CodeBlock(
            instrs=tuple(child.instrs),
            nfree=child.nfree,
            nparams=child.nparams,
            frame_size=child.frame_size(),
            name=name,
        )
        return self.program.add_block(block)

    def _compile_fork(self, branch: Process, ctx: _Ctx) -> None:
        fns, fcs = self._free_vars_of(branch, ctx)
        block_id = self._compile_block(branch, fns, fcs, (), "fork")
        nfree = self._capture_env(fns, fcs, ctx)
        ctx.emit(Op.FORK, block_id, nfree)
        self.fork_count += 1

    def _compile_object(self, p: Object, ctx: _Ctx) -> None:
        # One shared environment for every method: the union of the
        # bodies' free variables (minus each method's own parameters).
        all_fns: list[Name] = []
        all_fcs: list[ClassVar] = []
        seen_n: set[Name] = set()
        seen_c: set[ClassVar] = set()
        for m in p.methods.values():
            body_free, body_classes = self._free[id(m.body)]
            for n in body_free:
                if n not in seen_n and n not in m.params:
                    if n not in ctx.names:
                        raise CompileError(f"unbound name {n} in method body")
                    seen_n.add(n)
                    all_fns.append(n)
            for c in body_classes:
                if c not in seen_c:
                    if c not in ctx.classes:
                        raise CompileError(f"unbound class variable {c}")
                    seen_c.add(c)
                    all_fcs.append(c)
        methods: dict[str, int] = {}
        for label, m in p.methods.items():
            methods[label.text] = self._compile_block(
                m.body, all_fns, all_fcs, m.params, f"method {label}")
        obj_id = self.program.add_object(
            ObjectCode(methods=methods, name=f"object@{p.subject}"))
        self._push_subject(p.subject, ctx)
        nfree = self._capture_env(all_fns, all_fcs, ctx)
        ctx.emit(Op.TROBJ, obj_id, nfree)

    def _compile_def(self, clauses, ctx: _Ctx, export_hints) -> None:
        group_vars = list(clauses)
        # Captured environment: union of free vars of all clause bodies,
        # minus parameters and the group's own class variables.
        all_fns: list[Name] = []
        all_fcs: list[ClassVar] = []
        seen_n: set[Name] = set()
        seen_c: set[ClassVar] = set()
        for var, m in clauses.items():
            body_free, body_classes = self._free[id(m.body)]
            for n in body_free:
                if n not in seen_n and n not in m.params:
                    if n not in ctx.names:
                        raise CompileError(f"unbound name {n} in class body")
                    seen_n.add(n)
                    all_fns.append(n)
            for c in body_classes:
                if c in clauses or c in seen_c:
                    seen_c.add(c)
                    continue
                if c not in ctx.classes:
                    raise CompileError(f"unbound class variable {c}")
                seen_c.add(c)
                all_fcs.append(c)
        # Clause blocks see: captured names, captured external classes,
        # then the group's own classrefs.  Clause frame layout:
        # [fns | ext classes | group classes | params].
        group_offset = len(all_fns) + len(all_fcs)
        nfree = group_offset + len(group_vars)
        base_names = {n: i for i, n in enumerate(all_fns)}
        base_classes = {c: len(all_fns) + i for i, c in enumerate(all_fcs)}
        for j, gv in enumerate(group_vars):
            base_classes[gv] = group_offset + j
        clause_blocks: list[tuple[str, int]] = []
        for var, m in clauses.items():
            names = dict(base_names)
            for j, prm in enumerate(m.params):
                names[prm] = nfree + j
            child = _Ctx(
                names=names,
                classes=dict(base_classes),
                nfree=nfree,
                nparams=len(m.params),
                next_slot=nfree + len(m.params),
            )
            self._compile_proc(m.body, child)
            child.emit(Op.HALT)
            block = CodeBlock(
                instrs=tuple(child.instrs),
                nfree=child.nfree,
                nparams=child.nparams,
                frame_size=child.frame_size(),
                name=f"class {var.hint}",
            )
            clause_blocks.append((var.hint, self.program.add_block(block)))
        group_id = self.program.add_group(ClassGroup(
            clauses=tuple(clause_blocks),
            nfree=group_offset,
            name=" & ".join(v.hint for v in group_vars),
        ))
        # Allocate destination slots for the classrefs.
        first_slot = ctx.next_slot
        for var in group_vars:
            ctx.classes[var] = ctx.alloc()
        ncaptured = self._capture_env(all_fns, all_fcs, ctx)
        ctx.emit(Op.DEFGROUP, group_id, ncaptured, first_slot)
        if export_hints:
            for index, var in enumerate(group_vars):
                ctx.emit(Op.EXPORTCLASS, group_id, ctx.classes[var],
                         export_hints[var])

    # -- expressions -------------------------------------------------------------------

    def _compile_expr(self, e: Expr, ctx: _Ctx) -> None:
        if isinstance(e, Lit):
            ctx.emit(Op.PUSHC, e.value)
            return
        if isinstance(e, Name):
            slot = ctx.names.get(e)
            if slot is None:
                raise CompileError(f"unbound name {e} in expression")
            ctx.emit(Op.PUSHL, slot)
            return
        if isinstance(e, BinOp):
            self._compile_expr(e.left, ctx)
            self._compile_expr(e.right, ctx)
            ctx.emit(_BINOP_CODE[e.op])
            return
        if isinstance(e, UnOp):
            self._compile_expr(e.operand, ctx)
            ctx.emit(Op.BNOT if e.op == "not" else Op.NEG)
            return
        raise CompileError(f"cannot compile expression {e!r}")


def compile_term(term: SiteProgram, source_name: str = "<program>") -> Program:
    """Compile a core term (or site program) to byte-code."""
    return Compiler(source_name).compile(term)


def compile_source(source: str, source_name: str = "<source>") -> Program:
    """Parse and compile DiTyCO source text."""
    from repro.lang import parse_program

    parsed = parse_program(source)
    return Compiler(source_name).compile(parsed.program)
