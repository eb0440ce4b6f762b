"""Recursive-descent parser for the DiTyCO source language.

Grammar (binders extend as far to the right as possible, the usual
pi-calculus convention; parenthesise to limit scope)::

    program  ::=  proc EOF
    proc     ::=  term ('|' term)*
    term     ::=  '0'
               |  'new' ident+ proc
               |  'def' defs 'in' proc
               |  'if' expr 'then' proc 'else' proc
               |  'let' ident '=' call 'in' proc          (sync sugar)
               |  'export' 'new' ident+ proc
               |  'export' 'def' defs 'in' proc
               |  'import' (ident | classid) 'from' ident 'in' proc
               |  classid '[' args ']'                     (instance)
               |  ident '!' label? '[' args ']'            (message)
               |  ident '?' '{' methods '}'                (object)
               |  ident '?' '(' params ')' '=' proc        (val-object sugar)
               |  '(' proc ')'
    defs     ::=  clause ('and' clause)*
    clause   ::=  classid '(' params ')' '=' proc
    methods  ::=  method (',' method)*
    method   ::=  label '(' params ')' '=' proc
    call     ::=  ident '!' label? '[' args ']'
    args     ::=  (expr (',' expr)*)?

The paper's abbreviations are desugared here:

* ``x![v...]``            becomes ``x!val[v...]``;
* ``x?(y...) = P``        becomes ``x?{val(y...) = P}``;
* ``let z = x!l[v] in P`` becomes ``new r (x!l[v r] | r?(z) = P)``.

Expressions use conventional precedence: ``or`` < ``and`` < ``not`` <
comparisons < ``+ -`` < ``* / %`` < unary ``-``.

Unbound lowercase identifiers denote *free names* of the program (the
site's ambient channels, e.g. ``print``); they are recorded in
:attr:`ParsedProgram.free_names`.  Unbound class identifiers are an
error.  Located identifiers cannot be written: "the syntax of the base
language remains unchanged, since we never write located identifiers
explicitly" (section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.names import ClassVar, Label, Name, Site, VAL
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
    Definitions,
    Expr,
    If,
    Instance,
    Lit,
    Message,
    Method,
    New,
    Nil,
    Object,
    Par,
    Process,
    UnOp,
)

from .lexer import Lexer, Token, TokenKind


class ParseError(Exception):
    """Syntactic or scoping error in a DiTyCO program."""

    def __init__(self, message: str, token: Token | None = None) -> None:
        if token is not None:
            message = f"{token.line}:{token.column}: {message}"
        super().__init__(message)
        self.token = token


@dataclass(slots=True)
class ParsedProgram:
    """Result of parsing one site program."""

    program: SiteProgram
    free_names: dict[str, Name] = field(default_factory=dict)


class _Scope:
    """Lexical scope chain mapping lexemes to Name / ClassVar objects."""

    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.parent = parent
        self.names: dict[str, Name] = {}
        self.classes: dict[str, ClassVar] = {}

    def lookup_name(self, hint: str) -> Name | None:
        scope: _Scope | None = self
        while scope is not None:
            if hint in scope.names:
                return scope.names[hint]
            scope = scope.parent
        return None

    def lookup_class(self, hint: str) -> ClassVar | None:
        scope: _Scope | None = self
        while scope is not None:
            if hint in scope.classes:
                return scope.classes[hint]
            scope = scope.parent
        return None


_COMPARE_OPS = {"<", "<=", ">", ">=", "==", "!="}
_ADD_OPS = {"+", "-"}
_MUL_OPS = {"*", "/", "%"}


class Parser:
    """One-pass parser producing core terms (sugar already expanded)."""

    def __init__(self, source: str,
                 tokens: list[Token] | None = None) -> None:
        self.tokens = Lexer(source).tokens() if tokens is None else tokens
        self.index = 0
        self.free_names: dict[str, Name] = {}

    # -- token helpers -----------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.index]

    def _next(self) -> Token:
        tok = self.tokens[self.index]
        # The token list ends in EOF and no step passes it (here, in the
        # skip loops, or restoring an index held before), so
        # ``self.index <= len(self.tokens) - 1``: only lookahead clamps.
        if tok.kind is not TokenKind.EOF:
            self.index += 1
        return tok

    def _at_punct(self, text: str) -> bool:
        tok = self.tokens[self.index]
        return tok.kind is TokenKind.PUNCT and tok.text == text

    def _at_keyword(self, text: str) -> bool:
        tok = self.tokens[self.index]
        return tok.kind is TokenKind.KEYWORD and tok.text == text

    def _expect_punct(self, text: str) -> Token:
        tok = self._next()
        if tok.kind is not TokenKind.PUNCT or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def _expect_keyword(self, text: str) -> Token:
        tok = self._next()
        if tok.kind is not TokenKind.KEYWORD or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def _expect_ident(self) -> Token:
        tok = self._next()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected an identifier, found {tok.text!r}", tok)
        return tok

    def _expect_classid(self) -> Token:
        tok = self._next()
        if tok.kind is not TokenKind.CLASSID:
            raise ParseError(
                f"expected a class identifier, found {tok.text!r}", tok)
        return tok

    # -- entry points ---------------------------------------------------------

    def parse_program(self) -> ParsedProgram:
        scope = _Scope()
        proc = self._parse_proc(scope)
        tok = self._peek()
        if tok.kind is not TokenKind.EOF:
            raise ParseError(f"unexpected input after program: {tok.text!r}", tok)
        return ParsedProgram(program=proc, free_names=dict(self.free_names))

    # -- name resolution ---------------------------------------------------------

    def _resolve_name(self, tok: Token, scope: _Scope) -> Name:
        found = scope.lookup_name(tok.text)
        if found is not None:
            return found
        # Free name of the program: one object per lexeme.
        if tok.text not in self.free_names:
            self.free_names[tok.text] = Name(tok.text)
        return self.free_names[tok.text]

    def _resolve_class(self, tok: Token, scope: _Scope) -> ClassVar:
        found = scope.lookup_class(tok.text)
        if found is None:
            raise ParseError(f"undefined class {tok.text!r}", tok)
        return found

    # -- processes ------------------------------------------------------------------

    def _parse_proc(self, scope: _Scope) -> SiteProgram:
        left = self._parse_term(scope)
        while self._at_punct("|"):
            self._next()
            right = self._parse_term(scope)
            left = Par(left, right)  # type: ignore[arg-type]
        return left

    def _parse_term(self, scope: _Scope) -> SiteProgram:
        tok = self._peek()

        if tok.kind is TokenKind.INT and tok.value == 0:
            self._next()
            return Nil()

        if tok.kind is TokenKind.KEYWORD:
            if tok.text == "new":
                return self._parse_new(scope)
            if tok.text == "def":
                return self._parse_def(scope)
            if tok.text == "if":
                return self._parse_if(scope)
            if tok.text == "let":
                return self._parse_let(scope)
            if tok.text == "export":
                return self._parse_export(scope)
            if tok.text == "import":
                return self._parse_import(scope)
            raise ParseError(f"unexpected keyword {tok.text!r}", tok)

        if tok.kind is TokenKind.CLASSID:
            self._next()
            var = self._resolve_class(tok, scope)
            args = self._parse_bracket_args(scope)
            return Instance(var, args)

        if tok.kind is TokenKind.IDENT:
            return self._parse_prefixed(scope)

        if self._at_punct("("):
            self._next()
            inner = self._parse_proc(scope)
            self._expect_punct(")")
            return inner

        raise ParseError(f"expected a process, found {tok.text!r}", tok)

    def _parse_new(self, scope: _Scope) -> Process:
        self._expect_keyword("new")
        names = self._parse_binder_idents()
        inner = _Scope(scope)
        bound = tuple(Name(h) for h in names)
        for h, n in zip(names, bound):
            inner.names[h] = n
        body = self._parse_proc(inner)
        return New(bound, body)  # type: ignore[arg-type]

    def _parse_binder_idents(self) -> list[str]:
        names = [self._expect_ident().text]
        while self._peek().kind is TokenKind.IDENT and not self._starts_prefix():
            names.append(self._expect_ident().text)
        if len(set(names)) != len(names):
            raise ParseError(f"duplicate name in binder: {names}")
        return names

    def _starts_prefix(self) -> bool:
        """Is the *current* ident the start of a message/object term?

        Distinguishes ``new x y P`` (two binders) from ``new x y![..]``
        (one binder, then a message at y) by looking one token ahead.
        """
        tokens = self.tokens
        nxt = tokens[min(self.index + 1, len(tokens) - 1)]
        return nxt.kind is TokenKind.PUNCT and nxt.text in ("!", "?")

    def _parse_clauses(self, scope: _Scope) -> tuple[_Scope, Definitions]:
        """Parse ``X(params) = P and Y(...) = Q ...`` with mutual scope."""
        headers: list[tuple[Token, list[str]]] = []
        bodies_start: list[int] = []
        inner = _Scope(scope)
        # First clause header.
        while True:
            ctok = self._expect_classid()
            params = self._parse_paren_params()
            self._expect_punct("=")
            if ctok.text in inner.classes:
                raise ParseError(f"duplicate class {ctok.text!r} in def", ctok)
            inner.classes[ctok.text] = ClassVar(ctok.text)
            headers.append((ctok, params))
            bodies_start.append(self.index)
            # Skip over the body tokens to find 'and' / 'in' at depth 0.
            self.index = self._skip_clause_body(self.index)
            if self._at_keyword("and"):
                self._next()
                continue
            break
        # Re-parse each body now that every clause name is in scope.
        end_index = self.index
        clauses: dict[ClassVar, Method] = {}
        for (ctok, params), start in zip(headers, bodies_start):
            self.index = start
            clause_scope = _Scope(inner)
            bound = tuple(Name(h) for h in params)
            for h, n in zip(params, bound):
                clause_scope.names[h] = n
            body = self._parse_proc(clause_scope)
            clauses[inner.classes[ctok.text]] = Method(bound, body)  # type: ignore[arg-type]
        self.index = end_index
        return inner, Definitions(clauses)

    # The three skip loops walk every token of every clause body once,
    # so each keeps the tokens and kinds in locals and takes and returns
    # a token index.  They stop at, and consume, different keywords.

    def _skip_clause_body(self, i: int) -> int:
        """Skip one clause body from ``i``: the index of its ``and`` /
        ``in`` at depth 0."""
        tokens = self.tokens
        PUNCT, KEYWORD, EOF = TokenKind.PUNCT, TokenKind.KEYWORD, TokenKind.EOF
        depth = 0
        while True:
            tok = tokens[i]
            kind = tok.kind
            if kind is EOF:
                raise ParseError("unterminated def: expected 'in'", tok)
            if kind is PUNCT:
                if tok.text in "([{":
                    depth += 1
                elif tok.text in ")]}":
                    depth -= 1
                    if depth < 0:
                        raise ParseError("unbalanced bracket in def body", tok)
            elif depth == 0 and kind is KEYWORD:
                text = tok.text
                if text in ("and", "in"):
                    # 'and'/'in' may also close a *nested* def inside the
                    # body; track nesting of def/let/import keywords.
                    return i
                if text in ("def", "let", "import"):
                    i = self._skip_to_matching_in(i + 1)
                    continue
                if text == "if":
                    # An if-condition may contain boolean 'and' at depth
                    # 0; skip to the matching 'then' before resuming.
                    i = self._skip_to_then(i + 1)
                    continue
            i += 1

    def _skip_to_then(self, i: int) -> int:
        """After an 'if', skip the condition: the index past its 'then'."""
        tokens = self.tokens
        PUNCT, KEYWORD, EOF = TokenKind.PUNCT, TokenKind.KEYWORD, TokenKind.EOF
        depth = 0
        while True:
            tok = tokens[i]
            kind = tok.kind
            if kind is EOF:
                raise ParseError("unterminated 'if': expected 'then'", tok)
            if kind is PUNCT:
                if tok.text in "([{":
                    depth += 1
                elif tok.text in ")]}":
                    depth -= 1
                    if depth < 0:
                        raise ParseError("unbalanced bracket in def body", tok)
            elif depth == 0 and kind is KEYWORD and tok.text == "then":
                return i + 1
            i += 1

    def _skip_to_matching_in(self, i: int) -> int:
        """After a nested def/let/import keyword: the index past its 'in'."""
        tokens = self.tokens
        PUNCT, KEYWORD, EOF = TokenKind.PUNCT, TokenKind.KEYWORD, TokenKind.EOF
        depth = 0
        while True:
            tok = tokens[i]
            kind = tok.kind
            if kind is EOF:
                raise ParseError("unterminated construct: expected 'in'", tok)
            if kind is PUNCT:
                if tok.text in "([{":
                    depth += 1
                elif tok.text in ")]}":
                    depth -= 1
                    if depth < 0:
                        raise ParseError("unbalanced bracket in def body", tok)
            elif depth == 0 and kind is KEYWORD:
                text = tok.text
                if text in ("def", "let", "import"):
                    i = self._skip_to_matching_in(i + 1)
                    continue
                if text == "if":
                    i = self._skip_to_then(i + 1)
                    continue
                if text == "in":
                    return i + 1
            i += 1

    def _parse_def(self, scope: _Scope) -> Process:
        self._expect_keyword("def")
        inner, definitions = self._parse_clauses(scope)
        self._expect_keyword("in")
        body = self._parse_proc(inner)
        return Def(definitions, body)  # type: ignore[arg-type]

    def _parse_if(self, scope: _Scope) -> Process:
        self._expect_keyword("if")
        cond = self._parse_expr(scope)
        self._expect_keyword("then")
        then_branch = self._parse_proc(scope)
        self._expect_keyword("else")
        else_branch = self._parse_proc(scope)
        return If(cond, then_branch, else_branch)  # type: ignore[arg-type]

    def _parse_let(self, scope: _Scope) -> Process:
        # let z = x!l[v...] in P   ==>   new r (x!l[v... r] | r?(z) = P)
        self._expect_keyword("let")
        ztok = self._expect_ident()
        self._expect_punct("=")
        subj_tok = self._expect_ident()
        subject = self._resolve_name(subj_tok, scope)
        self._expect_punct("!")
        label = self._parse_optional_label()
        args = self._parse_bracket_args(scope)
        self._expect_keyword("in")
        reply = Name("r")
        z = Name(ztok.text)
        inner = _Scope(scope)
        inner.names[ztok.text] = z
        body = self._parse_proc(inner)
        request = Message(subject, label, args + (reply,))
        continuation = Object(reply, {VAL: Method((z,), body)})  # type: ignore[arg-type]
        return New((reply,), Par(request, continuation))

    def _parse_export(self, scope: _Scope) -> SiteProgram:
        self._expect_keyword("export")
        tok = self._peek()
        if self._at_keyword("new"):
            self._next()
            names = self._parse_binder_idents()
            inner = _Scope(scope)
            bound = tuple(Name(h) for h in names)
            for h, n in zip(names, bound):
                inner.names[h] = n
            body = self._parse_proc(inner)
            return ExportNew(bound, body)  # type: ignore[arg-type]
        if self._at_keyword("def"):
            self._next()
            inner, definitions = self._parse_clauses(scope)
            self._expect_keyword("in")
            body = self._parse_proc(inner)
            return ExportDef(definitions, body)  # type: ignore[arg-type]
        raise ParseError(
            f"expected 'new' or 'def' after 'export', found {tok.text!r}", tok)

    def _parse_import(self, scope: _Scope) -> SiteProgram:
        self._expect_keyword("import")
        tok = self._next()
        if tok.kind is TokenKind.IDENT:
            self._expect_keyword("from")
            site_tok = self._expect_ident()
            self._expect_keyword("in")
            placeholder = Name(tok.text)
            inner = _Scope(scope)
            inner.names[tok.text] = placeholder
            body = self._parse_proc(inner)
            return ImportName(placeholder, Site(site_tok.text), body)  # type: ignore[arg-type]
        if tok.kind is TokenKind.CLASSID:
            self._expect_keyword("from")
            site_tok = self._expect_ident()
            self._expect_keyword("in")
            placeholder = ClassVar(tok.text)
            inner = _Scope(scope)
            inner.classes[tok.text] = placeholder
            body = self._parse_proc(inner)
            return ImportClass(placeholder, Site(site_tok.text), body)  # type: ignore[arg-type]
        raise ParseError(
            f"expected an identifier after 'import', found {tok.text!r}", tok)

    def _parse_prefixed(self, scope: _Scope) -> Process:
        subj_tok = self._expect_ident()
        subject = self._resolve_name(subj_tok, scope)
        if self._at_punct("!"):
            self._next()
            label = self._parse_optional_label()
            args = self._parse_bracket_args(scope)
            return Message(subject, label, args)
        if self._at_punct("?"):
            self._next()
            if self._at_punct("("):
                params = self._parse_paren_params()
                self._expect_punct("=")
                inner = _Scope(scope)
                bound = tuple(Name(h) for h in params)
                for h, n in zip(params, bound):
                    inner.names[h] = n
                body = self._parse_proc(inner)
                return Object(subject, {VAL: Method(bound, body)})  # type: ignore[arg-type]
            self._expect_punct("{")
            methods: dict[Label, Method] = {}
            while True:
                ltok = self._expect_ident()
                label = Label(ltok.text)
                if label in methods:
                    raise ParseError(f"duplicate method {ltok.text!r}", ltok)
                params = self._parse_paren_params()
                self._expect_punct("=")
                inner = _Scope(scope)
                bound = tuple(Name(h) for h in params)
                for h, n in zip(params, bound):
                    inner.names[h] = n
                body = self._parse_proc(inner)
                methods[label] = Method(bound, body)  # type: ignore[arg-type]
                if self._at_punct(","):
                    self._next()
                    continue
                break
            self._expect_punct("}")
            return Object(subject, methods)
        raise ParseError(
            f"expected '!' or '?' after {subj_tok.text!r}", self._peek())

    def _parse_optional_label(self) -> Label:
        if self._peek().kind is TokenKind.IDENT:
            return Label(self._next().text)
        return VAL

    def _parse_paren_params(self) -> list[str]:
        self._expect_punct("(")
        params: list[str] = []
        if not self._at_punct(")"):
            params.append(self._expect_ident().text)
            while self._at_punct(","):
                self._next()
                params.append(self._expect_ident().text)
        self._expect_punct(")")
        if len(set(params)) != len(params):
            raise ParseError(f"duplicate parameter in {params}")
        return params

    def _parse_bracket_args(self, scope: _Scope) -> tuple[Expr, ...]:
        self._expect_punct("[")
        args: list[Expr] = []
        if not self._at_punct("]"):
            args.append(self._parse_expr(scope))
            while self._at_punct(","):
                self._next()
                args.append(self._parse_expr(scope))
        self._expect_punct("]")
        return tuple(args)

    # -- expressions --------------------------------------------------------------

    def _parse_expr(self, scope: _Scope) -> Expr:
        return self._parse_or(scope)

    def _parse_or(self, scope: _Scope) -> Expr:
        left = self._parse_and(scope)
        while self._at_keyword("or"):
            self._next()
            left = BinOp("or", left, self._parse_and(scope))
        return left

    def _parse_and(self, scope: _Scope) -> Expr:
        left = self._parse_not(scope)
        while self._at_keyword("and"):
            self._next()
            left = BinOp("and", left, self._parse_not(scope))
        return left

    def _parse_not(self, scope: _Scope) -> Expr:
        if self._at_keyword("not"):
            self._next()
            return UnOp("not", self._parse_not(scope))
        return self._parse_compare(scope)

    def _parse_compare(self, scope: _Scope) -> Expr:
        left = self._parse_additive(scope)
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in _COMPARE_OPS:
            self._next()
            right = self._parse_additive(scope)
            return BinOp(tok.text, left, right)
        return left

    def _parse_additive(self, scope: _Scope) -> Expr:
        left = self._parse_multiplicative(scope)
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.PUNCT and tok.text in _ADD_OPS:
                self._next()
                left = BinOp(tok.text, left, self._parse_multiplicative(scope))
            else:
                return left

    def _parse_multiplicative(self, scope: _Scope) -> Expr:
        left = self._parse_unary(scope)
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.PUNCT and tok.text in _MUL_OPS:
                self._next()
                left = BinOp(tok.text, left, self._parse_unary(scope))
            else:
                return left

    def _parse_unary(self, scope: _Scope) -> Expr:
        if self._at_punct("-"):
            self._next()
            return UnOp("-", self._parse_unary(scope))
        return self._parse_atom(scope)

    def _parse_atom(self, scope: _Scope) -> Expr:
        tok = self._next()
        if tok.kind is TokenKind.INT or tok.kind is TokenKind.FLOAT:
            return Lit(tok.value)  # type: ignore[arg-type]
        if tok.kind is TokenKind.STRING:
            return Lit(tok.value)  # type: ignore[arg-type]
        if tok.kind is TokenKind.KEYWORD and tok.text in ("true", "false"):
            return Lit(tok.value)  # type: ignore[arg-type]
        if tok.kind is TokenKind.IDENT:
            return self._resolve_name(tok, scope)
        if tok.kind is TokenKind.PUNCT and tok.text == "(":
            inner = self._parse_expr(scope)
            self._expect_punct(")")
            return inner
        raise ParseError(f"expected an expression, found {tok.text!r}", tok)


def parse_program(source: str,
                  tokens: list[Token] | None = None) -> ParsedProgram:
    """Parse one DiTyCO site program.

    ``tokens``, when given, is ``Lexer(source).tokens()`` already made
    (the launch path scans a submission once, to key it, and hands the
    tokens on); the source text is not scanned again.
    """
    return Parser(source, tokens).parse_program()


def parse_process(source: str) -> Process:
    """Parse a program that must contain no export/import constructs."""
    parsed = parse_program(source)
    prog = parsed.program
    if isinstance(prog, (ExportNew, ExportDef, ImportName, ImportClass)):
        raise ParseError("export/import not allowed in a plain process")
    return prog
