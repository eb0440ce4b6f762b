"""Unit tests for the DiTyCO lexer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import LexError, Lexer, Token, TokenKind, lexer
from repro.lang.lexer import scan_ints
from repro.runtime.launch import _key, _shape_key


def lex(src):
    toks = Lexer(src).tokens()
    assert toks[-1].kind is TokenKind.EOF
    return toks[:-1]


class TestBasics:
    def test_empty(self):
        assert lex("") == []

    def test_whitespace_only(self):
        assert lex("  \n\t  ") == []

    def test_identifiers(self):
        (tok,) = lex("appletserver")
        assert tok.kind is TokenKind.IDENT
        assert tok.text == "appletserver"

    def test_classid(self):
        (tok,) = lex("AppletServer")
        assert tok.kind is TokenKind.CLASSID

    def test_primed_ident(self):
        (tok,) = lex("r'")
        assert tok.kind is TokenKind.IDENT
        assert tok.text == "r'"

    def test_underscore_ident(self):
        (tok,) = lex("_tmp")
        assert tok.kind is TokenKind.IDENT

    def test_keywords(self):
        kinds = [t.kind for t in lex("new def in and if then else let export import from")]
        assert all(k is TokenKind.KEYWORD for k in kinds)

    def test_true_false_carry_values(self):
        t, f = lex("true false")
        assert t.value is True and f.value is False


class TestNumbers:
    def test_int(self):
        (tok,) = lex("42")
        assert tok.kind is TokenKind.INT
        assert tok.value == 42

    def test_float(self):
        (tok,) = lex("3.25")
        assert tok.kind is TokenKind.FLOAT
        assert tok.value == 3.25

    def test_scientific(self):
        (tok,) = lex("1e3")
        assert tok.kind is TokenKind.FLOAT
        assert tok.value == 1000.0

    def test_negative_exponent(self):
        (tok,) = lex("2E-2")
        assert tok.value == 0.02

    def test_int_then_dot_method_not_float(self):
        toks = lex("1.x")  # int, dot, ident -- not a float
        assert [t.kind for t in toks] == [TokenKind.INT, TokenKind.PUNCT, TokenKind.IDENT]


class TestStrings:
    def test_simple(self):
        (tok,) = lex('"hello"')
        assert tok.kind is TokenKind.STRING
        assert tok.value == "hello"

    def test_escapes(self):
        (tok,) = lex(r'"a\nb\t\"q\\"')
        assert tok.value == 'a\nb\t"q\\'

    def test_unterminated(self):
        with pytest.raises(LexError):
            lex('"oops')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            lex('"a\nb"')

    def test_bad_escape(self):
        with pytest.raises(LexError):
            lex(r'"\q"')


class TestPunctuation:
    def test_multichar_greedy(self):
        toks = lex("<= >= == !=")
        assert [t.text for t in toks] == ["<=", ">=", "==", "!="]

    def test_bang_bracket(self):
        toks = lex("x![1]")
        assert [t.text for t in toks] == ["x", "!", "[", "1", "]"]

    def test_neq_vs_bang(self):
        toks = lex("a != b ! c")
        assert [t.text for t in toks] == ["a", "!=", "b", "!", "c"]

    def test_all_punct(self):
        toks = lex("? { } ( ) , = | . + - * / % < >")
        assert all(t.kind is TokenKind.PUNCT for t in toks)

    def test_unknown_char(self):
        with pytest.raises(LexError):
            lex("x @ y")


class TestComments:
    def test_dashdash(self):
        toks = lex("x -- comment here\ny")
        assert [t.text for t in toks] == ["x", "y"]

    def test_slashslash(self):
        toks = lex("x // comment\ny")
        assert [t.text for t in toks] == ["x", "y"]

    def test_comment_at_eof(self):
        assert [t.text for t in lex("x -- trailing")] == ["x"]

    def test_minus_not_comment(self):
        toks = lex("a - b")
        assert [t.text for t in toks] == ["a", "-", "b"]


class TestPositions:
    def test_line_column(self):
        toks = lex("x\n  y")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_error_position(self):
        try:
            lex("ok\n   @")
        except LexError as e:
            assert e.line == 2 and e.column == 4
        else:  # pragma: no cover
            pytest.fail("expected LexError")


class TestToken:
    """A token is an immutable value: launch templates share token lists
    (repro.runtime.launch), so no holder may change one under another."""

    def test_fields_cannot_be_assigned(self):
        tok = Lexer("x").tokens()[0]
        for field in ("kind", "text", "line", "column", "value"):
            with pytest.raises(AttributeError):
                setattr(tok, field, None)
        assert tok.text == "x"

    def test_value_protocol(self):
        toks = Lexer('x 12 "s"').tokens()
        assert [repr(t) for t in toks] == [
            "Token(kind=<TokenKind.IDENT: 1>, text='x', line=1, column=1,"
            " value=None)",
            "Token(kind=<TokenKind.INT: 3>, text='12', line=1, column=3,"
            " value=12)",
            "Token(kind=<TokenKind.STRING: 5>, text='\"s\"', line=1,"
            " column=6, value='s')",
            "Token(kind=<TokenKind.EOF: 8>, text='', line=1, column=9,"
            " value=None)",
        ]
        assert [str(t) for t in toks] == \
            ["'x'@1:1", "'12'@1:3", "'\"s\"'@1:6", "''@1:9"]
        for t in toks:
            assert hash(t) == hash((t.kind, t.text, t.line, t.column, t.value))
        x = toks[0]
        assert x == Token(TokenKind.IDENT, "x", 1, 1)
        assert hash(x) == hash(Token(TokenKind.IDENT, "x", 1, 1))
        assert x != Token(TokenKind.IDENT, "x", 1, 2)
        assert x != Token(TokenKind.IDENT, "x", 1, 1, 0)
        assert Token(TokenKind.EOF, "", 1, 1).value is None


# -- pins ----------------------------------------------------------------
#
# Captured from the per-character lexer the regex scanner replaced (PR
# 15), before it was deleted: the rows are data, there is no second
# lexer to compare with.  A token row is (kind, text, line, column) plus
# the decoded value when there is one; an error row carries the message
# after the "line:column: " prefix and the position.

PINS = [
    ('²',
     LexError("unexpected character '²'", 1, 1)),
    ('x²', [
        ('IDENT', 'x²', 1, 1), ('EOF', '', 1, 3),
    ]),
    ('Ⅷ',
     LexError("unexpected character 'Ⅷ'", 1, 1)),
    ('x٣ ٣',
     LexError("unexpected character '٣'", 1, 4)),
    ('é Éa', [
        ('IDENT', 'é', 1, 1), ('CLASSID', 'Éa', 1, 3), ('EOF', '', 1, 5),
    ]),
    ("_ _' r' x''y", [
        ('IDENT', '_', 1, 1), ('IDENT', "_'", 1, 3), ('IDENT', "r'", 1, 6),
        ('IDENT', "x''y", 1, 9), ('EOF', '', 1, 13),
    ]),
    ("'",
     LexError('unexpected character "\'"', 1, 1)),
    ('true false truex True', [
        ('KEYWORD', 'true', 1, 1, True), ('KEYWORD', 'false', 1, 6, False),
        ('IDENT', 'truex', 1, 12), ('CLASSID', 'True', 1, 18),
        ('EOF', '', 1, 22),
    ]),
    ('new def in and if then else let export import from not or', [
        ('KEYWORD', 'new', 1, 1), ('KEYWORD', 'def', 1, 5),
        ('KEYWORD', 'in', 1, 9), ('KEYWORD', 'and', 1, 12),
        ('KEYWORD', 'if', 1, 16), ('KEYWORD', 'then', 1, 19),
        ('KEYWORD', 'else', 1, 24), ('KEYWORD', 'let', 1, 29),
        ('KEYWORD', 'export', 1, 33), ('KEYWORD', 'import', 1, 40),
        ('KEYWORD', 'from', 1, 47), ('KEYWORD', 'not', 1, 52),
        ('KEYWORD', 'or', 1, 56), ('EOF', '', 1, 58),
    ]),
    ('1.x', [
        ('INT', '1', 1, 1, 1), ('PUNCT', '.', 1, 2), ('IDENT', 'x', 1, 3),
        ('EOF', '', 1, 4),
    ]),
    ('1.', [
        ('INT', '1', 1, 1, 1), ('PUNCT', '.', 1, 2), ('EOF', '', 1, 3),
    ]),
    ('1..2', [
        ('INT', '1', 1, 1, 1), ('PUNCT', '.', 1, 2), ('PUNCT', '.', 1, 3),
        ('INT', '2', 1, 4, 2), ('EOF', '', 1, 5),
    ]),
    ('1.5.2', [
        ('FLOAT', '1.5', 1, 1, 1.5), ('PUNCT', '.', 1, 4),
        ('INT', '2', 1, 5, 2), ('EOF', '', 1, 6),
    ]),
    ('1e', [
        ('INT', '1', 1, 1, 1), ('IDENT', 'e', 1, 2), ('EOF', '', 1, 3),
    ]),
    ('1e+', [
        ('INT', '1', 1, 1, 1), ('IDENT', 'e', 1, 2), ('PUNCT', '+', 1, 3),
        ('EOF', '', 1, 4),
    ]),
    ('1e+x', [
        ('INT', '1', 1, 1, 1), ('IDENT', 'e', 1, 2), ('PUNCT', '+', 1, 3),
        ('IDENT', 'x', 1, 4), ('EOF', '', 1, 5),
    ]),
    ('1E5 2E-2 1.5e3', [
        ('FLOAT', '1E5', 1, 1, 100000.0), ('FLOAT', '2E-2', 1, 5, 0.02),
        ('FLOAT', '1.5e3', 1, 10, 1500.0), ('EOF', '', 1, 15),
    ]),
    ('1.5e', [
        ('FLOAT', '1.5', 1, 1, 1.5), ('IDENT', 'e', 1, 4), ('EOF', '', 1, 5),
    ]),
    ('1e5e5', [
        ('FLOAT', '1e5', 1, 1, 100000.0), ('IDENT', 'e5', 1, 4),
        ('EOF', '', 1, 6),
    ]),
    ('007 0', [
        ('INT', '007', 1, 1, 7), ('INT', '0', 1, 5, 0), ('EOF', '', 1, 6),
    ]),
    ('12x 1_0', [
        ('INT', '12', 1, 1, 12), ('IDENT', 'x', 1, 3), ('INT', '1', 1, 5, 1),
        ('IDENT', '_0', 1, 6), ('EOF', '', 1, 8),
    ]),
    ('x -- c', [
        ('IDENT', 'x', 1, 1), ('EOF', '', 1, 7),
    ]),
    ('x // c', [
        ('IDENT', 'x', 1, 1), ('EOF', '', 1, 7),
    ]),
    ('x --', [
        ('IDENT', 'x', 1, 1), ('EOF', '', 1, 5),
    ]),
    ('x //', [
        ('IDENT', 'x', 1, 1), ('EOF', '', 1, 5),
    ]),
    ('x -- c\r\ny', [
        ('IDENT', 'x', 1, 1), ('IDENT', 'y', 2, 1), ('EOF', '', 2, 2),
    ]),
    ('x // c\r\ny', [
        ('IDENT', 'x', 1, 1), ('IDENT', 'y', 2, 1), ('EOF', '', 2, 2),
    ]),
    ('--\n--\n', [
        ('EOF', '', 3, 1),
    ]),
    ('a-- b', [
        ('IDENT', 'a', 1, 1), ('EOF', '', 1, 6),
    ]),
    ('a - -b', [
        ('IDENT', 'a', 1, 1), ('PUNCT', '-', 1, 3), ('PUNCT', '-', 1, 5),
        ('IDENT', 'b', 1, 6), ('EOF', '', 1, 7),
    ]),
    ('a / / b', [
        ('IDENT', 'a', 1, 1), ('PUNCT', '/', 1, 3), ('PUNCT', '/', 1, 5),
        ('IDENT', 'b', 1, 7), ('EOF', '', 1, 8),
    ]),
    ('a///b', [
        ('IDENT', 'a', 1, 1), ('EOF', '', 1, 6),
    ]),
    ('a!=b', [
        ('IDENT', 'a', 1, 1), ('PUNCT', '!=', 1, 2), ('IDENT', 'b', 1, 4),
        ('EOF', '', 1, 5),
    ]),
    ('a! =b', [
        ('IDENT', 'a', 1, 1), ('PUNCT', '!', 1, 2), ('PUNCT', '=', 1, 4),
        ('IDENT', 'b', 1, 5), ('EOF', '', 1, 6),
    ]),
    ('a<==b', [
        ('IDENT', 'a', 1, 1), ('PUNCT', '<=', 1, 2), ('PUNCT', '=', 1, 4),
        ('IDENT', 'b', 1, 5), ('EOF', '', 1, 6),
    ]),
    ('a>=<=b', [
        ('IDENT', 'a', 1, 1), ('PUNCT', '>=', 1, 2), ('PUNCT', '<=', 1, 4),
        ('IDENT', 'b', 1, 6), ('EOF', '', 1, 7),
    ]),
    ('{}()[],=|.+-*/%<>?!', [
        ('PUNCT', '{', 1, 1), ('PUNCT', '}', 1, 2), ('PUNCT', '(', 1, 3),
        ('PUNCT', ')', 1, 4), ('PUNCT', '[', 1, 5), ('PUNCT', ']', 1, 6),
        ('PUNCT', ',', 1, 7), ('PUNCT', '=', 1, 8), ('PUNCT', '|', 1, 9),
        ('PUNCT', '.', 1, 10), ('PUNCT', '+', 1, 11), ('PUNCT', '-', 1, 12),
        ('PUNCT', '*', 1, 13), ('PUNCT', '/', 1, 14), ('PUNCT', '%', 1, 15),
        ('PUNCT', '<', 1, 16), ('PUNCT', '>', 1, 17), ('PUNCT', '?', 1, 18),
        ('PUNCT', '!', 1, 19), ('EOF', '', 1, 20),
    ]),
    ('"abc" ""', [
        ('STRING', '"abc"', 1, 1, 'abc'), ('STRING', '""', 1, 7, ''),
        ('EOF', '', 1, 9),
    ]),
    ('"a\\nb\\t\\"q\\\\\\0\\r"', [
        ('STRING', '"a\nb\t"q\\\x00\r"', 1, 1, 'a\nb\t"q\\\x00\r'),
        ('EOF', '', 1, 18),
    ]),
    ('"é²" "tab\there" "a\rb"', [
        ('STRING', '"é²"', 1, 1, 'é²'),
        ('STRING', '"tab\there"', 1, 6, 'tab\there'),
        ('STRING', '"a\rb"', 1, 17, 'a\rb'), ('EOF', '', 1, 22),
    ]),
    ('"a\x00b"', [
        ('STRING', '"a\x00b"', 1, 1, 'a\x00b'), ('EOF', '', 1, 6),
    ]),
    ('"oops',
     LexError('unterminated string literal', 1, 1)),
    ('  "oops\n"',
     LexError('unterminated string literal', 1, 3)),
    ('"a\\qb"',
     LexError('bad escape \\q', 1, 3)),
    ('x "a\\',
     LexError('bad escape \\', 1, 5)),
    ('"a\\\n"',
     LexError('bad escape \\\n', 1, 3)),
    ('"ok" "bad\\x',
     LexError('bad escape \\x', 1, 10)),
    ('x\n\n\n   @',
     LexError("unexpected character '@'", 4, 4)),
    ('-- c1\n// c2\n\t #',
     LexError("unexpected character '#'", 3, 3)),
    ('x @ y',
     LexError("unexpected character '@'", 1, 3)),
    ('\x00',
     LexError("unexpected character '\\x00'", 1, 1)),
    ('x\x0cy',
     LexError("unexpected character '\\x0c'", 1, 2)),
    ('x y', [
        ('IDENT', 'x', 1, 1), ('IDENT', 'y', 1, 3), ('EOF', '', 1, 4),
    ]),
    ('x\r\n  y', [
        ('IDENT', 'x', 1, 1), ('IDENT', 'y', 2, 3), ('EOF', '', 2, 4),
    ]),
    ('x\ty', [
        ('IDENT', 'x', 1, 1), ('IDENT', 'y', 1, 3), ('EOF', '', 1, 4),
    ]),
    ('\n\nx\n', [
        ('IDENT', 'x', 3, 1), ('EOF', '', 4, 1),
    ]),
    ('1\n2\n 3', [
        ('INT', '1', 1, 1, 1), ('INT', '2', 2, 1, 2), ('INT', '3', 3, 2, 3),
        ('EOF', '', 3, 3),
    ]),
    ('def Cell(self, v) =\n  self ? { read(r) = r![v] | Cell[self, 2.5] }\nin new x Cell[x, 9]', [
        ('KEYWORD', 'def', 1, 1), ('CLASSID', 'Cell', 1, 5),
        ('PUNCT', '(', 1, 9), ('IDENT', 'self', 1, 10), ('PUNCT', ',', 1, 14),
        ('IDENT', 'v', 1, 16), ('PUNCT', ')', 1, 17), ('PUNCT', '=', 1, 19),
        ('IDENT', 'self', 2, 3), ('PUNCT', '?', 2, 8), ('PUNCT', '{', 2, 10),
        ('IDENT', 'read', 2, 12), ('PUNCT', '(', 2, 16),
        ('IDENT', 'r', 2, 17), ('PUNCT', ')', 2, 18), ('PUNCT', '=', 2, 20),
        ('IDENT', 'r', 2, 22), ('PUNCT', '!', 2, 23), ('PUNCT', '[', 2, 24),
        ('IDENT', 'v', 2, 25), ('PUNCT', ']', 2, 26), ('PUNCT', '|', 2, 28),
        ('CLASSID', 'Cell', 2, 30), ('PUNCT', '[', 2, 34),
        ('IDENT', 'self', 2, 35), ('PUNCT', ',', 2, 39),
        ('FLOAT', '2.5', 2, 41, 2.5), ('PUNCT', ']', 2, 44),
        ('PUNCT', '}', 2, 46), ('KEYWORD', 'in', 3, 1),
        ('KEYWORD', 'new', 3, 4), ('IDENT', 'x', 3, 8),
        ('CLASSID', 'Cell', 3, 10), ('PUNCT', '[', 3, 14),
        ('IDENT', 'x', 3, 15), ('PUNCT', ',', 3, 16), ('INT', '9', 3, 18, 9),
        ('PUNCT', ']', 3, 19), ('EOF', '', 3, 20),
    ]),
]


def _row(tok):
    base = (tok.kind.name, tok.text, tok.line, tok.column)
    return base if tok.value is None else base + (tok.value,)


@pytest.mark.parametrize("source, expected", PINS,
                         ids=[repr(src) for src, _ in PINS])
def test_pinned(source, expected):
    if isinstance(expected, LexError):
        with pytest.raises(LexError) as info:
            Lexer(source).tokens()
        err = info.value
        assert (str(err), err.line, err.column) == (
            str(expected), expected.line, expected.column)
        return
    got = [_row(tok) for tok in Lexer(source).tokens()]
    assert got == expected
    # 1 == True and 1 == 1.0: pin the value's type as well.
    assert [type(r[4]) for r in got if len(r) == 5] == \
        [type(r[4]) for r in expected if len(r) == 5]


def test_pins_cover_the_listed_cases():
    assert len(PINS) >= 40
    assert len({src for src, _ in PINS}) == len(PINS)


# -- properties over the lexer's own alphabet ------------------------------

_PIECES = st.sampled_from(
    list("xyzXY_'019 .eE+-*/%<>=!?[](){},|\"\\\n\r\tntq@#")
    + ["\u00b2", "\u00e9", "\u2167", "\u0663", "\x00", "\x0c", "\u00a0",
       "true", "new", "--", "//", '"a"', '"\\n"', "1.5", "1e5", "\r\n"])
_SOURCES = st.lists(_PIECES, max_size=40).map("".join)


def _offset(source, line, column):
    """Offset of (line, column): lines end at "\\n" only, columns count
    every other character (a "\\r" included) from 1."""
    start = 0
    for _ in range(line - 1):
        start = source.index("\n", start) + 1
    return start + column - 1


def _first_offender(source):
    """Offset of the first character no token can start at (or the bad
    escape), found without trusting the full run: lex ever longer
    prefixes and take the first failure that is not merely the prefix
    ending inside a string literal."""
    for end in range(1, len(source) + 1):
        try:
            Lexer(source[:end]).tokens()
        except LexError as err:
            at = _offset(source, err.line, err.column)
            cut_short = end < len(source) and (
                str(err).endswith("unterminated string literal")
                or (at == end - 1 and source[at] == "\\"))
            if not cut_short:
                return at
    raise AssertionError("every prefix lexes")


@settings(max_examples=300, deadline=None)
@given(_SOURCES)
def test_tokens_sit_where_they_say(source):
    try:
        tokens = Lexer(source).tokens()
    except LexError as err:
        at = _offset(source, err.line, err.column)
        assert 0 <= at < len(source)
        if str(err).endswith("unterminated string literal"):
            # Reported at the opening quote, discovered at end of line.
            assert source[at] == '"'
            Lexer(source[:at]).tokens()
        else:
            # Unknown character / bad escape: the position *is* the
            # first character no reading of the text accepts.
            assert at == _first_offender(source)
        return
    offsets = [_offset(source, t.line, t.column) for t in tokens]
    assert offsets == sorted(set(offsets))           # strictly increasing
    assert offsets[-1] == len(source) and tokens[-1].kind is TokenKind.EOF
    for tok, at in zip(tokens, offsets):
        if tok.kind is TokenKind.STRING and "\\" in source[at:at + len(tok.text)]:
            continue        # text is the decoded form, not the slice
        assert source[at:at + len(tok.text)] == tok.text
    spans = Lexer(source)
    spans.tokens()
    assert [(tokens[i].kind, source[a:b]) for i, a, b in spans.int_spans] \
        == [(t.kind, t.text) for t in tokens if t.kind is TokenKind.INT]


# -- the INT walk (scan_ints) finds the Lexer's INTs -------------------------
#
# The launch path recognises a known shape from `scan_ints` alone
# (repro.runtime.launch), so what it reports has to be what the Lexer
# would: the same INT tokens in the same order, the same text around
# them -- hence the same table key, byte for byte.

#: Rows where a digit is not an INT, or an INT hides next to one.
INT_PINS = [
    ("1.5", []), ("3e4", []), ("1e", ["1"]), ("1.x", ["1"]), ("a1", []),
    ("x'1", []), ("A1[3].4", ["3", "4"]), ('"s 5 \\" 6"', []),
    ("-- 8 9", []), ("a--1\n2", ["2"]), ("a-1", ["1"]),
    ("7 // 8\n9", ["7", "9"]), ("007", ["007"]), ("", []), ("12x 1_0",
                                                            ["12", "1"]),
    ("1.5.2", ["2"]), ("1e5e5", []), ("1..2", ["1", "2"]), ("x² 3", ["3"]),
    ('"a\x00b" 4', ["4"]), ("5", ["5"]), ("a1 b", []), ("1e+x", ["1"]),
]


def _lexed_ints(source):
    """(text around the INT tokens, their texts, their values), from
    the Lexer."""
    lexed = Lexer(source)
    tokens = lexed.tokens()
    pieces, digits, prev = [], [], 0
    for _index, start, end in lexed.int_spans:
        pieces.append(source[prev:start])
        digits.append(source[start:end])
        prev = end
    pieces.append(source[prev:])
    values = [t.value for t in tokens if t.kind is TokenKind.INT]
    return pieces, digits, values, lexed.int_spans


def assert_scan_is_the_lexers(source):
    pieces, digits = scan_ints(source)
    assert len(pieces) == len(digits) + 1
    assert all(d.isascii() and d.isdigit() for d in digits)
    assert "".join(p + d for p, d in zip(pieces, digits + [""])) == source
    lexed_pieces, lexed_digits, values, spans = _lexed_ints(source)
    assert (pieces, digits) == (lexed_pieces, lexed_digits)
    assert [int(d) for d in digits] == values
    assert _key(pieces) == _shape_key(source, spans)


@pytest.mark.parametrize("source, digits", INT_PINS,
                         ids=[repr(src) for src, _ in INT_PINS])
def test_scan_ints_pinned(source, digits):
    assert scan_ints(source)[1] == digits
    assert_scan_is_the_lexers(source)


@pytest.mark.parametrize("source", [src for src, exp in PINS
                                    if not isinstance(exp, LexError)], ids=repr)
def test_scan_ints_on_the_lexer_pins(source):
    assert_scan_is_the_lexers(source)


@settings(max_examples=600, deadline=None)
@given(_SOURCES)
def test_scan_ints_finds_the_lexers_ints(source):
    try:
        Lexer(source).tokens()
    except LexError:
        # No claim about a text that does not lex, except that the walk
        # neither raises nor loses a character.
        pieces, digits = scan_ints(source)
        assert "".join(p + d for p, d in zip(pieces, digits + [""])) == source
        return
    assert_scan_is_the_lexers(source)


def test_scan_ints_is_built_from_the_lexers_fragments():
    # One spelling of each class that can hold a digit.
    for fragment in (lexer._WORD, lexer._FLOAT, lexer._COMMENT,
                     lexer._STRING, lexer._INT):
        assert fragment in lexer._INT_SCAN.pattern
        assert fragment in lexer._SCAN.pattern
