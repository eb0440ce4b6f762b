"""Lexer for the DiTyCO source language.

The concrete syntax follows the paper's notation as closely as plain
text allows::

    def Cell(self, v) =
      self ? { read(r) = r![v] | Cell[self, v],
               write(u) = Cell[self, u] }
    in new x Cell[x, 9] | new y Cell[y, true]

Tokens:

* lowercase identifiers -- names and labels (``x``, ``read``);
* capitalised identifiers -- class variables (``Cell``);
* integer / float / string literals, ``true`` / ``false``;
* keywords: ``new def in and if then else let export import from not``;
* punctuation: ``! ? [ ] ( ) { } , = | .``  plus the operators
  ``+ - * / % < <= > >= == != or``.

Comments run from ``--`` or ``//`` to end of line.

The scanner is one compiled regular expression (``_SCAN``) applied with
``finditer``: a character-at-a-time Python loop was 0.12 / 0.22 / 0.28 s
of the ``pubsub`` / ``mapreduce`` / ``coldstart`` benchmark windows
(docs/PERF.md, "Launch path").  A :class:`Token` is a ``NamedTuple``:
the frozen dataclass it replaced cost more to build than the rest of
the scan (docs/PERF.md, "A miss pays once per token").
Its behaviour -- kinds, texts, values, positions, error messages -- is
pinned row by row in ``tests/lang/test_lexer.py``.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple


class TokenKind(Enum):
    IDENT = auto()      # lowercase identifier
    CLASSID = auto()    # Capitalised identifier
    INT = auto()
    FLOAT = auto()
    STRING = auto()
    KEYWORD = auto()
    PUNCT = auto()
    EOF = auto()


KEYWORDS = {
    "new", "def", "in", "and", "if", "then", "else", "let",
    "export", "import", "from", "not", "or", "true", "false",
}
_BOOLEANS = {"true": True, "false": False}


class Token(NamedTuple):
    """One token.  A tuple, so immutable -- launch templates share token
    lists (:mod:`repro.runtime.launch`) -- and built by one
    ``tuple.__new__`` rather than an ``object.__setattr__`` per field."""

    kind: TokenKind
    text: str
    line: int
    column: int
    value: object = None  # decoded literal value for INT/FLOAT/STRING

    def __str__(self) -> str:
        return f"{self.text!r}@{self.line}:{self.column}"


class LexError(Exception):
    """Malformed input at the character level."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


#: The scanner: one alternative per token class, tried in order at
#: every position (so ``--`` is a comment before ``-`` is an operator,
#: ``1.5`` a float before ``1`` an int, ``<=`` before ``<``).  The last
#: alternative takes any one character, so successive matches tile the
#: source and a match of ``bad`` is the first offending character.
#:
#: ``\w`` is exactly ``str.isalnum() or '_'``, the continuation class
#: of an identifier; its *first* character must be ``str.isalpha()``
#: (or ``_``), which ``[^\W\d]`` over-approximates -- it admits
#: non-decimal numerics such as ``'\u00b2'`` -- so a word that does not
#: start with an ASCII letter is checked in ``tokens``.
#:
#: The token classes that can hold a digit are spelt once, here, for
#: both ``_SCAN`` and ``_INT_SCAN`` below.
_WORD_TAIL = r"[\w']*"
_WORD = r"[^\W\d]" + _WORD_TAIL
_INT = r"[0-9]+"
_FLOAT = r"[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)"
_COMMENT = r"(?:--|//)[^\n]*"
_STRING_BODY = r'(?:[^"\\\n]|\\[ntr"\\0])*'
_STRING = '"' + _STRING_BODY + '"'
_SCAN = re.compile(rf"""
    (?P<space>   [ \t\r]+ )
  | (?P<newline> \n [ \t\r\n]* )
  | (?P<lower>   [a-z_] {_WORD_TAIL} )
  | (?P<upper>   [A-Z] {_WORD_TAIL} )
  | (?P<float>   {_FLOAT} )
  | (?P<int>     {_INT} )
  | (?P<comment> {_COMMENT} )
  | (?P<punct>   [<>=!]= | [!?\[\](){{}},=|.+\-*/%<>] )
  | (?P<string>  {_STRING} )
  | (?P<word>    {_WORD} )
  | (?P<bad>     (?s: . ) )
""", re.VERBOSE)

#: The same walk, for the launch path (repro.runtime.launch), which
#: wants the ``INT`` tokens of a submission and nothing else: group 1
#: takes everything an ``INT`` cannot start in -- the four classes
#: above that may hold a digit (``float`` before ``int``, as in
#: ``_SCAN``; ``lower`` / ``upper`` / ``word`` are one alternative,
#: their first characters being disjoint from every other class's),
#: then any one non-digit -- possessively, so the walk never restarts
#: inside a token; group 2 is the ``INT`` it stopped at, or empty at
#: the end of the text (without ``\Z`` a walk that found no further
#: ``INT`` would fail and be retried one character on, mid-token).
_INT_SCAN = re.compile(
    rf"((?>{_WORD}|{_FLOAT}|{_COMMENT}|{_STRING}|[^0-9])*+)({_INT}|\Z)")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "0": "\0"}
_ESCAPE = re.compile(r"\\(.)")
#: The well-formed prefix of a string literal (error reporting only).
_STRING_PREFIX = re.compile('"' + _STRING_BODY)


class Lexer:
    """Tokenizer: one pass of the ``_SCAN`` regex over the source.

    ``tokens()`` returns every token, EOF included; a token's line and
    column are derived from its match offset and the offset of the last
    newline seen.  After ``tokens()``, ``int_spans`` holds one
    ``(token index, start offset, end offset)`` per ``INT`` token -- the
    launch path of :mod:`repro.runtime.launch` keys a submission by its
    text with those spans blanked.
    """

    def __init__(self, source: str) -> None:
        self.source = source
        self.int_spans: list[tuple[int, int, int]] = []

    def tokens(self) -> list[Token]:
        """Tokenize the whole input (EOF token included)."""
        source = self.source
        out: list[Token] = []
        append = out.append
        spans = self.int_spans = []
        line = 1
        bol = 0     # offset of the first character of the current line
        IDENT, CLASSID = TokenKind.IDENT, TokenKind.CLASSID
        PUNCT, KEYWORD = TokenKind.PUNCT, TokenKind.KEYWORD
        for m in _SCAN.finditer(source):
            group = m.lastgroup
            if group == "space" or group == "comment":
                continue
            start = m.start()
            text = m.group()
            column = start - bol + 1
            if group == "newline":
                line += text.count("\n")
                bol = start + text.rindex("\n") + 1
            elif group == "punct":
                append(Token(PUNCT, text, line, column))
            elif group == "lower":
                if text in KEYWORDS:
                    append(Token(KEYWORD, text, line, column,
                                 _BOOLEANS.get(text)))
                else:
                    append(Token(IDENT, text, line, column))
            elif group == "upper":
                append(Token(CLASSID, text, line, column))
            elif group == "int":
                spans.append((len(out), start, m.end()))
                append(Token(TokenKind.INT, text, line, column, int(text)))
            elif group == "float":
                append(Token(TokenKind.FLOAT, text, line, column,
                             float(text)))
            elif group == "string":
                value = text[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], value)
                append(Token(TokenKind.STRING, '"' + value + '"', line,
                             column, value))
            elif group == "word" and text[0].isalpha():
                kind = CLASSID if text[0].isupper() else IDENT
                append(Token(kind, text, line, column))
            else:
                raise self._error(start, line, column)
        append(Token(TokenKind.EOF, "", line, len(source) - bol + 1))
        return out

    def _error(self, start: int, line: int, column: int) -> LexError:
        """The error for the character at ``start``, which begins no
        token: a broken string literal or an unknown character."""
        source = self.source
        if source[start] != '"':
            return LexError(f"unexpected character {source[start]!r}",
                            line, column)
        stop = _STRING_PREFIX.match(source, start).end()
        if source[stop:stop + 1] != "\\":   # end of input or of line
            return LexError("unterminated string literal", line, column)
        return LexError(f"bad escape \\{source[stop + 1:stop + 2]}",
                        line, column + stop - start)


def scan_ints(source: str) -> tuple[list[str], list[str]]:
    """The ``INT`` tokens of ``source`` without a :class:`Token`:
    ``(pieces, digits)`` with ``source == pieces[0] + digits[0] +
    pieces[1] + ... + pieces[-1]``, one C-level ``split``.

    Where ``Lexer(source).tokens()`` succeeds, ``digits`` are the texts
    of its ``INT`` tokens in order; where it raises, this does not (it
    steps over what starts no token), so the result may only stand in
    for a text that is *known* to lex -- see
    :meth:`repro.runtime.launch.LaunchCache.compile`.
    """
    # ['', piece, digits, '', piece, digits, ...]: the matches tile
    # the text; the first one without digits is the tail (an empty
    # match at the very end may follow it).
    parts = _INT_SCAN.split(source)
    digits = parts[2::3]
    count = digits.index("")
    return parts[1:3 * count + 2:3], digits[:count]
