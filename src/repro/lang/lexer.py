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
(docs/PERF.md, "Launch path").  A match is one token together with the
blanks before it, so the loop sees no match for a space, and it tells
the token classes apart by group number (``m.lastindex``).  A
:class:`Token` is a ``NamedTuple`` built by one ``tuple.__new__``: the
frozen dataclass it replaced cost more to build than the rest of the
scan, and so did the generated ``Token.__new__`` (docs/PERF.md, "A miss
pays once per token").  A launch-cache hit builds no token at all
(:func:`scan_ints`).
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


#: The scanner: one match per token, tried in order at every position
#: (so ``--`` is a comment before ``-`` is an operator, ``1.5`` a float
#: before ``1`` an int, ``<=`` before ``<``).  Blanks before a token
#: are taken by the possessive prefix rather than by a match of their
#: own, which halves the matches of spaced-out text; a ``newline``
#: match ends just past its last ``\n`` (blank lines included), so its
#: end is the offset of the next line.  The ``bad`` alternative takes
#: any one character and ``\Z`` the blanks at the end, so successive
#: matches tile the source and a match of ``bad`` is the first
#: offending character.  ``tokens`` dispatches on ``m.lastindex``, a
#: group's number (``None`` where only ``\Z`` matched).
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
    [ \t\r]*+
  (?: (?P<newline> \n (?: [ \t\r]* \n )* )
  | (?P<lower>   [a-z_] {_WORD_TAIL} )
  | (?P<upper>   [A-Z] {_WORD_TAIL} )
  | (?P<float>   {_FLOAT} )
  | (?P<int>     {_INT} )
  | (?P<comment> {_COMMENT} )
  | (?P<punct>   [<>=!]= | [!?\[\](){{}},=|.+\-*/%<>] )
  | (?P<string>  {_STRING} )
  | (?P<word>    {_WORD} )
  | (?P<bad>     (?s: . ) )
  | \Z )
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

    #: The class the scan loop builds its tokens as, bound once:
    #: ``tuple.__new__`` needs the class itself, whatever the module's
    #: ``Token`` name is rebound to, and ``Token(...)`` would add the
    #: Python-level frame of the generated ``Token.__new__`` to every
    #: token.
    _token = Token

    def __init__(self, source: str) -> None:
        self.source = source
        self.int_spans: list[tuple[int, int, int]] = []

    def tokens(self) -> list[Token]:
        """Tokenize the whole input (EOF token included)."""
        source = self.source
        out: list[Token] = []
        append = out.append
        spans = self.int_spans = []
        new, token = tuple.__new__, self._token
        line = 1
        # One less than the offset of the current line's first
        # character, so a token at offset ``i`` is in column ``i - bol``.
        bol = -1
        IDENT, CLASSID = TokenKind.IDENT, TokenKind.CLASSID
        PUNCT, KEYWORD, INT = TokenKind.PUNCT, TokenKind.KEYWORD, TokenKind.INT
        group = _SCAN.groupindex
        NEWLINE_G, LOWER_G, UPPER_G = (group["newline"], group["lower"],
                                       group["upper"])
        FLOAT_G, INT_G, COMMENT_G = (group["float"], group["int"],
                                     group["comment"])
        PUNCT_G, STRING_G, WORD_G = (group["punct"], group["string"],
                                     group["word"])
        # Most frequent first: punctuation, then lowercase words.
        for m in _SCAN.finditer(source):
            g = m.lastindex
            if g == PUNCT_G:
                append(new(token, (PUNCT, m[g], line, m.start(g) - bol, None)))
            elif g == LOWER_G:
                text = m[g]
                if text in KEYWORDS:
                    append(new(token, (KEYWORD, text, line, m.start(g) - bol,
                                       _BOOLEANS.get(text))))
                else:
                    append(new(token, (IDENT, text, line, m.start(g) - bol,
                                       None)))
            elif g == NEWLINE_G:
                line += m[g].count("\n")
                bol = m.end() - 1
            elif g == INT_G:
                text = m[g]
                start = m.start(g)
                spans.append((len(out), start, m.end()))
                append(new(token, (INT, text, line, start - bol, int(text))))
            elif g == UPPER_G:
                append(new(token, (CLASSID, m[g], line, m.start(g) - bol,
                                   None)))
            elif g is None or g == COMMENT_G:
                continue
            elif g == FLOAT_G:
                text = m[g]
                append(new(token, (TokenKind.FLOAT, text, line,
                                   m.start(g) - bol, float(text))))
            elif g == STRING_G:
                value = m[g][1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], value)
                append(new(token, (TokenKind.STRING, '"' + value + '"', line,
                                   m.start(g) - bol, value)))
            elif g == WORD_G and m[g][0].isalpha():
                text = m[g]
                kind = CLASSID if text[0].isupper() else IDENT
                append(new(token, (kind, text, line, m.start(g) - bol, None)))
            else:
                start = m.start(g)
                raise self._error(start, line, start - bol)
        append(Token(TokenKind.EOF, "", line, len(source) - bol))
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
