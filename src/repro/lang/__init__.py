"""The DiTyCO source language: lexer, parser, pretty-printer.

Programs written in the paper's concrete syntax are parsed directly
into core-calculus terms (:mod:`repro.core.terms`); the abbreviations
of section 2 (``x![v]``, ``x?(y)=P``) and the ``let`` synchronous-call
sugar are expanded during parsing.
"""

from .._lazy import exports

# Eager: the name is also a submodule's (see repro._lazy).
from .pretty import pretty

__getattr__, __dir__, __all__ = exports(__name__, {
    "lexer": "KEYWORDS LexError Lexer Token TokenKind",
    "parser": "ParseError ParsedProgram Parser parse_process parse_program",
    "pretty": "is_printable_source pretty pretty_expr",
})
