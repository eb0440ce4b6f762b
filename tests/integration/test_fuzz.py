"""Fuzz tests: hostile inputs must fail cleanly, never hang or corrupt.

Three attack surfaces: source text (lexer/parser), wire buffers
(decode), and assembly listings (asmparser).  Each must either succeed
or raise its module's documented exception -- anything else (crash,
hang, wrong exception) is a bug.

Every test runs under a pinned hypothesis seed (``FUZZ_SEED``) so CI
failures reproduce locally; on failure the seed and a one-line repro
command are printed to stderr.
"""

import functools
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

from repro.compiler import AsmParseError, parse_assembly
from repro.lang import LexError, Lexer, ParseError, parse_program
from repro.runtime.wire import WireError, decode, encode

FUZZ_SEED = 0xD17C0


def pinned(test):
    """Pin the hypothesis seed and, on failure, print the seed plus a
    one-line repro command before re-raising."""
    test = seed(FUZZ_SEED)(test)

    @functools.wraps(test)
    def wrapper(self, *args, **kwargs):
        try:
            return test(self, *args, **kwargs)
        except BaseException:
            nodeid = (f"tests/integration/test_fuzz.py::"
                      f"{type(self).__name__}::{test.__name__}")
            print(f"\nfuzz failure under pinned seed {FUZZ_SEED}; repro:\n"
                  f"  PYTHONPATH=src python -m pytest -x -q '{nodeid}'",
                  file=sys.stderr)
            raise

    return wrapper


class TestLexerFuzz:
    @pinned
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_text(self, source):
        try:
            tokens = Lexer(source).tokens()
        except LexError:
            return
        assert tokens[-1].kind.name == "EOF"

    @pinned
    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="xy!?[](){}|=,.0123456789 \n", max_size=100))
    def test_punctuation_soup(self, source):
        try:
            Lexer(source).tokens()
        except LexError:
            pass


class TestParserFuzz:
    @pinned
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=150))
    def test_arbitrary_text(self, source):
        try:
            parse_program(source)
        except (ParseError, LexError):
            pass

    @pinned
    @settings(max_examples=150, deadline=None)
    @given(st.text(
        alphabet="xyzw XYZ new def in and if then else let import export "
                 "from ! ? [ ] ( ) { } | = , 0 1 true",
        max_size=120))
    def test_keyword_soup(self, source):
        try:
            parse_program(source)
        except (ParseError, LexError):
            pass

    @pinned
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 30))
    def test_deep_nesting(self, depth):
        source = "(" * depth + "0" + ")" * depth
        assert parse_program(source) is not None

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_program("((((0")

    def test_runaway_def_rejected(self):
        with pytest.raises(ParseError):
            parse_program("def X() = def Y() = 0")


class TestWireFuzz:
    @pinned
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        try:
            value = decode(data)
        except WireError:
            return
        # Whatever decoded must re-encode (canonical form).
        assert decode(encode(value)) == value

    @pinned
    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=60))
    def test_corrupted_valid_packet(self, noise):
        base = encode((1, "val", (1, 2, True, "payload")))
        for cut in (3, len(base) // 2, len(base) - 1):
            corrupted = base[:cut] + noise
            try:
                decode(corrupted)
            except WireError:
                pass

    def test_nesting_bomb_is_a_wire_error(self):
        # 5000 nested one-tuples: deeper than the interpreter recurses.
        # Callers catch WireError only, so that is what it has to be.
        bomb = b"\x07\x01" * 5000 + b"\x00"
        with pytest.raises(WireError, match="nested too deeply"):
            decode(bomb)

    def test_length_bomb_rejected_cheaply(self):
        # A string header claiming 2^40 bytes with a 3-byte body must
        # fail immediately, not allocate.
        bomb = bytes([0x05]) + b"\xff\xff\xff\xff\xff\x3f" + b"abc"
        with pytest.raises(WireError):
            decode(bomb)


class TestAsmFuzz:
    @pinned
    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_text(self, source):
        try:
            parse_assembly(source)
        except AsmParseError:
            pass

    @pinned
    @settings(max_examples=80, deadline=None)
    @given(st.text(alphabet="block object group pushc pushl halt 0123 ()[];=,->b'",
                   max_size=150))
    def test_assembly_soup(self, source):
        try:
            parse_assembly(source)
        except AsmParseError:
            pass
