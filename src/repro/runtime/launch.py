"""The launch path: source text -> :class:`Program`, once per shape.

"Each submission compiles (if needed) and creates a new site" (section
5).  A node that serves client traffic is sent the same program over
and over with different numbers in it -- ``op17`` and ``op18`` of a
macro workload differ in two integer literals -- so *if needed* is
decided per **shape**: the submission's text with every ``INT`` token
blanked.  The code is one unit, the literals are its data.

* 1st sighting of a shape: compile in full, remember a 16-byte digest.
* 2nd sighting (:data:`TEMPLATE_ON_SIGHTING`): compile once more with
  every ``INT`` token's value wrapped in a :class:`_Hole`, and keep the
  result as a template if each hole came out as the operand of exactly
  one ``PUSHC`` and nowhere else.  Otherwise the shape is remembered
  as untemplatable and always compiles in full (``0`` in process
  position is ``Nil``, not a constant).
* Later sightings: :meth:`_Template.instantiate` -- a fresh ``Program``
  that shares the literal-free ``CodeBlock`` s -- and with them the
  handlers the template decoded and the tier state beside them -- and
  re-tuples (and re-binds the constant handlers of) the rest.  A later
  sighting is recognised without the :class:`Lexer`:
  :func:`~repro.lang.lexer.scan_ints` yields the same key and the
  literals' digits from one C-level pass, so a known shape launches at
  the cost of its literals.

Every submission without a NUL is keyed by ``scan_ints``; a miss keeps
that key and runs the front end once: :class:`Lexer`, ``parse_program``
and ``compile_term``, each one call (a text holding a NUL is keyed from
its tokens instead -- see :meth:`LaunchCache.compile`).  A first
sighting drops its tokens once they are parsed, and an untyped miss
runs with the cyclic garbage collector paused: none of what it
allocates is in a reference cycle (``tests/runtime/test_launch_miss.py``),
so a collection during it would only rescan the heap (docs/PERF.md,
"A miss pays once per token").

Why the second sighting and not the first: a shape seen once is the
common case for generated one-off programs (the ``coldstart``
benchmark), where templating every submission cost +48 % wall for no
hit (docs/PERF.md, "Launch path"); waiting one sighting costs such a
program a digest.  The same policy, for the same kind of measured
reason, as ``machine.TIER_UP_ENTRIES``.

A typed submission (``typecheck=True``, section 7's static half) is a
launch like any other: an ``INT`` literal is ``int`` whatever its
value, so the export signatures ``check_site_program`` infers belong to
the shape.  Every miss runs the check in full; the marked compile's
result is kept on the template and a hit returns it.  A typed
submission that meets a template stored unchecked compiles in full
once more and stores a new one.

Entries are immutable once stored and installed by a single dict
assignment, so concurrent submissions (a launch into a started
wall-clock world, two control connections of one daemon) need no lock:
the worst a race does is compile a shape once more than necessary.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from hashlib import blake2b

from repro.compiler.assembly import CodeBlock, Instr, Op, Program
from repro.compiler.codegen import compile_term
from repro.lang.lexer import Lexer, Token, scan_ints
from repro.lang.parser import parse_program
from repro.vm.dispatch import patch_constants, predecode

#: A shape becomes a template when it is seen for the second time.
TEMPLATE_ON_SIGHTING = 2

#: Shapes remembered per node.  When the table is full it is emptied
#: (a shape still in use costs two compiles to learn again); entries
#: for once-seen shapes are a digest and a small int.
MAX_SHAPES = 1024


class _Hole(int):
    """An ``INT`` literal's value, tagged with its position among the
    submission's ``INT`` tokens.  Behaves as the int it wraps (the
    parser asks ``value == 0``), so the marked compile takes exactly
    the path the plain one would."""

    def __new__(cls, value: int, index: int) -> "_Hole":
        hole = super().__new__(cls, value)
        hole.index = index
        return hole


@dataclass(slots=True)
class LaunchStats:
    """Counts per node; ``hits + misses`` is the number of source
    submissions."""

    hits: int = 0            # instantiated from a template
    misses: int = 0          # parsed and compiled (any other outcome)
    untemplatable: int = 0   # shapes whose marked compile was rejected
    evictions: int = 0       # entries dropped when the table filled up


class _Template:
    """A compiled shape: the marked program, decoded once, where its
    holes are, and the export signatures its static check inferred."""

    __slots__ = ("program", "patches", "signatures")

    def __init__(self, program: Program,
                 patches: list[tuple[int, list[int], list[int]]]) -> None:
        self.program = program
        #: (block id, pcs, hole indexes) per block with a literal.
        self.patches = patches
        #: ``SiteSignatures.names`` of the marked compile, set before
        #: the template is stored; None when it was not checked.
        self.signatures: "dict | None" = None
        # Decoded once, here (repro.vm.dispatch): an instantiation
        # holds the literal-free blocks themselves, so their handlers --
        # and the tier state beside them -- are per content, not per
        # site.
        for block in program.blocks:
            block.heads = predecode(program, block)

    @classmethod
    def accept(cls, program: Program, holes: int) -> "_Template | None":
        """The template for a marked compile, or None when some hole
        is not the operand of exactly one ``PUSHC`` -- or shows up
        anywhere else in the program area."""
        found = [0] * holes
        patches = []
        elsewhere = [program.main]
        for block_id, block in enumerate(program.blocks):
            pcs, indexes = [], []
            for pc, instr in enumerate(block.instrs):
                for arg in instr.args:
                    if type(arg) is _Hole:
                        if instr.op is not Op.PUSHC:
                            return None
                        found[arg.index] += 1
                        pcs.append(pc)
                        indexes.append(arg.index)
            if pcs:
                patches.append((block_id, pcs, indexes))
            elsewhere += (block.nfree, block.nparams, block.frame_size)
        for obj in program.objects:
            elsewhere += obj.methods.values()
        for group in program.groups:
            elsewhere.append(group.nfree)
            elsewhere += (block_id for _hint, block_id in group.clauses)
        if found != [1] * holes or any(type(v) is _Hole for v in elsewhere):
            return None
        return cls(program, patches)

    def instantiate(self, values: list[int], site_name: str) -> Program:
        """A fresh program area for one submission: own tables; the
        literal-free blocks are the template's, a block with a literal
        is re-tupled and its handlers patched where the literal is
        bound."""
        shared = self.program
        blocks = list(shared.blocks)
        program = Program(blocks=blocks, objects=list(shared.objects),
                          groups=list(shared.groups),
                          externals=list(shared.externals),
                          main=shared.main, source_name=site_name)
        for block_id, pcs, indexes in self.patches:
            marked = blocks[block_id]
            instrs = list(marked.instrs)
            for pc, index in zip(pcs, indexes):
                instrs[pc] = Instr(Op.PUSHC, (values[index],))
            block = blocks[block_id] = CodeBlock(
                tuple(instrs), marked.nfree, marked.nparams,
                marked.frame_size, marked.name)
            block.heads = patch_constants(program, marked.heads, block, pcs)
        return program


def _key(pieces: list[str]) -> bytes:
    return blake2b("\0".join(pieces).encode("utf-8", "surrogatepass"),
                   digest_size=16).digest()


def _shape_key(source: str, int_spans) -> bytes:
    """Digest of the source with every ``INT`` token replaced by NUL.

    Whitespace-sensitive on purpose (no per-token work).  Two sources
    with one key have the same tokens up to the digits of their INTs:
    a NUL where a token would start is otherwise a ``LexError``, and
    inside a string or comment no INT starts.
    """
    pieces = []
    prev = 0
    for _index, start, end in int_spans:
        pieces.append(source[prev:start])
        prev = end
    pieces.append(source[prev:])
    return _key(pieces)


class LaunchCache:
    """A node's memory of the program shapes submitted to it (owned by
    :class:`~repro.runtime.daemon.TyCOi`)."""

    def __init__(self) -> None:
        #: shape key -> sightings so far (int), a _Template, or None
        #: for a shape that cannot be templated.
        self._shapes: dict[bytes, "int | _Template | None"] = {}
        self.stats = LaunchStats()

    def compile(self, source: str, site_name: str,
                typecheck: bool = False) -> tuple[Program, "dict | None"]:
        """The program for one source submission, and -- on a
        ``typecheck`` node -- the export signatures the static check
        inferred for its shape."""
        stats = self.stats
        key = None
        if "\0" not in source:
            # The hit path builds no token.  Two NUL-free texts with one
            # key are equal outside the ``[0-9]+`` spans one
            # deterministic left-to-right walk found in each, so they
            # tile alike and one lexes iff the other does -- and a
            # template is only ever stored for a text that did.  For a
            # text that lexes, this is ``_shape_key`` of its tokens, so
            # a miss keeps it.
            pieces, digits = scan_ints(source)
            key = _key(pieces)
            seen = self._shapes.get(key)
            if type(seen) is _Template and (
                    seen.signatures is not None or not typecheck):
                stats.hits += 1
                return seen.instantiate([int(d) for d in digits],
                                        site_name), seen.signatures
        # An untyped miss allocates tens of thousands of tokens, terms
        # and instructions, none of them in a reference cycle, so a
        # cyclic collection during it finds nothing and only rescans the
        # heap: the collector waits until the miss is over.  (The type
        # checker's unifier does leave cycles behind.)
        if typecheck or not gc.isenabled():
            return self._miss(source, site_name, typecheck, key)
        gc.disable()
        try:
            return self._miss(source, site_name, typecheck, key)
        finally:
            gc.enable()

    def _miss(self, source: str, site_name: str, typecheck: bool,
              key: "bytes | None") -> tuple[Program, "dict | None"]:
        """A submission whose shape has no template (or whose text holds
        a NUL), given its key if ``scan_ints`` made one."""
        stats = self.stats
        # A miss tokenises, and so does any text holding a NUL: legal
        # inside a string or a comment, a ``LexError`` wherever a token
        # would start -- the error that keeps ``print![\0]`` from
        # having the key of ``print![5]`` -- so such a text is keyed
        # from its tokens.
        lexer = Lexer(source)
        tokens = lexer.tokens()
        spans = lexer.int_spans
        if key is None:
            key = _shape_key(source, spans)
        values = [tokens[index].value for index, _s, _e in spans]
        seen = self._shapes.get(key, 0)
        if type(seen) is _Template:
            if seen.signatures is not None or not typecheck:
                stats.hits += 1
                return seen.instantiate(values, site_name), seen.signatures
            seen = TEMPLATE_ON_SIGHTING - 1    # stored unchecked: once more
        stats.misses += 1
        if seen is None:                           # untemplatable
            return self._full(source, tokens, site_name, typecheck)
        if seen + 1 < TEMPLATE_ON_SIGHTING:
            program = parse_program(source, tokens).program
            # The tokens are done with once parsed: code is generated
            # without them held.
            del tokens
            result = self._generate(program, site_name, typecheck)
            self._remember(key, seen + 1)
            return result
        marked = list(tokens)
        for hole, (index, _s, _e) in enumerate(spans):
            tok = tokens[index]
            marked[index] = Token(tok.kind, tok.text, tok.line, tok.column,
                                  _Hole(tok.value, hole))
        program, signatures = self._full(source, marked, site_name, typecheck)
        template = _Template.accept(program, len(values))
        if template is None:
            self._remember(key, None)
            stats.untemplatable += 1
            return self._full(source, tokens, site_name, typecheck)
        template.signatures = signatures
        self._remember(key, template)
        return template.instantiate(values, site_name), signatures

    def _remember(self, key: bytes, entry) -> None:
        shapes = self._shapes
        if len(shapes) >= MAX_SHAPES and key not in shapes:
            self.stats.evictions += len(shapes)
            shapes.clear()
        shapes[key] = entry

    @classmethod
    def _full(cls, source: str, tokens: "list[Token] | None", site_name: str,
              typecheck: bool = False) -> tuple[Program, "dict | None"]:
        """What a miss is: parse, (check,) generate code."""
        return cls._generate(parse_program(source, tokens).program,
                             site_name, typecheck)

    @staticmethod
    def _generate(term, site_name: str,
                  typecheck: bool) -> tuple[Program, "dict | None"]:
        """(Check,) generate code."""
        signatures = None
        if typecheck:
            from .typecheck import check_site_program

            signatures = check_site_program(site_name, term).names
        return compile_term(term, source_name=site_name), signatures
