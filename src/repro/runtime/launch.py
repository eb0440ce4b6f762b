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
  that shares the literal-free ``CodeBlock`` s *and their decoded
  plans* and re-tuples (and re-binds the constant handlers of) the
  rest.  A later sighting is recognised without the :class:`Lexer`:
  :func:`~repro.lang.lexer.scan_ints` yields the same key and the
  literals' digits from one C-level pass, so a known shape launches at
  the cost of its literals.

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
        # The template owns the decoded plans (repro.vm.dispatch): an
        # instantiation starts from a copy of this dict, so the plan --
        # and the tier state riding on it -- of a literal-free block is
        # per content, not per site.
        program.decoded_cache.update(
            (block_id, predecode(program, block))
            for block_id, block in enumerate(program.blocks))

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
        """A fresh program area for one submission: own tables and own
        decoded-cache dict; the literal-free blocks and their plans are
        the template's, a block with a literal is re-tupled and its
        plan patched where the literal is bound."""
        shared = self.program
        blocks = list(shared.blocks)
        decoded = dict(shared.decoded_cache)
        program = Program(blocks=blocks, objects=list(shared.objects),
                          groups=list(shared.groups),
                          externals=list(shared.externals),
                          main=shared.main, source_name=site_name,
                          decoded_cache=decoded)
        for block_id, pcs, indexes in self.patches:
            block = blocks[block_id]
            instrs = list(block.instrs)
            for pc, index in zip(pcs, indexes):
                instrs[pc] = Instr(Op.PUSHC, (values[index],))
            block = blocks[block_id] = CodeBlock(
                tuple(instrs), block.nfree, block.nparams, block.frame_size,
                block.name)
            decoded[block_id] = patch_constants(program, decoded[block_id],
                                                block, pcs)
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
        if "\0" not in source:
            # The hit path builds no token.  Two NUL-free texts with one
            # key are equal outside the ``[0-9]+`` spans one
            # deterministic left-to-right walk found in each, so they
            # tile alike and one lexes iff the other does -- and a
            # template is only ever stored for a text that did.
            pieces, digits = scan_ints(source)
            seen = self._shapes.get(_key(pieces))
            if type(seen) is _Template and (
                    seen.signatures is not None or not typecheck):
                stats.hits += 1
                return seen.instantiate([int(d) for d in digits],
                                        site_name), seen.signatures
        # A miss tokenises, and so does any text holding a NUL: legal
        # inside a string or a comment, a ``LexError`` wherever a token
        # would start -- the error that keeps ``print![\0]`` from
        # having the key of ``print![5]``.
        lexer = Lexer(source)
        tokens = lexer.tokens()
        spans = lexer.int_spans
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
            result = self._full(source, tokens, site_name, typecheck)
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

    @staticmethod
    def _full(source: str, tokens: "list[Token] | None", site_name: str,
              typecheck: bool = False) -> tuple[Program, "dict | None"]:
        """What a miss is: parse, (check,) generate code."""
        parsed = parse_program(source, tokens)
        signatures = None
        if typecheck:
            from .typecheck import check_site_program

            signatures = check_site_program(site_name, parsed.program).names
        return compile_term(parsed.program, source_name=site_name), signatures
