"""The launch cache is exact: whatever `LaunchCache.compile` returns --
first sighting, template build, instantiation -- is the program the
full path (`parse_program` + `compile_term`) builds for the same text,
and fails the way the full path fails.

"Equal" is modulo the `#serial` suffix of debug names: the suffix is a
process-global `Name` counter, history-dependent already, and stripped
by checkpoints for the same reason.

An instantiation also arrives decoded (`Program.decoded_cache`): every
plan it carries is checked, wherever a program is, against the plan
`predecode` builds for the same block.
"""

import ast
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_source, optimize_program
from repro.compiler.assembly import CodeBlock, Instr, Op, Program
from repro.compiler.codegen import CompileError, compile_term
from repro.compiler.linker import extract_bundle, link_bundle
from repro.lang import LexError, Lexer, ParseError, parse_program
from repro.lang import lexer as lexer_module
from repro.mobility.checkpoint import _canonical_name
from repro.runtime import DiTyCONetwork, NameService, Node, launch
from repro.runtime import typecheck as typecheck_module
from repro.runtime.launch import LaunchCache, _shape_key
from repro.runtime.typecheck import check_site_program
from repro.types import TycoTypeError
from repro.vm.dispatch import predecode
from repro.workloads import APPS, WorkloadSpec, generate_trace

from tests.lang.test_lexer import PINS as LEXER_PINS
from tests.lang.test_lexer import assert_scan_is_the_lexers

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def canonical(program):
    def strip(items):
        return [replace(item, name=_canonical_name(item.name))
                for item in items]
    return (strip(program.blocks), strip(program.objects),
            strip(program.groups), program.externals, program.main,
            program.source_name)


def outcome(build):
    """("ok", canonical program) or ("error", type, message)."""
    try:
        program = build()
    except (LexError, ParseError, CompileError) as err:
        return ("error", type(err), str(err))
    # `Instr` equality is tuple equality, under which a marker int
    # subclass passes for the int it wraps: check the types apart.
    for block in program.blocks:
        for instr in block.instrs:
            assert all(type(arg) in (int, float, str, bool)
                       for arg in instr.args), instr
    assert_plans_are_what_predecode_builds(program)
    return ("ok", canonical(program))


def bound(handlers):
    """What a row of handler closures is: code and bound operands (a
    marker int equals the int it wraps, so types are listed apart)."""
    return [(h.__code__, h.__defaults__,
             [type(v) for v in h.__defaults__ or ()]) for h in handlers]


def assert_plans_are_what_predecode_builds(program):
    for block_id, dec in program.decoded_cache.items():
        block = program.blocks[block_id]
        fresh = predecode(program, block)
        assert dec.instrs is block.instrs and dec.size == fresh.size
        assert bound(dec.heads) == bound(fresh.heads)


def reference(source, site_name):
    return outcome(
        lambda: compile_term(parse_program(source).program, site_name))


def submit(cache, source, site_name):
    return outcome(lambda: cache.compile(source, site_name)[0])


def with_ints(source, rng):
    """`source` with every INT token replaced by a drawn one (0, the
    process-position `Nil`, included)."""
    lexer = Lexer(source)
    lexer.tokens()
    out, prev = [], 0
    for _index, start, end in lexer.int_spans:
        out.append(source[prev:start])
        out.append(str(rng.choice((0, 1, 7, 42, 1000, 2 ** 70))))
        prev = end
    return "".join(out) + source[prev:]


def example_programs():
    programs = {}
    for path in sorted((EXAMPLES / "programs").glob("*.dityco")):
        programs[path.name] = path.read_text()
    for path in sorted((EXAMPLES / "programs").glob("*.tycosh")):
        for n, line in enumerate(path.read_text().splitlines()):
            if line.startswith("eval "):
                programs[f"{path.name}:{n}"] = line.split(None, 3)[3]
    for path in sorted(EXAMPLES.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                programs[f"{path.name}:{node.targets[0].id}"] = \
                    node.value.value
    return programs


EXAMPLE_PROGRAMS = example_programs()


# -- the three macro workloads, every op, in arrival order --------------------

@pytest.mark.parametrize("workload, shapes",
                         [("pubsub", 4), ("mapreduce", 1), ("agents", 3)])
def test_every_op_source_equals_the_full_compile(workload, shapes):
    spec = WorkloadSpec(workload=workload, seed=7, ops=300)
    cache = LaunchCache()
    for arrival in generate_trace(spec):
        _ip, name, source = APPS[workload].op_entry(spec, arrival)
        assert submit(cache, source, name) == reference(source, name)
    stats = cache.stats
    assert stats.misses == 2 * shapes and stats.hits == 300 - 2 * shapes
    assert stats.untemplatable == 0 and stats.evictions == 0


@pytest.mark.parametrize("workload", ["pubsub", "mapreduce", "agents"])
def test_the_token_free_walk_reads_every_op_source_as_the_lexer(workload):
    spec = WorkloadSpec(workload=workload, seed=7, ops=1200)
    for arrival in generate_trace(spec):
        assert_scan_is_the_lexers(APPS[workload].op_entry(spec, arrival)[2])


def test_the_token_free_walk_reads_the_examples_as_the_lexer():
    for source in EXAMPLE_PROGRAMS.values():
        assert_scan_is_the_lexers(source)


@pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
def test_example_programs_with_perturbed_integers(name):
    source = EXAMPLE_PROGRAMS[name]
    assert reference(source, "site")[0] == "ok"
    rng = random.Random(name)
    cache = LaunchCache()
    assert submit(cache, source, "site") == reference(source, "site")
    for sighting in range(2, 11):
        variant = with_ints(source, rng)
        site = f"site{sighting}"
        assert submit(cache, variant, site) == reference(variant, site)
    assert cache.stats.hits + cache.stats.misses == 10


def test_the_examples_are_found():
    assert {"cell.dityco", "factorial.dityco", "applet_network.tycosh:1",
            "quickstart.py:CELL"} <= set(EXAMPLE_PROGRAMS)


# -- generated shapes -------------------------------------------------------------

#: (text with `{}` per INT literal, number of literals).
SKELETONS = [
    ("print![{}]", 1),
    ("print![-{}]", 1),
    ("print![{} + {}]", 2),
    ("print![{} * ({} - {}), 1.5, 2.5e3, {}, 1e2 + {}]", 5),
    ("print![true, \"s7\", x9]", 0),
    ("new c (c![{}] | c?(v) = print![v + {}])", 2),
    ("if {} < {} then print![{}] else print![{}]", 4),
    ("if a then b![] else print![{}]", 1),
    ("let z = svc!get[{}] in print![z, {}]", 2),
    ("new o (o?{{ get(r) = r![{}], put(v, r) = r![v + {}] }} | o!get[k])", 2),
    ("def Count(n, out) = if n < {} then Count[n + {}, out] else out![n] "
     "in Count[{}, print]", 3),
    ("def A(x) = B[x + {}] and B(y) = print![y * {}] in A[{}]", 3),
    ("export new e e?(v) = print![v, {}]", 1),
    ("import svc from server in svc![{}, {}]", 2),
]


@st.composite
def shapes(draw):
    parts = draw(st.lists(st.sampled_from(SKELETONS), min_size=1, max_size=3))
    text = " | ".join(f"({part})" if not part.startswith(("export", "import"))
                      else part for part, _n in parts)
    if any(part.startswith(("export", "import")) for part, _n in parts):
        # export / import are whole-program prefixes, not terms.
        text, holes = parts[0]
    else:
        holes = sum(n for _part, n in parts)
    literal = st.one_of(st.sampled_from([0, 1, 5, 5]), st.integers(0, 10 ** 20))
    sightings = draw(st.lists(
        st.lists(literal, min_size=holes, max_size=holes),
        min_size=4, max_size=6))
    return [text.format(*values) for values in sightings]


@settings(max_examples=150, deadline=None)
@given(shapes())
def test_generated_shapes_equal_the_full_compile(sources):
    cache = LaunchCache()
    for n, source in enumerate(sources):
        assert submit(cache, source, f"s{n}") == reference(source, f"s{n}")
    assert cache.stats.untemplatable == 0
    assert cache.stats.hits == len(sources) - 2


def test_nil_in_process_position_is_not_a_constant():
    # The INT of `... | 0` lands in no PUSHC: the shape compiles in
    # full every time, and a non-zero literal there is the parser's
    # error, not a constant.
    cache = LaunchCache()
    for n, source in enumerate(["print![1] | 0", "print![2] | 0",
                                "print![3] | 0", "print![4] | 5"]):
        assert submit(cache, source, f"s{n}") == reference(source, f"s{n}")
    assert submit(cache, "print![4] | 5", "s")[:2] == ("error", ParseError)
    assert (cache.stats.hits, cache.stats.untemplatable) == (0, 1)


def test_a_rejected_shape_compiles_in_full_every_time(monkeypatch):
    monkeypatch.setattr(launch._Template, "accept",
                        classmethod(lambda cls, program, holes: None))
    cache = LaunchCache()
    for n in range(1, 6):
        source = f"new c (c![{n}] | c?(v) = print![v])"
        assert submit(cache, source, f"s{n}") == reference(source, f"s{n}")
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.untemplatable) == (0, 5, 1)


def test_sighting_threshold_is_the_module_constant(monkeypatch):
    monkeypatch.setattr(launch, "TEMPLATE_ON_SIGHTING", 4)
    cache = LaunchCache()
    for n in range(1, 7):
        submit(cache, f"print![{n}]", "s")
    assert (cache.stats.misses, cache.stats.hits) == (4, 2)


def test_the_table_is_bounded(monkeypatch):
    monkeypatch.setattr(launch, "MAX_SHAPES", 4)
    cache = LaunchCache()
    for n in range(10):
        source = f"print![{n}, x{n}]"              # ten shapes
        assert submit(cache, source, "s") == reference(source, "s")
        assert len(cache._shapes) <= 4
    assert cache.stats.evictions == 8 and cache.stats.misses == 10


# -- failures look the same at every sighting ---------------------------------------

@pytest.mark.parametrize("template", [
    "print![{}] @",                      # LexError
    "print![{}, \"open]",                # LexError, string slow path
    "print![{}",                         # ParseError
    "Missing[{}]",                       # ParseError (scoping)
])
def test_errors_are_the_full_paths_errors(template):
    cache = LaunchCache()
    for n in (1, 2, 3):
        source = template.format(n)
        got = submit(cache, source, "s")
        assert got[0] == "error" and got == reference(source, "s")
    assert cache.stats.hits == 0 and not cache._shapes


#: Texts that must not launch, each one a near miss of `print![5]`: a
#: NUL where the key has one, a digit the walk sees and the Lexer does
#: not, and every `LexError` row the lexer's own tests pin.
HOSTILE = ["print![\0]", 'print!["5]', "print![5 \u0663]"] + [
    "print![5] | " + source for source, expected in LEXER_PINS
    if isinstance(expected, LexError)]


@pytest.mark.parametrize("source", HOSTILE, ids=repr)
def test_the_hit_path_does_not_widen_what_launches(source):
    cache = LaunchCache()
    for n in (5, 6, 7):                  # a templated sibling, hit once
        cache.compile(f"print![{n}]", "s")
    assert cache.stats.hits == 1
    with pytest.raises(LexError) as full:
        parse_program(source)
    for _sighting in (1, 2, 3):
        with pytest.raises(LexError) as got:
            cache.compile(source, "s")
        assert (type(got.value), str(got.value), got.value.line,
                got.value.column) == (type(full.value), str(full.value),
                                      full.value.line, full.value.column)
    assert cache.stats.hits == 1 and len(cache._shapes) == 1


def test_the_hostile_rows_are_found():
    assert len(HOSTILE) >= 3 + 15


def test_a_compile_error_is_raised_at_every_sighting(monkeypatch):
    def refuse(term, source_name="<program>"):
        raise CompileError(f"cannot compile for {source_name}")
    monkeypatch.setattr(launch, "compile_term", refuse)
    cache = LaunchCache()
    for n in (1, 2, 3):
        assert submit(cache, f"print![{n}]", "s") == \
            ("error", CompileError, "cannot compile for s")


# -- instantiations are independent ---------------------------------------------------

SHAPE = ("def Loop(n) = if n < {} then Loop[n + 1] else print![n] "
         "in new c (Loop[{}] | c![{}] | c?(v) = print![v])")


def instantiations(count):
    cache = LaunchCache()
    made = [cache.compile(SHAPE.format(n, n + 1, n + 2), f"s{n}")[0]
            for n in range(count + 2)]
    assert cache.stats.hits == count
    return cache, made[2:]


def template_of(cache):
    (template,) = [entry for entry in cache._shapes.values()
                   if type(entry) is launch._Template]
    return template


def test_an_instantiation_is_a_fresh_object_graph():
    cache, (a, b) = instantiations(2)
    for name in ("blocks", "objects", "groups", "externals", "decoded_cache"):
        assert getattr(a, name) is not getattr(b, name)
    assert a.source_name == "s2"
    # It arrives decoded: one plan per block, in a dict of its own.
    plans = template_of(cache).program.decoded_cache
    assert set(a.decoded_cache) == set(plans) == set(range(len(a.blocks)))
    patched = [i for i, block in enumerate(a.blocks)
               if any(ins.op is Op.PUSHC and type(ins.args[0]) is int
                      for ins in block.instrs)]
    assert patched
    for i, (mine, theirs) in enumerate(zip(a.blocks, b.blocks)):
        if i in patched:
            assert mine is not theirs and mine.instrs is not theirs.instrs
            # A block with a literal is new content: own plan, own
            # tier state, decoded from its own instruction tuple.
            assert a.decoded_cache[i] is not b.decoded_cache[i]
            assert a.decoded_cache[i] is not plans[i]
            assert a.decoded_cache[i].instrs is mine.instrs
        else:
            assert mine is theirs          # literal-free code is shared
            # ... and so is its plan, tier state included.
            assert a.decoded_cache[i] is b.decoded_cache[i] is plans[i]
    assert_plans_are_what_predecode_builds(a)


def test_changing_one_instantiation_leaves_the_others_alone():
    cache, (a, b) = instantiations(2)
    before = canonical(b)
    block_ids = [id(block) for block in b.blocks]
    plans = template_of(cache).program.decoded_cache
    template_plans, b_plans = dict(plans), dict(b.decoded_cache)
    tiers = [(dec.entries, dec.compiled) for dec in plans.values()]

    optimize_program(a)                    # clears a's dict, and only a's
    assert a.decoded_cache == {}
    a.decoded_cache[a.main] = predecode(a, a.blocks[a.main])   # warm
    donor = compile_source("def K(x) = print![x] in K[1]")
    link_bundle(a, extract_bundle(donor, group_roots=(0,)))
    assert len(a.blocks) > len(b.blocks) and len(a.groups) > len(b.groups)
    a.decoded_cache[len(b.blocks)] = predecode(a, a.blocks[len(b.blocks)])

    assert canonical(b) == before
    assert [id(block) for block in b.blocks] == block_ids
    # Same keys, same objects: b's dict and the template's plans.
    assert list(b.decoded_cache.items()) == list(b_plans.items())
    assert list(plans.items()) == list(template_plans.items())
    assert [(dec.entries, dec.compiled) for dec in plans.values()] == tiers
    assert_plans_are_what_predecode_builds(b)
    source = SHAPE.format(70, 80, 90)
    assert submit(cache, source, "late") == reference(source, "late")
    late = cache.compile(source, "late")[0]
    assert len(late.blocks) == len(b.blocks)
    assert set(late.decoded_cache) == set(plans)
    assert all(late.decoded_cache[i] is plans[i]
               for i, block in enumerate(late.blocks) if block is b.blocks[i])


def test_instantiated_programs_run():
    net = DiTyCONetwork()
    net.add_node("n0")
    for n in range(5):
        net.launch("n0", f"s{n}", SHAPE.format(n + 3, n, n * 10))
    net.run()
    assert net.node("n0").tycoi.launch.stats.hits == 3
    for n in range(5):
        assert sorted(net.site(f"s{n}").output) == sorted([n + 3, n * 10])


def test_a_literal_free_block_tiers_up_on_the_nodes_second_op():
    # `entries` counts per content: the plan of a literal-free block is
    # one object for every site instantiated from the shape, so the
    # engine's tier rule (machine.TIER_UP_ENTRIES) sees the node's
    # second op as the block's second entry.
    net = DiTyCONetwork()
    net.add_node("n0")
    for n in range(5):
        net.launch("n0", f"s{n}", SHAPE.format(n + 3, n, n * 10))
        net.run()
    plans = template_of(net.node("n0").tycoi.launch).program.decoded_cache
    shared = [i for i, block in enumerate(net.site("s4").vm.program.blocks)
              if block is net.site("s3").vm.program.blocks[i]]
    assert shared and all(plans[i].entries == 0 or plans[i].compiled
                          for i in shared)
    assert any(plans[i].compiled for i in shared)
    for n in range(5):
        assert sorted(net.site(f"s{n}").output) == sorted([n + 3, n * 10])


# -- a patched plan is the plan predecode would have built ---------------------------

#: Shapes that put a hole in front of everything that reads a constant
#: (checked below).
CONSUMERS = [
    "new c (c?(v) = print![v + {}])",                       # binary op
    "new c (c![{}])",                                       # TRMSG l,1
    "new c (c?(v) = if v == {} then print![{}] else c![v])",
    "if {} < {} then print![{}] else print![{}]",           # op; JMPF
    "def K(n) = if n < {} then K[n + {}] else print![n] in K[{}]",
]


def consumers_of_literals(program):
    """Opcodes of the two instructions after each PUSHC of an int: what
    reads the constant, and what reads that (`PUSHC; LT; JMPF`)."""
    ops = set()
    for block in program.blocks:
        for pc, ins in enumerate(block.instrs):
            if ins.op is Op.PUSHC and type(ins.args[0]) is int:
                ops.update(after.op for after in block.instrs[pc + 1:pc + 3])
    return ops


def assert_only_the_holes_were_rebuilt(template, program):
    patched = {(block_id, pc) for block_id, pcs, _indexes in template.patches
               for pc in pcs}
    assert patched
    for block_id, dec in program.decoded_cache.items():
        theirs = template.program.decoded_cache[block_id].heads
        for pc, head in enumerate(dec.heads):
            if (block_id, pc) not in patched:
                assert head is theirs[pc]
            assert not any(type(v) is launch._Hole
                           for v in head.__defaults__ or ())


def test_a_hole_before_every_consumer_of_a_constant():
    seen = set()
    for text in CONSUMERS:
        cache = LaunchCache()
        for n in range(1, 6):
            source = text.format(*range(n, n + text.count("{}")))
            assert submit(cache, source, f"s{n}") == reference(source, f"s{n}")
        assert cache.stats.hits == 3
        program = cache.compile(source, "s")[0]
        assert_only_the_holes_were_rebuilt(template_of(cache), program)
        seen |= consumers_of_literals(program)
    # Codegen emits no STOREL, so `PUSHC c; STOREL d` is hand-made:
    # two holes in one block, the second one an operand of ADD.
    marked = Program(blocks=[CodeBlock((
        Instr(Op.PUSHC, (launch._Hole(5, 0),)), Instr(Op.STOREL, (0,)),
        Instr(Op.PUSHL, (0,)), Instr(Op.PUSHC, (launch._Hole(6, 1),)),
        Instr(Op.ADD, ()), Instr(Op.PRINT, (1,))), 0, 0, 1)])
    template = launch._Template.accept(marked, 2)
    program = template.instantiate([40, 2], "s")
    assert program.blocks[0].instrs[0] == Instr(Op.PUSHC, (40,))
    assert_plans_are_what_predecode_builds(program)
    assert_only_the_holes_were_rebuilt(template, program)
    seen |= consumers_of_literals(program)
    assert seen >= {Op.ADD, Op.EQ, Op.LT, Op.JMPF, Op.STOREL, Op.TRMSG,
                    Op.INSTOF}
    net = DiTyCONetwork()
    net.add_node("n0")
    net.launch("n0", "s", program)
    net.run()
    assert net.site("s").output == [42]


# -- the hit path builds no token -----------------------------------------------------

def test_no_token_is_built_on_a_hit(monkeypatch):
    built, scans = [], []
    real_token, real_tokens = lexer_module.Token, Lexer.tokens

    def token(*args, **kwargs):
        built.append(args)
        return real_token(*args, **kwargs)

    def tokens(self):
        scans.append(self.source)
        return real_tokens(self)

    monkeypatch.setattr(lexer_module, "Token", token)
    monkeypatch.setattr(launch, "Token", token)
    monkeypatch.setattr(Lexer, "tokens", tokens)
    cache = LaunchCache()
    sources = [f"new c (c![{n}] | c?(v) = print![v + {n * n}])"
               for n in range(6)]
    for source in sources[:2]:
        cache.compile(source, "s")
    assert scans == sources[:2] and built        # a miss tokenises
    del built[:], scans[:]
    hits = [cache.compile(source, f"s{n}")[0]
            for n, source in enumerate(sources[2:], 2)]
    assert cache.stats.hits == 4
    assert built == [] and scans == []           # a hit does not
    for n, program in enumerate(hits, 2):
        assert ("ok", canonical(program)) == reference(sources[n], f"s{n}")


def test_the_table_key_is_the_same_bytes_on_either_path():
    for source in ["print![5]", "print![007, x1, 1.5, \"a 2\"] -- 3\n| y![4]",
                   "", "x", "12", *EXAMPLE_PROGRAMS.values()]:
        scanned = launch._key(lexer_module.scan_ints(source)[0])
        lexed = Lexer(source)
        lexed.tokens()
        assert scanned == _shape_key(source, lexed.int_spans)
    # ... so the hit path reads what the miss path wrote.
    cache = LaunchCache()
    for n in range(3):
        cache.compile(f"print![{n}]", "s")
    assert list(cache._shapes) == [_shape_key("print![9]", [(3, 7, 8)])]
    assert cache.stats.hits == 1


def test_a_source_holding_a_nul_reaches_the_lexer(monkeypatch):
    scans = []
    real_tokens = Lexer.tokens
    monkeypatch.setattr(Lexer, "tokens", lambda self: (
        scans.append(self.source), real_tokens(self))[1])
    cache = LaunchCache()
    # NUL where it is legal: compiles to what the full path compiles,
    # and still templates (through the Lexer, as before).
    for template in ['print![{}] -- \0', 'print!["\0", {}]']:
        del scans[:]
        hits = cache.stats.hits
        for n in (1, 2, 3, 4):
            source = template.format(n)
            assert submit(cache, source, f"s{n}") == reference(source, f"s{n}")
        assert cache.stats.hits == hits + 2
        # Twice per text: `submit` and the reference compile.
        assert scans == [template.format(n) for n in (1, 2, 3, 4)
                         for _ in range(2)]


def test_concurrent_submissions_stay_exact(monkeypatch):
    # Two control connections of one daemon submit from two threads.
    # The table takes no lock: entries are immutable and installed by
    # one assignment, so a race may compile a shape once more than
    # needed (or forget one, when the table fills up and is emptied
    # under the other thread's feet) but never hands out a wrong
    # program.  The counts are plain adds and may lose one under
    # contention; exactness is the invariant.
    import sys
    import threading

    monkeypatch.setattr(launch, "MAX_SHAPES", 4)
    cache = LaunchCache()
    wrong, crashed = [], []

    def client(k):
        try:
            for n in range(60):
                # Two hot shapes, and every fifth submission one of six:
                # more shapes than the table holds, so it is emptied
                # now and then and the hot ones are learnt again.
                shape = (n + k) % 6 if n % 5 == 0 else k % 2
                source = f"new c{shape} (c{shape}![{n}] | c{shape}?(v) = print![v + {k}])"
                if submit(cache, source, "s") != reference(source, "s"):
                    wrong.append(source)
        except BaseException as err:            # noqa: BLE001 - reported
            crashed.append(err)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and crashed == []
    assert cache.stats.hits > 0 and cache.stats.evictions > 0
    assert len(cache._shapes) <= 4 + len(threads)


# -- a typed submission is a launch like any other --------------------------------------
#
# An INT literal is `int` whatever its value, so what the static check
# infers is a function of the shape: `typecheck=True` goes through the
# table, and what comes back -- at every sighting -- is the program of
# the untyped path and the signatures of a full `check_site_program`.

def typed_outcome(build):
    """`outcome` of the program, then the export signatures; a type
    error as ("error", TycoTypeError, message without `#serial`s)."""
    signatures = []

    def program():
        built, names = build()
        signatures.append(names)
        return built

    try:
        return outcome(program) + tuple(signatures)
    except TycoTypeError as err:
        return ("error", TycoTypeError, re.sub(r"#\d+", "", str(err)))


def typed_reference(source, site_name):
    def build():
        parsed = parse_program(source).program
        names = check_site_program(site_name, parsed).names
        return compile_term(parsed, site_name), names
    return typed_outcome(build)


def typed_submit(cache, source, site_name):
    return typed_outcome(
        lambda: cache.compile(source, site_name, typecheck=True))


@pytest.fixture
def checks(monkeypatch):
    """Every `check_site_program` call `LaunchCache._full` makes (it
    looks the function up at call time; the references above do not
    go through this name)."""
    calls = []

    def counting(site_name, program):
        calls.append(site_name)
        return check_site_program(site_name, program)

    monkeypatch.setattr(typecheck_module, "check_site_program", counting)
    return calls


@pytest.mark.parametrize("workload", ["pubsub", "mapreduce", "agents"])
def test_every_typed_source_equals_the_full_check(workload, checks):
    # Fabric and op sources, in submission order, one table per node as
    # deployed: the check runs once per full compile, never on a hit.
    spec = WorkloadSpec(workload=workload, seed=7, ops=300)
    app, trace = APPS[workload], generate_trace(spec)
    entries = [entry for phase in app.setup_phases(spec) for entry in phase]
    entries += [app.op_entry(spec, arrival) for arrival in trace]
    entries += [entry for phase in app.post_phases(spec, trace)
                for entry in phase]
    caches = {}
    for ip, name, source in entries:
        cache = caches.setdefault(ip, LaunchCache())
        got = typed_submit(cache, source, name)
        assert got == typed_reference(source, name)
        assert got[0] == "ok" and got[:2] == reference(source, name)
    hits = sum(cache.stats.hits for cache in caches.values())
    full = sum(cache.stats.misses + cache.stats.untemplatable
               for cache in caches.values())
    assert hits >= 0.8 * len(entries) and hits + full == len(entries)
    assert len(checks) == full


@pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
def test_typed_example_programs_with_perturbed_integers(name, checks):
    source = EXAMPLE_PROGRAMS[name]
    rng = random.Random(name)
    cache = LaunchCache()
    for sighting in range(1, 11):
        site = f"site{sighting}"
        got = typed_submit(cache, source, site)
        assert got == typed_reference(source, site)
        if got[0] == "ok":
            assert got[:2] == reference(source, site)
        source = with_ints(EXAMPLE_PROGRAMS[name], rng)
    stats = cache.stats
    assert stats.hits + stats.misses == 10
    # One per full compile that got as far as the check.
    assert len(checks) <= stats.misses + stats.untemplatable


def test_the_typed_examples_cover_signatures_and_a_type_error():
    kinds = {name: typed_reference(source, "site")
             for name, source in EXAMPLE_PROGRAMS.items()}
    assert kinds["seti_at_home.py:SETI_SITE"][:2] == ("error", TycoTypeError)
    assert "svc" in kinds["typechecked_network.py:SERVER_SRC"][2]
    assert "appletserver" in kinds["applet_server.py:SHIP_SERVER"][2]


def test_typechecking_nodes_hit_the_cache_with_equal_signatures(checks):
    node = Node("n1", NameService(), typecheck=True)
    node.attach_transport(lambda *a: None)
    for n in range(4):
        source = f"export new svc svc?{{ put(v) = print![v + {n}] }}"
        site = node.tycoi.submit(f"s{n}", source)
        assert "svc" in site.name_signatures
        assert site.name_signatures == check_site_program(
            f"s{n}", parse_program(source).program).names
    stats = node.tycoi.launch.stats
    assert (stats.hits, stats.misses) == (2, 2)
    assert checks == ["s0", "s1"]


def test_an_ill_typed_shape_is_rejected_at_every_sighting(checks):
    cache = LaunchCache()
    for n in (1, 2, 3):
        with pytest.raises(TycoTypeError):
            cache.compile(f"new x (x![true] | x?(n) = print![n + {n}])", "s",
                          typecheck=True)
    assert cache.stats.hits == 0 and len(checks) == 3
    assert not any(type(entry) is launch._Template
                   for entry in cache._shapes.values())


def test_typecheck_turned_on_after_a_template_was_stored(checks):
    node = Node("n1", NameService())
    node.attach_transport(lambda *a: None)
    source = "export new svc svc?{{ put(v) = print![v + {}] }}".format
    for n in range(3):
        assert node.tycoi.submit(f"s{n}", source(n)).name_signatures == {}
    cache = node.tycoi.launch
    unchecked = template_of(cache)
    frozen = (unchecked.program, unchecked.patches, unchecked.signatures)
    assert frozen[2] is None and cache.stats.hits == 1 and checks == []
    node.typecheck = True
    for n in range(3, 6):
        assert "svc" in node.tycoi.submit(f"s{n}", source(n)).name_signatures
    # One full compile, one check; the entry is a new object, the old
    # one is as it was stored.
    assert checks == ["s3"] and cache.stats.hits == 3
    assert template_of(cache) is not unchecked
    assert template_of(cache).signatures.keys() == {"svc"}
    assert (unchecked.program, unchecked.patches,
            unchecked.signatures) == frozen


def test_program_submissions_are_not_counted():
    node = Node("n1", NameService())
    node.attach_transport(lambda *a: None)
    node.tycoi.submit("s", compile_source("print![1]"))
    stats = node.tycoi.launch.stats
    assert (stats.hits, stats.misses) == (0, 0) and node.tycoi.submissions == 1
