"""The launch cache is exact: whatever `LaunchCache.compile` returns --
first sighting, template build, instantiation -- is the program the
full path (`parse_program` + `compile_term`) builds for the same text,
and fails the way the full path fails.

"Equal" is modulo the `#serial` suffix of debug names: the suffix is a
process-global `Name` counter, history-dependent already, and stripped
by checkpoints for the same reason.
"""

import ast
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_source, optimize_program
from repro.compiler.assembly import Op
from repro.compiler.codegen import CompileError, compile_term
from repro.compiler.linker import extract_bundle, link_bundle
from repro.lang import LexError, Lexer, ParseError, parse_program
from repro.mobility.checkpoint import _canonical_name
from repro.runtime import DiTyCONetwork, NameService, Node, launch
from repro.runtime.launch import LaunchCache
from repro.vm.dispatch import predecode
from repro.workloads import APPS, WorkloadSpec, generate_trace

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
    return ("ok", canonical(program))


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


def test_an_instantiation_is_a_fresh_object_graph():
    _cache, (a, b) = instantiations(2)
    for name in ("blocks", "objects", "groups", "externals", "decoded_cache"):
        assert getattr(a, name) is not getattr(b, name)
    assert a.decoded_cache == {} and a.source_name == "s2"
    patched = [i for i, block in enumerate(a.blocks)
               if any(ins.op is Op.PUSHC and type(ins.args[0]) is int
                      for ins in block.instrs)]
    assert patched
    for i, (mine, theirs) in enumerate(zip(a.blocks, b.blocks)):
        if i in patched:
            assert mine is not theirs and mine.instrs is not theirs.instrs
        else:
            assert mine is theirs          # literal-free code is shared


def test_changing_one_instantiation_leaves_the_others_alone():
    cache, (a, b) = instantiations(2)
    before = canonical(b)
    block_ids = [id(block) for block in b.blocks]

    optimize_program(a)
    a.decoded_cache[a.main] = predecode(a, a.blocks[a.main])   # warm
    donor = compile_source("def K(x) = print![x] in K[1]")
    link_bundle(a, extract_bundle(donor, group_roots=(0,)))
    assert len(a.blocks) > len(b.blocks) and len(a.groups) > len(b.groups)

    assert canonical(b) == before and b.decoded_cache == {}
    assert [id(block) for block in b.blocks] == block_ids
    source = SHAPE.format(70, 80, 90)
    assert submit(cache, source, "late") == reference(source, "late")
    late = cache.compile(source, "late")[0]
    assert late.decoded_cache == {} and len(late.blocks) == len(b.blocks)


def test_instantiated_programs_run():
    net = DiTyCONetwork()
    net.add_node("n0")
    for n in range(5):
        net.launch("n0", f"s{n}", SHAPE.format(n + 3, n, n * 10))
    net.run()
    assert net.node("n0").tycoi.launch.stats.hits == 3
    for n in range(5):
        assert sorted(net.site(f"s{n}").output) == sorted([n + 3, n * 10])


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


# -- what does not go through the cache ---------------------------------------------------

def test_typechecking_nodes_always_compile(monkeypatch):
    node = Node("n1", NameService(), typecheck=True)
    node.attach_transport(lambda *a: None)
    for n in range(4):
        site = node.tycoi.submit(
            f"s{n}", f"export new svc svc?{{ put(v) = print![v + {n}] }}")
        assert "svc" in site.name_signatures
    stats = node.tycoi.launch.stats
    assert (stats.hits, stats.misses) == (0, 4)


def test_program_submissions_are_not_counted():
    node = Node("n1", NameService())
    node.attach_transport(lambda *a: None)
    node.tycoi.submit("s", compile_source("print![1]"))
    stats = node.tycoi.launch.stats
    assert (stats.hits, stats.misses) == (0, 0) and node.tycoi.submissions == 1
