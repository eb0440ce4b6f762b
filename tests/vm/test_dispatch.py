"""Unit tests for the production engine (repro.vm.dispatch closures,
repro.vm.compile generated code, and the tier rule between them).

The engine's contract (docs/PERF.md): same outputs, same VMStats --
``instructions`` *exactly*, so simulated schedules are untouched --
same error messages as the ``slow`` reference, for every budget split
and whichever tier a block runs on.  These tests pin that contract at
the unit level; the whole-network leg lives in
tests/integration/test_engine_differential.py.
"""

import builtins
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.compiler import compile_source, parse_assembly
from repro.compiler.assembly import CodeBlock, Instr, Op
from repro.compiler.linker import extract_bundle, link_bundle
from repro.runtime import DiTyCONetwork
from repro.vm import TycoVM, VMRuntimeError, dispatch, machine
from repro.vm import compile as tier3

from tests.vm.arms import ARMS, each_arm

COUNTER = "def Count(n) = if n > 0 then Count[n - 1] else print![0] in Count[40]"
CELL = """
def Cell(self, v) =
  self ? { read(r)  = r![v] | Cell[self, v],
           write(u) = Cell[self, u] }
in new x (
  Cell[x, 0]
| def Drive(k) =
    if k < 25 then (x!write[k] | let v = x!read[] in Drive[k + 1])
    else print!["done"]
  in Drive[0]
)
"""


def snapshot(vm):
    s = vm.stats
    return (s.instructions, s.reductions, s.comm_reductions,
            s.inst_reductions, s.threads_spawned, s.messages_queued,
            s.objects_queued, vm.runqueue.context_switches,
            len(vm.heap), list(vm.output))


def run(source, engine="compiled", budget=100_000):
    prog = compile_source(source)
    vm = TycoVM(prog, name="t", engine=engine)
    vm.boot()
    while not vm.is_idle():
        if vm.step(budget) == 0:
            break
    return vm


def observe(vm):
    """Everything a VM shows: outputs, every VMStats field, the
    run-queue's counters."""
    return (list(vm.output), dataclasses.asdict(vm.stats),
            vm.runqueue.context_switches, vm.runqueue.max_depth)


def run_observed(program, engine):
    vm = TycoVM(program, name="t", engine=engine)
    vm.boot()
    try:
        vm.run(100_000)
        error = None
    except VMRuntimeError as exc:
        error = str(exc)
    return observe(vm), error


def run_program(prog, budget=100_000):
    """Boot a fresh production VM over ``prog`` and run it dry."""
    vm = TycoVM(prog, name="t")
    vm.boot()
    vm.run(budget)
    return vm


class TestEnginePlumbing:
    def test_unknown_engine_rejected(self):
        prog = compile_source("0")
        with pytest.raises(ValueError):
            TycoVM(prog, engine="warp")

    def test_fast_engine_rejected(self, monkeypatch):
        # The closures are a tier of the production engine now, not an
        # engine a caller can ask for.
        prog = compile_source("0")
        with pytest.raises(ValueError, match="unknown VM engine"):
            TycoVM(prog, engine="fast")
        monkeypatch.setenv("REPRO_VM_ENGINE", "fast")
        with pytest.raises(ValueError, match="unknown VM engine"):
            TycoVM(prog)

    def test_fusion_parameter_rejected(self):
        with pytest.raises(TypeError):
            TycoVM(compile_source("0"), fusion=False)

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_VM_ENGINE", "slow")
        assert TycoVM(compile_source("0")).engine == "slow"
        monkeypatch.setenv("REPRO_VM_ENGINE", "compiled")
        assert TycoVM(compile_source("0")).engine == "compiled"

    def test_default_engine_is_compiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_VM_ENGINE", raising=False)
        vm = TycoVM(compile_source("0"))
        assert vm.engine == "compiled"

    def test_kwargs_override_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VM_ENGINE", "slow")
        vm = TycoVM(compile_source("0"), engine="compiled")
        assert vm.engine == "compiled"


def test_one_handler_per_instruction():
    # The closure tier decodes and does nothing else: no second row of
    # handlers, no widths, no planner behind it (docs/PERF.md, "Tried,
    # shipped, deleted").
    assert dispatch.DecodedBlock.__slots__ == (
        "instrs", "size", "heads", "entries", "compiled")
    for source in (COUNTER, CELL):
        prog = compile_source(source)
        for block in prog.blocks:
            dec = dispatch.predecode(prog, block)
            assert len(dec.heads) == len(block.instrs)
    assert not hasattr(dispatch, "_FUSED_FACTORIES")


class TestEngineParity:
    @pytest.mark.parametrize("source", [COUNTER, CELL])
    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 64, 100_000])
    def test_stats_identical_across_engines_and_budgets(self, source, budget,
                                                        monkeypatch):
        ref = snapshot(run(source, "slow"))
        for arm in each_arm(monkeypatch):
            assert snapshot(run(source, budget=budget)) == ref, arm

    def test_closures_match_the_reference_at_every_slice_length(
            self, monkeypatch):
        # One handler charges one instruction, so a budget cut can
        # land between any two instructions of a block.
        monkeypatch.setattr(machine, "TIER_UP_ENTRIES", ARMS["closures"])
        for source in (COUNTER, CELL):
            ref = snapshot(run(source, "slow"))
            for budget in (*range(1, 13), 100_000):
                assert snapshot(run(source, budget=budget)) == ref, budget

    def test_step_budget_exact_on_fast_engine(self, monkeypatch):
        for arm in each_arm(monkeypatch):
            prog = compile_source("def Loop(n) = Loop[n + 1] in Loop[0]")
            vm = TycoVM(prog)
            vm.boot()
            assert vm.step(100) == 100, arm
            assert vm.stats.instructions == 100
            assert not vm.is_idle()

    def test_tracer_forces_instrumented_loop(self):
        from repro.vm.trace import Tracer

        prog = compile_source(COUNTER)
        vm = TycoVM(prog)
        tracer = Tracer()
        tracer.install(vm)
        vm.boot()
        vm.run(100_000)
        # The instrumented loop ran: the tracer saw every instruction.
        assert len(tracer) == vm.stats.instructions > 0
        assert vm.output == [0]

    def test_error_message_parity(self, monkeypatch):
        bad = "print![1 / 0]"
        with pytest.raises(VMRuntimeError) as ref:
            run(bad, "slow")
        for arm in each_arm(monkeypatch):
            with pytest.raises(VMRuntimeError) as exc:
                run(bad)
            assert str(exc.value) == str(ref.value), arm

    @pytest.mark.parametrize("source", [
        "def F(a, b) = print![a] in F[1]",       # too few arguments
        "def F(a) = print![a] in F[1, 2]",       # too many arguments
    ])
    def test_arity_mismatch_parity(self, source, monkeypatch):
        with pytest.raises(VMRuntimeError) as ref:
            run(source, "slow")
        assert "argument(s)" in str(ref.value)
        for arm in each_arm(monkeypatch):
            with pytest.raises(VMRuntimeError) as exc:
                run(source)
            assert str(exc.value) == str(ref.value), arm


class TestBoolArithRejection:
    """Regression: arithmetic on booleans must raise on *every* path --
    the generic ``_arith``, the closures' binops (whose exact
    ``type() is int/float`` tests exclude ``bool`` by construction) and
    the generated code's inlined int fast path (``__class__ is int``
    guards)."""

    @pytest.mark.parametrize("expr", [
        "true + 1", "1 + true", "true - 1", "1 - false",
        "true * 2", "2 * true", "true / 1", "1 / true",
        "true % 1", "1 % true", "true + false",
    ])
    @pytest.mark.parametrize("arm", ["slow", "closures", "generated"])
    def test_bool_operand_raises(self, expr, arm, monkeypatch):
        if arm != "slow":
            monkeypatch.setattr(machine, "TIER_UP_ENTRIES", ARMS[arm])
        with pytest.raises(VMRuntimeError, match="arithmetic on booleans"):
            run(f"print![{expr}]", "slow" if arm == "slow" else "compiled")

    def test_bool_operand_raises_in_a_method_body(self, monkeypatch):
        # The operand reaches the op from a frame slot (PUSHL; PUSHC;
        # op) inside a method body, not a top-level expression (and,
        # in generated code, through the inlined int fast path whose
        # ``__class__ is int`` guard must exclude bool).
        src = "def F(n) = print![n + 1] in F[true]"
        with pytest.raises(VMRuntimeError, match="arithmetic on booleans"):
            run(src, "slow")
        for arm in each_arm(monkeypatch):
            with pytest.raises(VMRuntimeError, match="arithmetic on booleans"):
                run(src)


def swap_literal(prog, old, new):
    """Hot-swap block 0 for a copy pushing ``new`` where it pushed
    ``old`` (what a relink does: a new instruction tuple)."""
    block = prog.blocks[0]
    instrs = list(block.instrs)
    at = next(i for i, ins in enumerate(instrs)
              if ins.op is Op.PUSHC and ins.args == (old,))
    instrs[at] = Instr(Op.PUSHC, (new,))
    prog.blocks[0] = CodeBlock(
        instrs=tuple(instrs),
        nfree=block.nfree, nparams=block.nparams,
        frame_size=block.frame_size, name=block.name)


class TestDecodedCache:
    def test_cache_fills_lazily_and_is_shared(self):
        prog = compile_source(COUNTER)
        assert prog.decoded_cache == {}
        vm1 = run_program(prog)
        assert prog.decoded_cache    # hot blocks decoded
        filled = dict(prog.decoded_cache)
        # A second VM over the same program reuses the entries.
        vm2 = run_program(prog)
        for bid, dec in filled.items():
            assert prog.decoded_cache[bid] is dec
        assert vm2.output == vm1.output

    def test_stale_entry_reinvalidated_by_identity(self):
        # Hot-swapping a block (what a relink does) must not execute
        # stale handlers: the cache checks instruction-tuple identity.
        prog = compile_source("print![1]")
        assert run_program(prog, 100).output == [1]
        swap_literal(prog, 1, 2)
        assert run_program(prog, 100).output == [2]

    def test_linked_blocks_decode_lazily(self):
        # link_bundle appends blocks; existing cache entries stay valid
        # and the new ids decode on first execution.
        donor = compile_source(COUNTER)
        prog = compile_source("print![7]")
        run_program(prog, 100)
        cached_before = dict(prog.decoded_cache)
        bundle = extract_bundle(donor, block_roots=(0,))
        result = link_bundle(prog, bundle)
        for bid, dec in cached_before.items():
            assert prog.decoded_cache[bid] is dec
        assert max(result.block_map.values()) < len(prog.blocks)


class TestCompiledCache:
    """A block's tier state -- its slice-entry count and, from the
    ``TIER_UP_ENTRIES``-th entry, its generated function -- lives on
    its ``DecodedBlock`` beside the closure plan, so it inherits the
    plan's invalidation rules: identity checks drop stale entries,
    ``link_bundle`` appends without disturbing live entries, and a
    restart rebuilds the program (fresh cache) -- the generation-bump
    path."""

    def test_first_entry_runs_closures_second_compiles(self):
        prog = compile_source("print![7]")
        assert run_program(prog, 100).output == [7]
        dec = prog.decoded_cache[prog.main]
        assert dec.entries == 1 and dec.compiled is None
        assert run_program(prog, 100).output == [7]
        assert dec.entries == 2 and dec.compiled is not None
        # From here on the count has done its job and stops moving.
        assert run_program(prog, 100).output == [7]
        assert dec.entries == 2

    def test_compiled_fn_cached_and_shared(self):
        prog = compile_source(COUNTER)
        vm1 = run_program(prog)
        fns = {bid: dec.compiled for bid, dec in prog.decoded_cache.items()
               if dec.compiled is not None}
        assert fns, "no block got a compiled function"
        # A second VM over the same program reuses the same functions.
        vm2 = run_program(prog)
        for bid, fn in fns.items():
            assert prog.decoded_cache[bid].compiled is fn
        assert vm2.output == vm1.output == [0]

    def test_stale_entry_reinvalidated_by_identity(self):
        # Hot-swapping a block must not execute stale handlers or a
        # stale compiled function, nor inherit the old block's count:
        # the decoded entry (and everything hanging off it) is dropped
        # on instruction-tuple identity mismatch.
        prog = compile_source("print![1]")
        assert run_program(prog, 100).output == [1]
        swap_literal(prog, 1, 2)
        assert run_program(prog, 100).output == [2]
        dec = prog.decoded_cache[0]
        assert dec.entries == 1 and dec.compiled is None
        assert run_program(prog, 100).output == [2]
        assert dec.compiled is not None
        swap_literal(prog, 2, 3)
        assert run_program(prog, 100).output == [3]
        assert prog.decoded_cache[0].compiled is None

    def test_literal_type_not_aliased_by_memo(self, monkeypatch):
        # 7 == 7.0 == True-as-1 in Python: the content-addressed memo
        # must not hand the int program's function to the float one.
        monkeypatch.setattr(machine, "TIER_UP_ENTRIES", ARMS["generated"])
        out = []
        for lit in ("7 / 2", "7.0 / 2"):
            out.append(run(f"print![{lit}]", budget=100).output[0])
        assert out == [3, 3.5]

    def test_full_memo_is_emptied_not_frozen(self, monkeypatch):
        # A memo that only stored while it had room would, once full,
        # compile every shape first seen later on each relaunch.
        monkeypatch.setattr(tier3, "_MEMO", {})
        monkeypatch.setattr(tier3, "_MEMO_CAP", 4)

        def compiled(width):
            # One shape per width: print! with ``width`` arguments.
            prog = compile_source(f"print![{', '.join(['1'] * width)}]")
            return tier3.compile_block(
                prog, prog.main, prog.blocks[prog.main]).__code__

        first = [compiled(n) for n in range(1, 5)]
        assert len(tier3._MEMO) == 4
        assert all(compiled(n) is code                      # all remembered
                   for n, code in zip(range(1, 5), first))
        fifth = compiled(5)
        assert compiled(5) is fifth and all(fifth is not c for c in first)
        assert 1 <= len(tier3._MEMO) <= 4
        assert compiled(1) is not first[0]      # evicted: compiled anew,
        assert compiled(1) is compiled(1)       # and remembered again

    def test_one_code_object_per_shape(self, monkeypatch):
        # Literals, FORK targets and the block's own position are
        # defaults of the generated function, not part of its source:
        # blocks differing only in those share one code object, and
        # each still prints its own answer.
        monkeypatch.setattr(tier3, "_MEMO", {})
        monkeypatch.setattr(machine, "TIER_UP_ENTRIES", ARMS["generated"])
        donor = compile_source(
            "def F(x) = (print![x] | print![x + 1]) in F[1]")
        prog = compile_source(
            "def F(x) = (print![x] | print![x + 7]) in F[3]")
        (fid,) = [i for i, b in enumerate(prog.blocks) if b.name == "class F"]
        assert donor.blocks[fid].name == "class F"
        # The bundle's block 0 is its root, the donor's F.
        linked = link_bundle(prog, extract_bundle(donor, block_roots=(fid,)))
        moved = linked.block_map[0]
        fork_at = [ins.args[0] for ins in prog.blocks[fid].instrs
                   if ins.op is Op.FORK]
        fork_moved = [ins.args[0] for ins in prog.blocks[moved].instrs
                      if ins.op is Op.FORK]
        assert moved != fid and fork_moved != fork_at
        assert sorted(run_program(donor).output) == [1, 2]
        vm = run_program(prog)
        assert sorted(vm.output) == [3, 10]
        # The linked copy of the donor's F, at its new position.
        vm.spawn(moved, (vm.externals["print"], None), (5,))
        vm.run(100)
        assert sorted(vm.output) == [3, 5, 6, 10]
        codes = {id(program.decoded_cache[bid].compiled.__code__)
                 for program, bid in ((donor, fid), (prog, fid),
                                      (prog, moved))}
        assert len(codes) == 1
        forks = {id(prog.decoded_cache[bid].compiled.__code__)
                 for bid in (*fork_at, *fork_moved)}
        assert len(forks) == 1

    def test_literal_types_compile_apart(self, monkeypatch):
        # 7 == 7.0 == True-as-1 in Python; a literal's type is part of
        # the shape (the inlined arithmetic checks it).
        monkeypatch.setattr(tier3, "_MEMO", {})
        codes = set()
        for literal in ("7", "7.0", "true"):
            source = f"print![{literal} - 2]"
            ref = run_observed(compile_source(source), "slow")
            for arm in each_arm(monkeypatch):
                assert run_observed(compile_source(source), "compiled") \
                    == ref, arm
            prog = compile_source(source)
            codes.add(id(tier3.compile_block(
                prog, prog.main, prog.blocks[prog.main]).__code__))
        assert len(codes) == 3 == len(tier3._MEMO)

    def test_compile_runs_once_per_shape(self, monkeypatch):
        sources = []
        monkeypatch.setattr(tier3, "_MEMO", {})
        monkeypatch.setattr(
            tier3, "compile",
            lambda source, *rest: sources.append(source) or
            builtins.compile(source, *rest), raising=False)
        for n in range(5):
            for text in (f"print![{n}]", f"print![{n}, {n + 1}]"):
                prog = compile_source(text)
                tier3.compile_block(prog, prog.main, prog.blocks[prog.main])
        assert len(sources) == 2

    def test_link_bundle_keeps_compiled_entries(self):
        donor = compile_source(COUNTER)
        prog = compile_source("print![7]")
        run_program(prog, 100)
        run_program(prog, 100)
        cached = {bid: (dec.entries, dec.compiled) for bid, dec in
                  prog.decoded_cache.items()}
        assert cached[prog.main][1] is not None
        bundle = extract_bundle(donor, block_roots=(0,))
        result = link_bundle(prog, bundle)
        for bid, state in cached.items():
            dec = prog.decoded_cache[bid]
            assert (dec.entries, dec.compiled) == state
        # The appended block starts its own count: closures on its
        # first entry, generated code from its second.
        linked = max(result.block_map.values())
        blk = prog.blocks[linked]
        for compiled in (False, True):
            vm = TycoVM(prog)
            vm.boot()
            # n = 0: the linked Count body goes straight to its print
            # branch (the env channels are fresh stand-ins, so the
            # message just queues -- what matters is which tier ran).
            vm.spawn(linked, tuple(
                vm.heap.new_channel() for _ in range(blk.nfree)), (0,))
            vm.run(100_000)
            assert (prog.decoded_cache[linked].compiled is not None) \
                is compiled

    def test_budget_cut_thread_resumes_on_generated_code(self):
        # A thread starts on closures (its block's first entry), is cut
        # by the budget, and its resumption -- the block's second entry
        # -- runs generated code from an interior pc: a segment leader
        # (budget 4 stops at pc 4, a JMPF fall-through) or the middle
        # of one (budget 3).  Every step must leave the machine exactly
        # where the reference loop does.
        src = ("if 3 > 2 then (if 5 > 4 then print![1 + 2, 3 * 4] "
               "else print![0]) else print![9]")
        for budget in range(1, 12):
            ref = TycoVM(compile_source(src), engine="slow")
            vm = TycoVM(compile_source(src))
            ref.boot()
            vm.boot()
            dec = None
            while not ref.is_idle():
                assert vm.step(budget) == ref.step(budget)
                assert snapshot(vm) == snapshot(ref)
                assert (vm.current is None) == (ref.current is None)
                if ref.current is not None:
                    assert vm.current.pc == ref.current.pc
                    # repr: channels are per-VM objects.
                    assert repr(vm.current.stack) == repr(ref.current.stack)
                    assert repr(vm.current.frame) == repr(ref.current.frame)
                # One entry per step: closures ran the first, generated
                # code every later one.
                assert (dec is None) == (
                    vm.program.decoded_cache[vm.program.main].compiled is None)
                dec = vm.program.decoded_cache[vm.program.main]
            assert vm.is_idle() and vm.output == ref.output == [3, 12]
            assert dec.compiled is not None

    def test_restart_rebuild_gets_fresh_cache(self, monkeypatch):
        # A node restart re-materialises the site from its checkpoint:
        # new Program, empty decoded cache -- the CodeCache
        # generation-bump path can never see a stale compiled function
        # because nothing survives but content-addressed bytes.
        from repro.mobility.checkpoint import (read_checkpoint,
                                               restore_site,
                                               write_checkpoint)
        from repro.runtime import DiTyCONetwork

        monkeypatch.setenv("REPRO_VM_ENGINE", "compiled")
        net = DiTyCONetwork()
        net.add_nodes(["n1"])
        net.launch("n1", "worker", COUNTER)
        net.run()
        site = net.site("worker")
        assert site.output == [0]
        donor_cache = site.vm.program.decoded_cache
        assert any(d.compiled for d in donor_cache.values())
        code, state = read_checkpoint(write_checkpoint(site))
        rebuilt = restore_site(net.node("n1"), code, state)
        assert rebuilt.vm.program.decoded_cache is not donor_cache
        assert rebuilt.vm.program.decoded_cache == {}
        assert rebuilt.vm.engine == "compiled"


# -- every reduction, inline -------------------------------------------------
#
# Generated code spawns in place for TRMSG and INSTOF of any arity, for
# TROBJ and for FORK, and hands everything unusual to the generic
# helpers.  The matrix below runs each cell on the every-block-generated
# arm and on ``slow`` and compares everything a VM shows.

#: Hand-built programs for what the compiler never emits: a FORK, an
#: object or a class whose block disagrees with the width of the
#: environment it is given, and an instance of a non-class.
_ASM_MAIN = "; externals: print\n; main: block 0\n"
ASM_CELLS = {
    "FORK env mismatch": """
block 0 (main) [free=1 params=0 frame=1]
     0  pushl 0
     1  fork 1, 1
     2  halt
block 1 (fork) [free=2 params=0 frame=2]
     0  halt
""",
    "FORK params mismatch": """
block 0 (main) [free=1 params=0 frame=1]
     0  pushl 0
     1  fork 1, 1
     2  halt
block 1 (fork) [free=1 params=1 frame=2]
     0  halt
""",
    "TRMSG env mismatch": """
block 0 (main) [free=1 params=0 frame=2]
     0  newch 1
     1  pushl 1
     2  pushl 0
     3  trobj 0, 1
     4  pushl 1
     5  pushc 1
     6  pushc 2
     7  trmsg 'go', 2
     8  halt
block 1 (method go) [free=2 params=2 frame=4]
     0  halt
object 0 (object@x): go->b1
""",
    "TROBJ env mismatch": """
block 0 (main) [free=1 params=0 frame=2]
     0  newch 1
     1  pushl 1
     2  pushc 1
     3  pushc 2
     4  trmsg 'go', 2
     5  pushl 1
     6  pushl 0
     7  trobj 0, 1
     8  halt
block 1 (method go) [free=2 params=2 frame=4]
     0  halt
object 0 (object@x): go->b1
""",
    "INSTOF env mismatch": """
block 0 (main) [free=1 params=0 frame=2]
     0  pushl 0
     1  defgroup 0, 1, 1
     2  pushl 1
     3  pushc 1
     4  pushc 2
     5  instof 2
     6  halt
block 1 (class F) [free=3 params=2 frame=5]
     0  halt
group 0 (F) [free=1]: F->b1
""",
    "INSTOF non-class": """
block 0 (main) [free=1 params=0 frame=1]
     0  pushc 5
     1  pushc 1
     2  pushc 2
     3  instof 2
     4  halt
""",
}

SOURCE_CELLS = {
    # Both orders of object and message: each arity is matched and
    # queued once on the TRMSG side and once on the TROBJ side.
    **{f"TRMSG/TROBJ {n} args": (
        f"new x ((x?{{ go({params}) = print![0{rest}] }}) "
        f"| x!go[{args}] | x!go[{args}] "
        f"| (x?{{ go({params}) = print![1{rest}] }}))")
       for n, params, rest, args in (
           (0, "", "", ""), (2, "a, b", ", b, a", "1, 2"),
           (3, "a, b, c", ", c, b, a", "1, 2, 3"))},
    "TRMSG method-arity mismatch":
        "new x ((x?{ go(a, b) = 0 }) | x!go[1, 2, 3])",
    "TROBJ method-arity mismatch":
        "new x (x!go[1, 2, 3] | (x?{ go(a, b) = 0 }))",
    **{f"TRMSG {n} args builtin": f"print!go[{args}]"
       for n, args in ((0, ""), (2, "1, 2"), (3, "1, 2, 3"))},
    **{f"TRMSG {n} args non-channel": f"def F(x) = x!go[{args}] in F[5]"
       for n, args in ((0, ""), (2, "1, 2"), (3, "1, 2, 3"))},
    "TROBJ builtin": "print?{ go(a) = 0 }",
    "TROBJ non-channel": "def F(x) = x?{ go(a, b) = 0 } in F[5]",
    "INSTOF 0 args": "def F() = print![0] in (F[] | F[])",
    "INSTOF 2 args": "def F(a, b) = print![a, b] in (F[1, 2] | F[3, 4])",
    "INSTOF 3 args":
        "def F(a, b, c) = if a > 0 then F[a - 1, b, c] else print![b, c] "
        "in F[3, 4, 5]",
    "INSTOF method-arity mismatch": "def F(a, b) = 0 in F[1, 2, 3]",
    "FORK": "def T(d) = if d > 0 then (T[d - 1] | T[d - 1] | print![d]) "
            "else 0 in T[3]",
}


class TestReductionParity:
    @pytest.mark.parametrize("cell", sorted(SOURCE_CELLS) + sorted(ASM_CELLS))
    def test_cell_matches_the_reference(self, cell, monkeypatch):
        def program():
            if cell in SOURCE_CELLS:
                return compile_source(SOURCE_CELLS[cell])
            return parse_assembly(_ASM_MAIN + ASM_CELLS[cell])

        ref = run_observed(program(), "slow")
        monkeypatch.setattr(machine, "TIER_UP_ENTRIES", ARMS["generated"])
        assert run_observed(program(), "compiled") == ref
        assert (ref[1] is not None) == (
            "mismatch" in cell or "non-" in cell or cell == "TROBJ builtin")

    def test_remote_targets_ship_through_the_helpers(self, monkeypatch):
        # NetRef targets of TRMSG / TROBJ and RemoteClassRef targets of
        # INSTOF, 0 / 2 / 3 arguments, between two sites of one node.
        server = """
        export def A0() = print![0]
               and A2(a, b) = print![a, b]
               and A3(a, b, c) = print![a, b, c]
        in export new svc
        def S(s) = s?{ go() = print!["go"] | S[s],
                       two(a, b) = print![a, b] | S[s],
                       three(a, b, c) = print![a, b, c] | S[s] }
        in S[svc]
        """
        client = """
        import svc from server in import A0 from server in
        import A2 from server in import A3 from server in
        ( svc!go[] | svc!two[1, 2] | svc!three[1, 2, 3]
        | (svc?{ back(a, b) = print![a, b] }) | svc!back[7, 8]
        | A0[] | A2[1, 2] | A3[1, 2, 3] )
        """

        def record(engine):
            monkeypatch.setenv("REPRO_VM_ENGINE", engine)
            net = DiTyCONetwork()
            net.add_nodes(["n1"])
            net.launch("n1", "server", server)
            net.launch("n1", "client", client)
            net.run()
            return (net.outputs(), net.world.time, net.world.stats.packets,
                    {name: observe(net.site(name).vm)
                     for name in ("server", "client")})

        ref = record("slow")
        stats = ref[3]["client"][1]
        assert (stats["remote_messages"], stats["remote_objects"],
                stats["remote_instances"]) == (7, 1, 3)
        monkeypatch.setattr(machine, "TIER_UP_ENTRIES", ARMS["generated"])
        assert record("compiled") == ref


def _vmloop_kernels():
    """The four ``vmloop`` kernels of the end-to-end benchmark."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "_workloads.py"
    spec = importlib.util.spec_from_file_location("_vmloop_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {"counter_loop": (module.counter_loop, 40),
            "cell_churn": (module.cell_churn, 40),
            "ping_pong": (module.ping_pong, 40),
            # A depth: n and 2n leaves are depths d and d + 1.
            "spawn_tree": (module.spawn_tree, 5)}


@pytest.mark.parametrize("kernel", ["counter_loop", "cell_churn",
                                    "ping_pong", "spawn_tree"])
def test_matched_reductions_call_no_vm_method(kernel, monkeypatch):
    # On the production engine a matched COMM / INST / FORK in
    # generated code spawns in place: only a block's first entry, on
    # the closures, and what is unusual (the final print) reach the
    # generic helpers -- so their call counts do not grow with n.
    generator, n = _vmloop_kernels()[kernel]
    calls = {}
    for name in ("spawn", "_fire", "_trobj", "_instof", "_trmsg"):
        real = getattr(TycoVM, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(TycoVM, name, counted)
    # Generated code binds the helpers when it is built.
    monkeypatch.setattr(tier3, "_MEMO", {})
    seen = []
    for size in (n, 2 * n if kernel != "spawn_tree" else n + 1):
        calls.clear()
        vm = TycoVM(compile_source(generator(size)), name=kernel)
        vm.boot()
        vm.run(10 ** 7)
        assert vm.is_idle() and vm.stats.reductions + vm.stats.forks > n
        seen.append(dict(calls))
    assert seen[0] == seen[1]
