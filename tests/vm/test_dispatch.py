"""Unit tests for the production engine (repro.vm.dispatch closures,
repro.vm.compile generated code, and the tier rule between them).

The engine's contract (docs/PERF.md): same outputs, same VMStats --
``instructions`` *exactly*, so simulated schedules are untouched --
same error messages as the ``slow`` reference, for every budget split
and whichever tier a block runs on.  These tests pin that contract at
the unit level; the whole-network leg lives in
tests/integration/test_engine_differential.py.
"""

import pytest

from repro.compiler import compile_source, optimize_program, peephole
from repro.compiler.assembly import CodeBlock, Instr, Op
from repro.compiler.linker import extract_bundle, link_bundle
from repro.vm import TycoVM, VMRuntimeError, dispatch, machine

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


def run(source, engine="compiled", budget=100_000, optimize=False):
    prog = compile_source(source)
    if optimize:
        optimize_program(prog)
    vm = TycoVM(prog, name="t", engine=engine)
    vm.boot()
    while not vm.is_idle():
        if vm.step(budget) == 0:
            break
    return vm


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
    assert not hasattr(peephole, "plan_superinstructions")
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

    def test_parity_on_optimized_code(self, monkeypatch):
        # Peephole-rewritten blocks (CLI --optimize) go through the
        # same predecoder; stats differ from unoptimized runs but must
        # agree between engines.
        ref = snapshot(run(CELL, "slow", optimize=True))
        for arm in each_arm(monkeypatch):
            assert snapshot(run(CELL, optimize=True)) == ref, arm

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

    def test_optimize_program_clears_the_cache(self):
        prog = compile_source(CELL)
        run_program(prog)
        assert prog.decoded_cache
        optimize_program(prog)
        assert prog.decoded_cache == {}
        assert run_program(prog).output == ["done"]

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
    ``optimize_program`` clears the cache, ``link_bundle`` appends
    without disturbing live entries, and a restart rebuilds the
    program (fresh cache) -- the generation-bump path."""

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

    def test_optimize_program_drops_compiled_fns(self):
        prog = compile_source(CELL)
        run_program(prog)
        assert any(d.compiled for d in prog.decoded_cache.values())
        optimize_program(prog)
        assert prog.decoded_cache == {}
        # The counts went with the entries: main is on its first entry
        # again, not its second.
        assert run_program(prog).output == ["done"]
        dec = prog.decoded_cache[prog.main]
        assert dec.entries == 1 and dec.compiled is None

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
        # exec-compile every content first seen later on each relaunch.
        from repro.vm import compile as tier3

        monkeypatch.setattr(tier3, "_MEMO", {})
        monkeypatch.setattr(tier3, "_MEMO_CAP", 4)

        def compiled(literal):
            prog = compile_source(f"print![{literal}]")
            return tier3.compile_block(prog, prog.main, prog.blocks[prog.main])

        first = [compiled(n) for n in range(4)]
        assert len(tier3._MEMO) == 4
        assert [compiled(n) for n in range(4)] == first     # all remembered
        fifth = compiled(4)
        assert compiled(4) is fifth and fifth not in first
        assert 1 <= len(tier3._MEMO) <= 4
        assert compiled(0) is not first[0]      # evicted: compiled anew,
        assert compiled(0) is compiled(0)       # and remembered again

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

    def test_restart_rebuild_gets_fresh_cache(self):
        # A node restart re-materialises the site from its checkpoint:
        # new Program, empty decoded cache -- the CodeCache
        # generation-bump path can never see a stale compiled function
        # because nothing survives but content-addressed bytes.
        from repro.mobility.checkpoint import (read_checkpoint,
                                               restore_site,
                                               write_checkpoint)
        from repro.runtime import DiTyCONetwork

        net = DiTyCONetwork(engine="compiled")
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
