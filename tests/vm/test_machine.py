"""Unit tests for the TyCO virtual machine: compile-and-run programs."""

import pytest

from repro.compiler import compile_source
from repro.vm import Channel, TycoVM, VMRuntimeError


def run_vm(source, max_instructions=200_000):
    vm = TycoVM(compile_source(source), name="test")
    vm.boot()
    vm.run(max_instructions)
    return vm


class TestBasics:
    def test_nil(self):
        vm = run_vm("0")
        assert vm.is_idle()
        assert vm.stats.reductions == 0

    def test_print(self):
        vm = run_vm("print![42]")
        assert vm.output == [42]

    def test_print_expression(self):
        vm = run_vm("print![2 + 3 * 4]")
        assert vm.output == [14]

    def test_print_string(self):
        vm = run_vm('print!["hello"]')
        assert vm.output == ["hello"]

    def test_print_bool(self):
        vm = run_vm("print![true, false]")
        assert vm.output == [True, False]

    def test_communication(self):
        vm = run_vm("new x (x![9] | x?(w) = print![w])")
        assert vm.output == [9]
        assert vm.stats.comm_reductions == 1

    def test_message_queues_without_object(self):
        vm = run_vm("new x x![9]")
        assert vm.is_idle()
        assert vm.stats.messages_queued == 1
        assert vm.heap.live_queues() == 1

    def test_object_queues_without_message(self):
        vm = run_vm("new x x?(w) = 0")
        assert vm.stats.objects_queued == 1

    def test_label_selection(self):
        vm = run_vm("""
        new x ( x?{ inc(n) = print![n + 1], dec(n) = print![n - 1] }
              | x!dec[10] )
        """)
        assert vm.output == [9]

    def test_queue_scan_skips_nonmatching(self):
        vm = run_vm("""
        new x ( x!other[1]
              | x![2]
              | x?(w) = print![w] )
        """)
        assert vm.output == [2]

    def test_objects_consumed_once(self):
        vm = run_vm("""
        new x ( (x?(w) = print![w]) | x![1] | x![2] )
        """)
        assert len(vm.output) == 1
        assert vm.stats.messages_queued == 1


class TestConditionals:
    def test_then_branch(self):
        vm = run_vm("if 1 < 2 then print![1] else print![2]")
        assert vm.output == [1]

    def test_else_branch(self):
        vm = run_vm("if 2 < 1 then print![1] else print![2]")
        assert vm.output == [2]

    def test_boolean_ops(self):
        vm = run_vm("if true and not false then print![1] else print![2]")
        assert vm.output == [1]

    def test_nested(self):
        vm = run_vm(
            "if 1 < 2 then if 3 < 2 then print![1] else print![2] else print![3]")
        assert vm.output == [2]

    def test_condition_must_be_bool(self):
        prog = compile_source("new x (x![1] | x?(w) = if w then 0 else 0)")
        vm = TycoVM(prog)
        vm.boot()
        with pytest.raises(VMRuntimeError):
            vm.run()


class TestClasses:
    def test_instantiation(self):
        vm = run_vm("def Show(v) = print![v] in Show[7]")
        assert vm.output == [7]
        assert vm.stats.inst_reductions == 1

    def test_recursive_countdown(self):
        vm = run_vm(
            "def Count(n) = if n > 0 then Count[n - 1] else print![0] "
            "in Count[10]")
        assert vm.output == [0]
        assert vm.stats.inst_reductions == 11

    def test_mutual_recursion(self):
        vm = run_vm("""
        def Even(n) = if n == 0 then print![true] else Odd[n - 1]
        and Odd(n)  = if n == 0 then print![false] else Even[n - 1]
        in Even[7]
        """)
        assert vm.output == [False]

    def test_class_captures_environment(self):
        vm = run_vm("""
        new out (
          def Relay(v) = out![v] in (Relay[5] | out?(w) = print![w])
        )
        """)
        assert vm.output == [5]

    def test_cell_program(self):
        vm = run_vm("""
        def Cell(self, v) =
          self ? { read(r)  = r![v] | Cell[self, v],
                   write(u) = Cell[self, u] }
        in new x (
          Cell[x, 9]
        | new z (x!read[z] | z?(w) = print![w])
        )
        """)
        assert vm.output == [9]

    def test_cell_write_then_read(self):
        vm = run_vm("""
        def Cell(self, v) =
          self ? { read(r)  = r![v] | Cell[self, v],
                   write(u) = Cell[self, u] }
        in new x (
          Cell[x, 9]
        | x!write[42]
        | new z (x!read[z] | z?(w) = print![w])
        )
        """)
        assert vm.output == [42]

    def test_polymorphic_cells(self):
        vm = run_vm("""
        def Cell(self, v) =
          self ? { read(r)  = r![v] | Cell[self, v],
                   write(u) = Cell[self, u] }
        in (new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print![w])))
         | (new y (Cell[y, true] | new z (y!read[z] | z?(w) = print![w])))
        """)
        assert sorted(map(str, vm.output)) == sorted(["9", "True"])


class TestLetSugar:
    def test_let_round_trip(self):
        vm = run_vm("""
        new svc (
          svc?{ double(n, r) = r![n * 2] }
        | let d = svc!double[21] in print![d]
        )
        """)
        assert vm.output == [42]


class TestStats:
    def test_forks_counted(self):
        vm = run_vm("x![] | y![] | z![]")
        assert vm.stats.forks == 2

    def test_context_switches(self):
        vm = run_vm("new x (x![1] | x?(w) = print![w])")
        assert vm.runqueue.context_switches >= 2

    def test_instructions_counted(self):
        vm = run_vm("print![1]")
        assert vm.stats.instructions >= 3


class TestStepBudget:
    def test_step_bounded(self):
        prog = compile_source("def Loop(n) = Loop[n + 1] in Loop[0]")
        vm = TycoVM(prog)
        vm.boot()
        executed = vm.step(100)
        assert executed == 100
        assert not vm.is_idle()

    def test_resume_after_budget(self):
        prog = compile_source("def Loop(n) = Loop[n + 1] in Loop[0]")
        vm = TycoVM(prog)
        vm.boot()
        vm.step(50)
        before = vm.stats.inst_reductions
        vm.step(50)
        assert vm.stats.inst_reductions > before


class TestRuntimeErrors:
    def test_message_to_literal(self):
        prog = compile_source("new x (x![1] | x?(w) = w![2])")
        vm = TycoVM(prog)
        vm.boot()
        with pytest.raises(VMRuntimeError):
            vm.run()

    def test_arith_on_channel(self):
        prog = compile_source("new x print![x + 1]")
        vm = TycoVM(prog)
        vm.boot()
        with pytest.raises(VMRuntimeError):
            vm.run()

    def test_division_by_zero(self):
        prog = compile_source("new x (x![0] | x?(n) = print![1 / n])")
        vm = TycoVM(prog)
        vm.boot()
        with pytest.raises(VMRuntimeError):
            vm.run()

    def test_arity_mismatch_detected_dynamically(self):
        vm_src = "new x (x![1, 2] | x?(w) = print![w])"
        prog = compile_source(vm_src)
        vm = TycoVM(prog)
        vm.boot()
        with pytest.raises(VMRuntimeError):
            vm.run()

    def test_distribution_without_port(self):
        from repro.vm import NoPortError

        prog = compile_source("import svc from server in svc![1]")
        vm = TycoVM(prog)
        vm.boot()
        with pytest.raises(NoPortError):
            vm.run()


class TestEquality:
    def test_channel_equality(self):
        vm = run_vm("""
        new x new y (
          if 1 == 1 then print![true] else print![false]
        )
        """)
        assert vm.output == [True]

    def test_int_bool_not_equal(self):
        vm = run_vm("(if 1 == 1 then print![1] else 0) | (if 2 != 3 then print![2] else 0)")
        assert sorted(vm.output) == [1, 2]


class TestLiteralOperands:
    @pytest.mark.parametrize("src,expected", [
        ("print![2 + 3]", [5]),
        ("if 1 < 2 then print![1] else print![2]", [1]),
        ("if not true then print![1] else print![2]", [2]),
        ("print![-(3)]", [-3]),
        ('print!["a" + "b"]', ["ab"]),
    ])
    def test_operators_on_literals(self, src, expected):
        assert run_vm(src).output == expected


class TestExternalBinding:
    def test_prebound_external(self):
        prog = compile_source("out![99]")
        vm = TycoVM(prog)
        seen = []
        ch = vm.heap.new_channel(hint="out", builtin=lambda l, a: seen.extend(a))
        vm.bind_external("out", ch)
        vm.boot()
        vm.run()
        assert seen == [99]

    def test_unbound_external_gets_fresh_channel(self):
        prog = compile_source("amb![1]")
        vm = TycoVM(prog)
        vm.boot()
        vm.run()
        assert "amb" in vm.externals
        assert isinstance(vm.externals["amb"], Channel)
        assert vm.stats.messages_queued == 1


# -- who picks the engine ----------------------------------------------------

LOOP = ("def Count(n) = if n < 40 then Count[n + 1] else print![n] "
        "in Count[0]")


def traced_network_run(monkeypatch, engine=None, tracer=False):
    """LOOP on a one-node network with `world.obs.tracing` on; returns
    (site, events, entries into the reference loop)."""
    from repro.obs import TraceCollector
    from repro.runtime import DiTyCONetwork
    from repro.vm.trace import Tracer

    entered = []
    reference_loop = TycoVM._step_reference

    def counting(self, budget):
        entered.append(self.name)
        return reference_loop(self, budget)

    monkeypatch.setattr(TycoVM, "_step_reference", counting)
    if engine is not None:
        monkeypatch.setenv("REPRO_VM_ENGINE", engine)
    net = DiTyCONetwork()
    net.add_node("n0")
    net.world.obs.tracing = True
    sink = TraceCollector()
    net.world.obs.subscribe(sink)
    site = net.launch("n0", "s", LOOP)
    if tracer:
        Tracer().install(site.vm)
    net.run()
    assert site.output == [40]
    return site, sink.events, len(entered)


class TestWhoPicksTheEngine:
    """`engine` and an attached per-instruction `Tracer` choose the
    loop `step` runs; the observability bus does not."""

    def test_a_watched_run_is_on_the_production_engine(self, monkeypatch):
        site, events, entered = traced_network_run(monkeypatch)
        assert entered == 0
        program = site.vm.program
        count = next(i for i, block in enumerate(program.blocks)
                     if "Count" in block.name)
        assert program.blocks[count].compiled is not None
        # What the per-reduction events counted rides on the per-step
        # VM-state event, cumulatively.
        notes = [e.note for e in events if e.kind == "heap"]
        stats = site.vm.stats
        assert stats.inst_reductions == 41
        assert notes[-1].endswith(f"comm={stats.comm_reductions} "
                                  f"inst={stats.inst_reductions}")
        assert {e.kind for e in events} == {"heap"}

    def test_a_profiled_run_is_on_the_production_engine(self, monkeypatch):
        from repro.obs import VMProfiler

        entered = []
        production = TycoVM._step_compiled

        def counting(self, budget):
            entered.append(self.name)
            return production(self, budget)

        monkeypatch.setattr(TycoVM, "_step_compiled", counting)
        vms = {}
        for name in ("plain", "profiled"):
            vm = vms[name] = TycoVM(compile_source(LOOP), name=name,
                                    engine="compiled")
            if name == "profiled":
                VMProfiler(stride=7).install(vm)
            vm.boot()
            vm.run()
            assert vm.output == [40]
        assert entered.count("plain") > 0
        assert entered.count("profiled") > 0
        for vm in vms.values():
            program = vm.program
            count = next(i for i, block in enumerate(program.blocks)
                         if "Count" in block.name)
            assert program.blocks[count].compiled is not None
        assert vms["profiled"].profiler.samples > 0
        assert vms["profiled"].stats == vms["plain"].stats

    @pytest.mark.parametrize("how", [{"engine": "slow"}, {"tracer": True}])
    def test_the_reference_loop_is_asked_for_by_name(self, monkeypatch, how):
        watched = traced_network_run(monkeypatch)
        site, events, entered = traced_network_run(monkeypatch, **how)
        assert entered > 0
        assert not any(block.compiled
                       for block in site.vm.program.blocks)
        # Same events either way: the state is read off the VM.
        key = lambda e: (e.kind, e.src, e.size, e.note, e.node, e.time)
        assert [key(e) for e in events] == [key(e) for e in watched[1]]
        assert site.vm.stats == watched[0].vm.stats

    def test_the_vm_package_does_not_know_the_bus(self):
        import io
        import re
        import tokenize
        from pathlib import Path

        import repro.vm
        from repro.obs import CATEGORY_OF

        assert not {"comm", "inst"} & set(CATEGORY_OF)
        vm = TycoVM(compile_source("0"))
        assert not any(hasattr(vm, name)
                       for name in ("obs", "obs_site", "obs_node"))
        for path in sorted(Path(repro.vm.__file__).parent.glob("*.py")):
            text = path.read_text()
            assert not re.search(r"\.obs\b|obs_site|obs_node", text), path
            # "tracing" is said in docstrings only, never in code.
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                assert ("tracing" not in tok.string
                        or tok.type == tokenize.STRING), (path, tok.start)
