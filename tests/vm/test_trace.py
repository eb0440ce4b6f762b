"""Tests for the VM tracer and the site debug report."""

import pytest

from repro.compiler import compile_source
from repro.runtime import DiTyCONetwork
from repro.vm import TycoVM
from repro.vm.trace import Tracer


def traced_vm(source):
    vm = TycoVM(compile_source(source))
    tracer = Tracer()
    tracer.install(vm)
    vm.boot()
    vm.run()
    return vm, tracer


class TestTracer:
    def test_records_every_instruction(self):
        vm, tracer = traced_vm("print![1]")
        assert len(tracer) == vm.stats.instructions
        assert any("print" in e.instr or "pushc" in e.instr
                   for e in tracer.events)

    def test_ring_buffer_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.vm.trace.CAPACITY", 64)
        vm, tracer = traced_vm(
            "def C(n) = if n > 0 then C[n - 1] else 0 in C[500]")
        assert len(tracer.events) == 64
        assert len(tracer) == vm.stats.instructions

    def test_tail_and_format(self):
        _, tracer = traced_vm("new x (x![1] | x?(w) = print![w])")
        tail = tracer.tail(5)
        assert len(tail) == 5
        text = tracer.format_tail(5)
        assert text.count("\n") == 4
        assert "b" in text  # block references

    def test_events_carry_block_names(self):
        _, tracer = traced_vm("new x (x![1] | x?(w) = print![w])")
        names = {e.block_name for e in tracer.events}
        assert "main" in names
        assert any("method" in n or "fork" in n for n in names)

    def test_double_install_rejected(self):
        vm = TycoVM(compile_source("0"))
        Tracer().install(vm)
        with pytest.raises(RuntimeError):
            Tracer().install(vm)

    def test_untraced_vm_same_results(self):
        src = "new x (x![7] | x?(w) = print![w * 3])"
        plain = TycoVM(compile_source(src))
        plain.boot()
        plain.run()
        traced, _ = traced_vm(src)
        assert plain.output == traced.output
        assert plain.stats.instructions == traced.stats.instructions


class TestDebugReport:
    def test_idle_site(self):
        net = DiTyCONetwork()
        net.add_node("n1")
        site = net.launch("n1", "s", "print![1]")
        net.run()
        report = site.debug_report()
        assert "idle, no queued work" in report

    def test_waiting_message_reported(self):
        net = DiTyCONetwork()
        net.add_node("n1")
        site = net.launch("n1", "s", "new x x!hello[1]")
        net.run()
        report = site.debug_report()
        assert "queued message(s)" in report
        assert "hello" in report

    def test_waiting_object_reported(self):
        net = DiTyCONetwork()
        net.add_node("n1")
        site = net.launch("n1", "s", "new x x?{ go(a) = 0, stop() = 0 }")
        net.run()
        report = site.debug_report()
        assert "waiting object(s)" in report
        assert "go" in report and "stop" in report

    def test_stalled_import_reported(self):
        net = DiTyCONetwork()
        net.add_node("n1")
        site = net.launch("n1", "s", "import ghost from nowhere in ghost![1]")
        net.run()
        assert "stalled on" in site.debug_report()

    def test_shell_debug_command(self):
        from repro.runtime import TycoShell

        net = DiTyCONetwork()
        net.add_node("n1")
        net.launch("n1", "s", "new x x![1]")
        net.run()
        shell = TycoShell(net)
        shell.execute("debug s")
        assert any("queued message" in l for l in shell.lines)


class TestCliTrace:
    def test_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        p = tmp_path / "p.dityco"
        p.write_text("print![5]")
        assert main(["run", "--trace", "10", str(p)]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "5"
        assert "pushc" in captured.err or "print" in captured.err
