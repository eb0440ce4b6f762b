"""E1 -- base-VM reduction throughput (paper section 5: the TyCO VM
"has proved to be quite compact and efficient").

Measures reductions/second and instructions/reduction of the byte-code
emulator on four kernels (cell churn, ping-pong, recursion, fork
tree), and compares the VM against the term-rewriting calculus engine
on the same program -- the compiled VM should win by a wide margin,
which is why the paper implements a VM at all.
"""

import pytest

from _workloads import cell_churn, counter_loop, ping_pong, spawn_tree

from repro.compiler import compile_source
from repro.core import LocalEngine
from repro.lang.parser import Parser
from repro.vm import TycoVM


def run_vm(source: str) -> TycoVM:
    vm = TycoVM(compile_source(source))
    vm.boot()
    vm.run(50_000_000)
    assert vm.is_idle()
    return vm


KERNELS = {
    "cell-churn": cell_churn(200),
    "ping-pong": ping_pong(200),
    "counter": counter_loop(1000),
    "spawn-tree": spawn_tree(8),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_vm_throughput(benchmark, name):
    source = KERNELS[name]
    program = compile_source(source)

    def kernel():
        vm = TycoVM(program)
        vm.boot()
        vm.run(50_000_000)
        return vm

    vm = benchmark(kernel)
    assert vm.is_idle()
    benchmark.extra_info["reductions"] = vm.stats.reductions
    benchmark.extra_info["instructions"] = vm.stats.instructions
    benchmark.extra_info["instr_per_reduction"] = round(
        vm.stats.instructions / max(1, vm.stats.reductions), 2)


def test_threads_are_fine_grained():
    """Section 5: "typically a few tens of byte-code instructions per
    thread" -- the average thread length across kernels must be small."""
    for name, source in KERNELS.items():
        vm = run_vm(source)
        per_thread = vm.stats.instructions / max(1, vm.stats.threads_spawned)
        assert per_thread < 60, (name, per_thread)


@pytest.mark.parametrize("name", ["counter", "ping-pong"])
def test_calculus_engine_same_result_slower_machinery(benchmark, name):
    """The calculus engine computes the same reductions; benchmark it
    for the VM-vs-interpreter comparison row."""
    source = KERNELS[name]

    def kernel():
        parser = Parser(source)
        parsed = parser.parse_program()
        engine = LocalEngine()
        for free in parsed.free_names.values():
            engine.register_builtin(
                free, lambda label, args: engine.output.extend(args))
        engine.add(parsed.program)
        engine.run(2_000_000)
        return engine

    engine = benchmark(kernel)
    assert engine.is_quiescent()
    benchmark.extra_info["reductions"] = engine.reductions


def report() -> list[dict]:
    """Rows for EXPERIMENTS.md: per-kernel reduction statistics."""
    rows = []
    for name, source in KERNELS.items():
        vm = run_vm(source)
        rows.append({
            "kernel": name,
            "reductions": vm.stats.reductions,
            "instructions": vm.stats.instructions,
            "instr/reduction": round(
                vm.stats.instructions / max(1, vm.stats.reductions), 2),
            "instr/thread": round(
                vm.stats.instructions / max(1, vm.stats.threads_spawned), 2),
        })
    return rows


if __name__ == "__main__":
    for row in report():
        print(row)
