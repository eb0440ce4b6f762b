"""The `vmloop` workload: four hot kernels on one `TycoVM`, no network.

The kernels are the E1 programs of `benchmarks/_workloads.py`, each
taken from source text to an idle VM by the steps `TyCOi.submit`
takes (parse, compile, boot, run).  Every block runs 10^5-10^6 times,
so VM execution is nearly all of the wall time and the launch path,
name service, wire and transport do nothing.

Both the output and `VMStats.instructions` of a kernel are functions
of its size alone.  `PINNED` holds them: instructions = a * units + b,
where units is the loop count (the leaf count for `spawn_tree`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from _workloads import cell_churn, counter_loop, ping_pong, spawn_tree

from repro.compiler import compile_term
from repro.lang import parse_program
from repro.vm import TycoVM

from common import SiteTotals

#: kernel -> (source generator, dominant reduction, expected output,
#: instructions per unit, fixed instructions)
PINNED = {
    "counter_loop": (counter_loop, "INST", [0], 11, 14),
    "cell_churn": (cell_churn, "object COMM", ["done"], 63, 31),
    "ping_pong": (ping_pong, "message COMM", ["done"], 36, 28),
    "spawn_tree": (spawn_tree, "FORK", [], 25, -15),
}

INSTRUCTION_LIMIT = 10 ** 10


@dataclass
class VmRun:
    sizes: dict[str, int]
    sources: dict[str, str]
    vms: dict[str, TycoVM] = field(default_factory=dict)


def _argument(kernel: str, units: int) -> int:
    """`spawn_tree` takes a depth; its units are leaves."""
    return units.bit_length() - 1 if kernel == "spawn_tree" else units


def prepare(seed: int, sizes: dict[str, int]) -> VmRun:
    """Nothing here is drawn from the seed: the kernels are fixed."""
    sources = {kernel: PINNED[kernel][0](_argument(kernel, units))
               for kernel, units in sizes.items()}
    return VmRun(sizes=sizes, sources=sources)


def execute(run: VmRun) -> None:
    """The timed window: four launches, each run until the VM idles."""
    for kernel, source in run.sources.items():
        program = compile_term(parse_program(source).program,
                               source_name=kernel)
        vm = TycoVM(program, name=kernel)
        vm.boot()
        vm.run(INSTRUCTION_LIMIT)
        run.vms[kernel] = vm


def verify(run: VmRun) -> dict:
    errors = []
    instructions = context_switches = 0
    for kernel, vm in run.vms.items():
        _gen, _kind, output, per_unit, fixed = PINNED[kernel]
        units = run.sizes[kernel]
        if kernel == "spawn_tree":
            units = 1 << _argument(kernel, units)
        want = per_unit * units + fixed
        if not vm.is_idle():
            errors.append(f"{kernel}: VM not idle at the instruction limit")
        elif vm.output != output:
            errors.append(f"{kernel}: printed {vm.output!r}, "
                          f"expected {output!r}")
        elif vm.stats.instructions != want:
            errors.append(f"{kernel}: {vm.stats.instructions} instructions, "
                          f"pinned {per_unit} * {units} + {fixed} = {want}")
        instructions += vm.stats.instructions
        context_switches += vm.runqueue.context_switches
    return {
        "work": instructions,
        "engine": next(iter(run.vms.values())).engine,
        "attempted": len(run.sources),
        "completed": len(run.sources) - len(errors),
        "failed": min(len(run.sources), len(errors)),
        "errors": errors,
        "totals": SiteTotals(instructions=instructions,
                             context_switches=context_switches),
        "extras": {},
        "net": None,
    }
