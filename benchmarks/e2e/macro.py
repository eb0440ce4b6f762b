"""The `pubsub` and `mapreduce` workloads: the benchmark's own driver.

Built from the public pieces `repro.workloads.run_workload` is built
from, so that set-up (fabric launched and settled, arrival schedule
planted on the virtual clock) and the traffic window (first arrival to
drain) are timed separately.  The driver must not change what the
simulator computes: `equivalence_errors` compares its makespan and
latency percentiles with `run_workload`'s, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import workloads
from repro.runtime.network import DiTyCONetwork
from repro.testkit.invariants import check_expected_outputs
from repro.workloads import APPS, WorkloadReport, WorkloadSpec

from common import SiteTotals, TapList

#: Drained client sites are destroyed every this many arrivals, as
#: `run_workload` does (its `reap_every` default).
REAP_EVERY = 32

#: Smoke size of the driver-equivalence self-check.
EQUIVALENCE_OPS = 200


@dataclass
class MacroRun:
    spec: WorkloadSpec
    net: DiTyCONetwork
    trace: list
    base: float
    latencies: dict[str, list[float]] = field(default_factory=dict)
    totals: SiteTotals = field(default_factory=SiteTotals)
    bytes_before: int = 0
    makespan_s: float = 0.0

    def report(self) -> WorkloadReport:
        """The run as `run_workload` would report it (percentiles by
        the same nearest-rank rule)."""
        return WorkloadReport(spec=self.spec, world="sim",
                              makespan_s=self.makespan_s,
                              latencies=self.latencies)


def _reap(net: DiTyCONetwork, totals: SiteTotals) -> None:
    for node in net.world.nodes.values():
        before = dict(node.sites)
        node.tycoi.reap()
        for sid, site in before.items():
            if sid not in node.sites:
                totals.add(site)


def prepare(seed: int, size: dict) -> MacroRun:
    """Set-up: build and settle the fabric, plant the schedule."""
    workload = size["app"]
    spec = WorkloadSpec(workload=workload, seed=seed, ops=size["ops"])
    app = APPS[workload]
    trace = workloads.generate_trace(spec)
    net = DiTyCONetwork()
    for i in range(spec.nodes):
        net.add_node(spec.node_ip(i))
    for phase in app.setup_phases(spec):
        for ip, name, src in phase:
            net.launch(ip, name, src)
        net.run()
    if not net.is_quiescent():
        raise RuntimeError(f"{workload} fabric did not settle")

    run = MacroRun(spec=spec, net=net, trace=trace, base=net.time)
    world = net.world
    op_of = {a.seq: a.op for a in trace}
    launch_at: dict[int, float] = {}

    def on_token(token) -> None:
        started = launch_at.pop(token, None)
        if started is not None:
            run.latencies.setdefault(op_of[token], []).append(
                world.time - started)

    collector = net.site("collector")
    collector.vm.output = TapList(collector.vm.output, on_token)

    def make_launch(arrival, reap: bool):
        def launch() -> None:
            if reap:
                _reap(net, run.totals)
            ip, name, src = app.op_entry(spec, arrival)
            launch_at[arrival.seq] = world.time
            net.launch(ip, name, src)
        return launch

    for arrival in trace:
        reap = arrival.seq % REAP_EVERY == REAP_EVERY - 1
        world.schedule_at(run.base + arrival.at_us * 1e-6,
                          make_launch(arrival, reap))
    run.bytes_before = world.stats.bytes
    return run


def execute(run: MacroRun) -> None:
    """The timed window: first arrival to drain."""
    run.net.run()
    run.makespan_s = run.net.time - run.base


def verify(run: MacroRun) -> dict:
    """Post phases (the reducer probe), output check, counters."""
    net, spec = run.net, run.spec
    wire_bytes = net.world.stats.bytes - run.bytes_before
    app = APPS[spec.workload]
    for phase in app.post_phases(spec, run.trace):
        for ip, name, src in phase:
            net.launch(ip, name, src)
        net.run()
    errors = check_expected_outputs(
        net, app.expected_outputs(spec, run.trace))
    run.totals.add_live(net)
    report = run.report()
    completed = report.ops_completed
    return {
        "work": spec.ops,
        "engine": net.site("collector").vm.engine,
        "attempted": spec.ops,
        "completed": completed,
        "failed": min(spec.ops, max(spec.ops - completed, len(errors))),
        "errors": errors,
        "totals": run.totals,
        "extras": {
            "wire_bytes_per_op": wire_bytes / spec.ops,
            "sim_p50_us": report.percentile(50) * 1e6,
            "sim_p99_us": report.percentile(99) * 1e6,
        },
        "net": net,
    }


def equivalence_errors(workload: str, seed: int) -> list[str]:
    """Run the workload through `run_workload` and through this driver
    at the smoke size; every simulated number must be identical."""
    spec = WorkloadSpec(workload=workload, seed=seed, ops=EQUIVALENCE_OPS)
    want = workloads.run_workload(spec).summary()
    run = prepare(seed, {"app": workload, "ops": EQUIVALENCE_OPS})
    execute(run)
    got = run.report().summary()
    return [f"{workload}: e2e driver {key} = {got[key]!r}, "
            f"run_workload {key} = {want[key]!r}"
            for key in ("makespan_us", "p50_us", "p99_us", "completed")
            if got[key] != want[key]]
