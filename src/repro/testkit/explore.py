"""The schedule explorer: one scenario, many seeds, checked invariants.

A *scenario* is any callable that populates a fresh
:class:`~repro.runtime.network.DiTyCONetwork` (add nodes, launch
programs).  :func:`run_scenario` executes it once inside a
:class:`~repro.testkit.chaos.ChaosWorld` and returns a
:class:`ChaosRun` record; :func:`explore` fans one scenario out over
many seeds, compares every run against a fault-free baseline, and
aggregates invariant violations into an :class:`ExplorationReport`.

Two kinds of findings come out:

* **violations** -- a safety invariant broke (always a bug);
* **divergences** -- a faulty schedule changed the observable answer
  (expected under loss, but each one is a reproducible schedule worth
  pinning in the regression corpus).

Every finding carries the one-line ``repro`` command that replays it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.obs import FlightRecorder, TraceCollector, chrome_trace_json
from repro.runtime.network import DiTyCONetwork
from repro.runtime.termination import run_with_termination_detection
from repro.vm.values import value_repr

from .chaos import ChaosConfig, ChaosWorld
from . import invariants as inv

Scenario = Callable[[DiTyCONetwork], None]

#: Default virtual-time bound: generous for millisecond-scale test
#: programs, small enough that a fault-induced stall ends quickly.
DEFAULT_MAX_TIME = 5.0


@dataclass(slots=True)
class ChaosRun:
    """Everything observable about one seeded run."""

    seed: int
    config: ChaosConfig
    outputs: dict[str, tuple]          # site name -> printed values
    quiescent: bool
    elapsed: float
    packets: int
    deliveries: int
    chaos_dropped: int
    chaos_duplicated: int
    chaos_delayed: int
    crash_dropped: int
    fault_log: str
    stalled_sites: tuple[str, ...]
    violations: list[str] = field(default_factory=list)
    distgc: bool = False
    #: Flight-recorder dump (repro.obs): filled automatically when an
    #: invariant broke or a node crashed during the run, "" otherwise.
    flight_dump: str = ""
    #: Chrome-trace-event JSON of the whole run; "" unless the run was
    #: made with ``tracing=True``.
    trace_json: str = ""

    def canonical_outputs(self) -> dict[str, tuple]:
        """Per-site output *multisets* (order-insensitive): the
        observable answer used for confluence comparison."""
        return {site: tuple(sorted(map(value_repr, values)))
                for site, values in sorted(self.outputs.items())}

    def fault_count(self) -> int:
        return (self.chaos_dropped + self.chaos_duplicated
                + self.chaos_delayed + self.crash_dropped)

    def repro(self, program: str = "<scenario>") -> str:
        """One line that replays this exact schedule."""
        flags = self.config.cli_flags()
        flags = f" {flags}" if flags else ""
        gc = " --distgc" if self.distgc else ""
        return (f"PYTHONPATH=src python -m repro chaos "
                f"--seed {self.seed}{gc}{flags} {program}")


@dataclass(slots=True)
class ExplorationReport:
    """The aggregate of one :func:`explore` sweep."""

    config: ChaosConfig
    baseline: Optional[ChaosRun]
    runs: list[ChaosRun]
    divergent: list[ChaosRun] = field(default_factory=list)
    violations: list[tuple[int, str]] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations

    def summary(self, program: str = "<scenario>") -> str:
        lines = [f"explored {len(self.runs)} seed(s): {self.config.describe()}"]
        for run in self.runs:
            status = "ok"
            if any(seed == run.seed for seed, _ in self.violations):
                status = "VIOLATION"
            elif run in self.divergent:
                status = "diverged"
            elif not run.quiescent:
                status = "stalled"
            lines.append(f"  seed {run.seed}: {status}, "
                         f"{run.fault_count()} fault(s), "
                         f"{run.deliveries}/{run.packets} delivered")
        if self.divergent:
            lines.append(f"{len(self.divergent)} divergent schedule(s):")
            for run in self.divergent:
                lines.append(f"  {run.repro(program)}")
        if self.violations:
            lines.append(f"{len(self.violations)} invariant violation(s):")
            for seed, message in self.violations:
                lines.append(f"  seed {seed}: {message}")
        else:
            lines.append("invariants: ok")
        return "\n".join(lines)


def run_scenario(scenario: Scenario, seed: int = 0,
                 config: ChaosConfig | None = None,
                 max_time: float = DEFAULT_MAX_TIME,
                 check_termination: bool = False,
                 monitor: bool = False,
                 tracing: bool = False,
                 metrics=None,
                 flight_capacity: int | None = None) -> ChaosRun:
    """Run ``scenario`` once under ``(seed, config)`` and check the
    per-run invariants.

    ``monitor`` installs a :class:`HeartbeatMonitor` over the run (so
    crashes trigger name-service reconfiguration, whose integrity is
    then checked); ``check_termination`` interleaves Safra's detector
    with execution and flags early announcements.

    A flight recorder rides along on every run; its dump lands in
    ``ChaosRun.flight_dump`` when an invariant breaks or a node
    crashes.  ``tracing=True`` additionally turns on full causal
    tracing (span ids on the wire, per-step VM-state events) and fills
    ``ChaosRun.trace_json`` with the Chrome-trace-event export --
    deterministic, so the same ``(seed, config)`` yields the same
    bytes.  ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
    is subscribed as a sink and topped up with the end-of-run gauge
    snapshot.  ``flight_capacity`` sizes the recorder's per-node rings
    (else ``REPRO_FLIGHT_CAPACITY``, else the default).
    """
    from repro.obs.flight import resolve_capacity

    config = config or ChaosConfig()
    world = ChaosWorld(seed=seed, config=config)
    recorder = FlightRecorder(resolve_capacity(flight_capacity))
    world.obs.subscribe(recorder)
    if metrics is not None:
        world.obs.subscribe(metrics)
    collector = None
    if tracing:
        world.obs.tracing = True
        collector = TraceCollector()
        world.obs.subscribe(collector)
    net = DiTyCONetwork(world=world)
    scenario(net)
    hb = None
    if monitor:
        from repro.runtime.failure import HeartbeatMonitor

        hb = HeartbeatMonitor(world, net.nameservice)
        hb.install(horizon=min(max_time, 0.05))
    violations: list[str] = []
    if check_termination:
        report = run_with_termination_detection(world, max_rounds=2000)
        if report.detected and not net.is_quiescent():
            violations.append("termination detected early "
                              "(network still active at announcement)")
        if report.detected and world.in_flight:
            violations.append(f"termination detected early "
                              f"({world.in_flight} packet(s) in flight)")
    else:
        net.run(max_time)
    # A .tycosh scenario may have run the network itself; the total
    # virtual time is the meaningful (and deterministic) elapsed value.
    elapsed = net.time
    quiescent = net.is_quiescent()
    outputs = {name: tuple(values)
               for name, values in sorted(net.outputs().items())}
    stalled = tuple(sorted(
        site.site_name
        for node in world.nodes.values()
        for site in node.sites.values()
        if site.vm.has_stalled() or site._pending_fetch
        or site._pending_code))
    violations += inv.check_message_accounting(world)
    violations += inv.check_no_stale_code(net)
    if quiescent:
        violations += inv.check_termination_not_early(net)
    if hb is not None:
        violations += inv.check_nameservice_integrity(net, hb)
    if inv.has_distgc(net):
        # Let the lease protocol converge before judging it, then check
        # both halves of its contract.  settle_distgc runs the world, so
        # it must come after the quiescence/output observations above.
        inv.settle_distgc(net)
        violations += inv.check_no_premature_reclaim(net)
        violations += inv.check_export_liveness(net)
    if inv.has_mobility(net):
        violations += inv.check_no_twin_site(net)
        violations += inv.check_no_lost_site(net)
    # Mutating probe last: it may complete stalled work.
    violations += inv.check_no_dangling_imports(net)
    run = ChaosRun(
        seed=seed,
        config=config,
        outputs=outputs,
        quiescent=quiescent,
        elapsed=elapsed,
        packets=world.stats.packets,
        deliveries=world.deliveries,
        chaos_dropped=world.chaos_dropped,
        chaos_duplicated=world.chaos_duplicated,
        chaos_delayed=world.chaos_delayed,
        crash_dropped=world.dropped_packets,
        fault_log=world.faults.format(),
        stalled_sites=stalled,
        violations=violations,
        distgc=inv.has_distgc(net),
    )
    if violations or world.crashed_ever:
        reason = ("invariant violation: " + "; ".join(violations)
                  if violations
                  else "node crash: " + ", ".join(sorted(world.crashed_ever)))
        run.flight_dump = recorder.dump(reason, repro=run.repro())
    if collector is not None:
        run.trace_json = chrome_trace_json(collector.events)
    if metrics is not None:
        from repro.obs import world_metrics

        world_metrics(world, metrics)
    return run


def explore(scenario: Scenario, seeds: Iterable[int],
            config: ChaosConfig | None = None,
            max_time: float = DEFAULT_MAX_TIME,
            check_termination: bool = False,
            monitor: bool = False,
            baseline: bool = True) -> ExplorationReport:
    """Sweep ``scenario`` across ``seeds`` under ``config``.

    Cross-run checks on top of the per-run invariants:

    * runs under a *loss-free* config (and the fault-free baseline)
      must all produce the same observable answer (confluence for
      race-free programs);
    * runs under a lossy config whose answer differs from the baseline
      are collected as ``divergent`` -- reproducible schedules to pin
      in the regression corpus.
    """
    config = config or ChaosConfig()
    base = None
    if baseline:
        base = run_scenario(scenario, seed=0, config=ChaosConfig(),
                            max_time=max_time,
                            check_termination=check_termination)
    runs = [run_scenario(scenario, seed, config, max_time,
                         check_termination=check_termination,
                         monitor=monitor)
            for seed in seeds]
    report = ExplorationReport(config=config, baseline=base, runs=runs)
    for run in runs:
        for message in run.violations:
            report.violations.append((run.seed, message))
    ref = base if base is not None else (runs[0] if runs else None)
    reference = ref.canonical_outputs() if ref is not None else None
    for run in runs:
        if ref is None:
            break
        same = (run.canonical_outputs() == reference
                and run.quiescent == ref.quiescent)
        if same:
            continue
        if config.is_loss_free():
            report.violations.append((
                run.seed,
                "confluence broken: a loss-free schedule changed the "
                "observable answer"))
        else:
            report.divergent.append(run)
    return report
