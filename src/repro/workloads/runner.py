"""The open-loop workload runner: spec -> traffic -> latency report.

:func:`run_workload` builds the spec's application fabric on a fresh
:class:`~repro.runtime.network.DiTyCONetwork`, injects the generated
arrival schedule open-loop, and stopwatches every operation from its
injection to the moment its completion token reaches the ``collector``
site.  The same code path drives both worlds: arrivals, balancer
ticks and SLO checks are planted on the world's timer
(:meth:`~repro.transport.base.World.schedule_at`), and ``run`` drains
the network once they have all fired.

* ``sim`` -- the timer is the virtual clock's event queue, so the whole
  run (latencies included) is a pure function of the spec; repeated
  runs are bit-identical.
* ``socket`` -- the timer is a ``call_at`` on the loop that steps every
  node, and latencies are real round-trip times over loopback TCP.

Latency measurement needs no VM support: every workload routes each
operation's completion token (its ``seq``) to the collector's console,
and the runner replaces that one site's output list with a tap that
timestamps tokens as the engine appends them.  Both dispatch engines
look the output list up dynamically at print time, and the swap
happens while the network is quiescent, so schedules are unperturbed.

Samples land twice: exact per-op lists on the returned
:class:`WorkloadReport` (nearest-rank percentiles for the benchmark
gates) and the shared ``repro_workload_latency_seconds`` histogram of
a :class:`~repro.obs.metrics.MetricsRegistry` (bucketed p50/p99 for
exposition, exactly what E14--E16 surface through ``run_all --json``).

On both worlds the runner also reaps drained operation sites every
:data:`REAP_EVERY` arrivals (on the simulator a deterministic point in
virtual time); without this the per-site scheduling quantum shrinks as
thousands of dead client sites accumulate and long runs go
superlinear.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.runtime.network import DiTyCONetwork

from . import agents, mapreduce, pubsub
from .spec import Arrival, WorkloadSpec, WorkloadError, generate_trace

#: workload name -> the module implementing the application interface
#: (setup_phases / op_entry / post_phases / expected_outputs).
APPS = {"pubsub": pubsub, "mapreduce": mapreduce, "agents": agents}

WORLD_KINDS = ("sim", "socket")

#: Seconds, geometric x4 from 1us to ~17s: spans simulated cross-node
#: round trips (tens of us) through real TCP tails.
LATENCY_BUCKETS = tuple(1e-6 * 4.0 ** k for k in range(13))

DEFAULT_WALL_TIMEOUT_S = 30.0

#: Arrivals between two reaps of the drained operation sites (0: never
#: reap, which tests set to see what reaping saves).
REAP_EVERY = 32


class _TapList(list):
    """The collector's output list, instrumented: every token the VM
    prints fires the callback (with the token) at append time."""

    def __init__(self, base, on_token):
        super().__init__(base)
        self._on_token = on_token

    def append(self, item):
        super().append(item)
        self._on_token(item)

    def extend(self, items):
        items = list(items)
        super().extend(items)
        for item in items:
            self._on_token(item)


@dataclass
class WorkloadReport:
    """Everything one macro run produced.

    ``latencies`` maps op type -> completion-ordered latency samples in
    seconds (virtual seconds on the simulator).  ``violations`` is the
    output of :func:`check_expected_outputs` -- empty means every
    operation completed with exactly the expected effects.
    """

    spec: WorkloadSpec
    world: str
    makespan_s: float
    latencies: dict[str, list[float]] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: None when the balancer was off; the ordered decision list when on.
    balance_decisions: list | None = None
    #: Flight-recorder dump, filled when a balanced run violates its
    #: expected outputs (what did the balancer do right before?), or
    #: when the SLO watchdog trips mid-run (the moment of the breach).
    flight_dump: str = ""
    #: None when no SLO spec was given; the breach messages when one
    #: was (empty list = every objective held).
    slo_breaches: list[str] | None = None

    @property
    def ops_completed(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    def all_latencies(self) -> list[float]:
        out: list[float] = []
        for op in sorted(self.latencies):
            out.extend(self.latencies[op])
        return sorted(out)

    def percentile(self, q: float, op: str | None = None) -> float | None:
        """Exact nearest-rank percentile over the recorded samples
        (one op type, or all of them pooled)."""
        if not 0.0 <= q <= 100.0:
            raise WorkloadError(f"percentile q must be in [0, 100], got {q}")
        samples = (sorted(self.latencies.get(op, ()))
                   if op is not None else self.all_latencies())
        if not samples:
            return None
        rank = max(1, -(-int(q * len(samples)) // 100))  # ceil, int-only
        return samples[min(rank, len(samples)) - 1]

    def throughput_ops_per_s(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.ops_completed / self.makespan_s

    def summary(self) -> dict:
        """JSON-able digest (deterministic on the simulator)."""
        per_op = {}
        for op in sorted(self.latencies):
            samples = self.latencies[op]
            per_op[op] = {
                "count": len(samples),
                "p50_us": _us(self.percentile(50, op)),
                "p90_us": _us(self.percentile(90, op)),
                "p99_us": _us(self.percentile(99, op)),
                "max_us": _us(max(samples)) if samples else None,
            }
        out = {
            "spec": self.spec.to_dict(),
            "world": self.world,
            "ops": self.spec.ops,
            "completed": self.ops_completed,
            "makespan_us": _us(self.makespan_s),
            "throughput_ops_per_s": round(self.throughput_ops_per_s(), 1),
            "p50_us": _us(self.percentile(50)),
            "p99_us": _us(self.percentile(99)),
            "per_op": per_op,
            "violations": list(self.violations),
        }
        if self.balance_decisions is not None:
            out["balance"] = [
                {"tick": d.tick, "site": d.site_name,
                 "src": d.src_ip, "dest": d.dest_ip,
                 "reason": d.reason}
                for d in self.balance_decisions]
        if self.slo_breaches is not None:
            out["slo_breaches"] = list(self.slo_breaches)
        return out


def _us(seconds: float | None) -> float | None:
    return None if seconds is None else round(seconds * 1e6, 3)


def _make_world(kind: str):
    if kind == "sim":
        return None                     # DiTyCONetwork's default SimWorld
    if kind == "socket":
        from repro.transport.socket import SocketWorld

        return SocketWorld()
    raise WorkloadError(
        f"unknown world {kind!r} (choose from {', '.join(WORLD_KINDS)})")


def _reap_all(net: DiTyCONetwork) -> int:
    return sum(node.tycoi.reap() for node in net.world.nodes.values())


def run_workload(spec: WorkloadSpec, world: str = "sim",
                 registry: MetricsRegistry | None = None,
                 max_time: float | None = None,
                 balance: bool = False,
                 balance_interval: float | None = None,
                 slo=None) -> WorkloadReport:
    """Build the fabric, drive the open-loop schedule, report latency.

    ``max_time`` bounds each wall-clock drain -- for the traffic, the
    drain after its last arrival -- and is ignored on the simulator,
    which runs to quiescence; a wall run that cannot drain raises
    ``TimeoutError`` from the world.

    With ``balance`` the metrics-driven load balancer
    (:mod:`repro.mobility.balancer`) runs over the traffic window, one
    tick every ``balance_interval`` seconds of the world's clock
    (default: an eighth of the window).  The ``collector`` site is
    pinned (its output list holds the latency tap, which a checkpoint
    round trip would shed); every migration the balancer orders lands
    on the report, and a flight recorder captures the event context so
    a violated run shows what the balancer did right before.

    With ``slo`` (an :class:`~repro.obs.slo.SLOSpec`) the watchdog
    evaluates the rules at the quarter points of the traffic window and
    once more at drain; breaches land on the report and the first one
    captures a flight dump.
    """
    app = APPS[spec.workload]
    trace = generate_trace(spec)
    registry = registry if registry is not None else MetricsRegistry()
    wall_timeout = DEFAULT_WALL_TIMEOUT_S if max_time is None else max_time
    net = DiTyCONetwork(world=_make_world(world))
    balancer = recorder = watchdog = None
    try:
        for i in range(spec.nodes):
            net.add_node(spec.node_ip(i))
        for phase in app.setup_phases(spec):
            for ip, name, src in phase:
                net.launch(ip, name, src)
            net.run(max_time=None if world == "sim" else wall_timeout)
        if not net.is_quiescent():
            raise WorkloadError(f"{spec.workload} fabric did not settle")

        if balance or slo is not None:
            from repro.obs.flight import FlightRecorder

            recorder = FlightRecorder()
            net.world.obs.subscribe(recorder)
        if balance:
            from repro.mobility.balancer import LoadBalancer, ThresholdPolicy

            balancer = LoadBalancer(
                net, ThresholdPolicy(pinned=frozenset({"collector"})),
                registry=registry)

        op_of = {a.seq: a.op for a in trace}
        launch_at: dict[int, float] = {}
        latencies: dict[str, list[float]] = {}
        hist = registry.histogram(
            "repro_workload_latency_seconds",
            "Macro-workload operation latency (injection to completion).",
            ("workload", "op"), buckets=LATENCY_BUCKETS)
        ops_total = registry.counter(
            "repro_workload_ops_total",
            "Macro-workload operations completed.", ("workload", "op"))
        clock = lambda: net.world.time  # noqa: E731 - virtual or wall

        def on_token(token) -> None:
            started = launch_at.pop(token, None)
            if started is None:
                return                   # not a completion token
            op = op_of[token]
            sample = clock() - started
            latencies.setdefault(op, []).append(sample)
            hist.labels(spec.workload, op).observe(sample)
            ops_total.labels(spec.workload, op).inc()

        if slo is not None:
            from repro.obs.slo import SLOWatchdog

            watchdog = SLOWatchdog(
                slo, registry, spec.workload, bus=net.world.obs,
                recorder=recorder,
                repro=(f"PYTHONPATH=src python -m repro workload "
                       f"{spec.workload} --seed {spec.seed} "
                       f"--ops {spec.ops} --world {world}"))

        collector = net.site("collector")
        collector.vm.output = _TapList(collector.vm.output, on_token)

        def make_launch(arrival: Arrival):
            reap = (REAP_EVERY > 0
                    and arrival.seq % REAP_EVERY == REAP_EVERY - 1)

            def launch() -> None:
                if reap:
                    _reap_all(net)
                ip, name, src = app.op_entry(spec, arrival)
                launch_at[arrival.seq] = net.world.time
                net.launch(ip, name, src)
            return launch

        span = trace[-1].at_us * 1e-6 if trace else 0.0

        def plant() -> float:
            """Plant the traffic window on the world's timer (on a
            wall-clock world, from its loop: one hop, one clock
            reading); returns its start."""
            base = net.time
            for arrival in trace:
                net.world.schedule_at(base + arrival.at_us * 1e-6,
                                      make_launch(arrival))
            if balancer is not None:
                interval = balance_interval or max(span / 8.0, 1e-5)
                balancer.install(interval, base + span + interval)
            if watchdog is not None:
                for k in range(1, 5):
                    net.world.schedule_at(base + span * k / 4.0,
                                          watchdog.check)
            return base

        base = net.world.call(plant)
        net.run(max_time if world == "sim"
                else base + span - net.time + wall_timeout)
        makespan = net.time - base

        for phase in app.post_phases(spec, trace):
            for ip, name, src in phase:
                net.launch(ip, name, src)
            net.run(max_time=None if world == "sim" else wall_timeout)

        violations = check_expected_outputs(
            net, app.expected_outputs(spec, trace))
        registry.gauge("repro_workload_makespan_seconds",
                       "Traffic window: first injection to drain.",
                       ("workload",)).labels(spec.workload).set(makespan)
        flight_dump = ""
        if balancer is not None:
            # Surface the migration counters next to the latency
            # histogram (repro_migration_* appear once a node has a
            # mobility manager, i.e. once anything actually moved).
            from repro.obs.metrics import world_metrics

            world_metrics(net.world, registry)
            if violations and recorder is not None:
                flight_dump = recorder.dump(
                    f"{spec.workload} outputs diverged under balancing")
        slo_breaches = None
        if watchdog is not None:
            watchdog.check(
                completed=sum(len(v) for v in latencies.values()),
                elapsed_s=makespan, final=True)
            slo_breaches = [b.message for b in watchdog.breaches]
            if watchdog.flight_dump and not flight_dump:
                flight_dump = watchdog.flight_dump
        return WorkloadReport(spec=spec, world=world, makespan_s=makespan,
                              latencies=latencies, violations=violations,
                              registry=registry,
                              balance_decisions=(list(balancer.decisions)
                                                 if balancer else None),
                              flight_dump=flight_dump,
                              slo_breaches=slo_breaches)
    finally:
        if world != "sim":
            net.world.shutdown()


def check_expected_outputs(net: DiTyCONetwork,
                           expected: dict[str, tuple]) -> list[str]:
    """Macro-run completeness: every listed site's output *multiset*
    must equal the expected one (order-insensitive -- open-loop
    schedules legitimately reorder completions, they must never lose
    or duplicate one).  Used by the runner and the macro chaos tests
    on fault-free schedules; sites the network never created are
    reported too (a silently-failed launch is a bug, not an empty
    answer)."""
    violations = []
    produced = net.outputs()
    for site_name in sorted(expected):
        want = tuple(sorted(expected[site_name], key=repr))
        if site_name not in produced:
            violations.append(
                f"macro run lost site {site_name!r}: expected "
                f"{len(want)} output value(s), site does not exist")
            continue
        got = tuple(sorted(produced[site_name], key=repr))
        if got != want:
            missing = _multiset_diff(want, got)
            extra = _multiset_diff(got, want)
            detail = []
            if missing:
                detail.append(f"missing {missing[:8]!r}"
                              + ("..." if len(missing) > 8 else ""))
            if extra:
                detail.append(f"unexpected {extra[:8]!r}"
                              + ("..." if len(extra) > 8 else ""))
            violations.append(
                f"site {site_name!r} output mismatch "
                f"({len(got)}/{len(want)} values): "
                + "; ".join(detail))
    return violations


def _multiset_diff(a: tuple, b: tuple) -> list:
    """Elements of ``a`` not matched one-for-one in ``b``."""
    remaining = Counter(map(repr, b))
    out = []
    for item in a:
        key = repr(item)
        if remaining[key] > 0:
            remaining[key] -= 1
        else:
            out.append(item)
    return out


def expected_outputs(spec: WorkloadSpec) -> dict[str, tuple]:
    """The per-site expected output multisets for a fault-free run."""
    return APPS[spec.workload].expected_outputs(spec, generate_trace(spec))


def install_scenario(net: DiTyCONetwork, spec: WorkloadSpec) -> None:
    """Install the workload on an existing (chaos) network, unphased.

    For :func:`repro.testkit.explore.run_scenario` replays: every
    fabric site launches at once (import stalls retry, as real
    concurrent startups do) and the arrival schedule is planted on the
    virtual clock.  No latency tap -- chaos runs compare canonical
    outputs, not timing.
    """
    app = APPS[spec.workload]
    trace = generate_trace(spec)
    for i in range(spec.nodes):
        if spec.node_ip(i) not in net.world.nodes:
            net.add_node(spec.node_ip(i))
    for phase in app.setup_phases(spec):
        for ip, name, src in phase:
            net.launch(ip, name, src)
    base = net.world.time

    def make_launch(arrival: Arrival):
        def launch() -> None:
            ip, name, src = app.op_entry(spec, arrival)
            net.launch(ip, name, src)
        return launch

    for arrival in trace:
        net.world.schedule_at(base + arrival.at_us * 1e-6,
                              make_launch(arrival))
