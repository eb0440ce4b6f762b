"""Metrics registry: counters, gauges, histograms, text exposition.

A small Prometheus-flavoured instrument set for the runtime.  The
registry is deliberately boring: instruments are created idempotently
by name, label sets are bounded per metric (``max_series`` -- a
misbehaving label like a heap id cannot blow up memory; increments
past the cap are counted in ``repro_metrics_dropped_series_total``
instead of silently vanishing), and :meth:`MetricsRegistry.render`
emits the deterministic text exposition format scrapers expect::

    # HELP repro_events_total Observability events by kind.
    # TYPE repro_events_total counter
    repro_events_total{kind="deliver"} 42

The registry doubles as an event-bus sink: subscribed to a world's
:class:`~repro.obs.bus.EventBus` it derives per-kind event counters
and a transport byte-size histogram.  :func:`world_metrics` samples
the gauge-shaped state of a world (heap sizes, run-queue depths,
queue lengths) at call time -- gauges are snapshots, not streams.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from .events import ObsEvent, category_of


class MetricsError(Exception):
    """Inconsistent re-registration or bad label usage."""


#: Default histogram buckets: byte-ish powers of four, suiting both
#: packet sizes and event counts.  ``inf`` is implicit (+Inf bucket).
DEFAULT_BUCKETS = (16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0)


class Counter:
    """Monotone counter (one labelled series)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError("counters only go up")
        self.value += amount


class Gauge:
    """Set-to-current-value instrument (one labelled series)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (one labelled series).

    Beyond the Prometheus-shaped bucket counters the instrument tracks
    the exact ``min``/``max`` observed, which lets
    :meth:`percentile` clamp its within-bucket interpolation to the
    actually observed range -- a single sample (or any number of
    duplicates of one value) reports that value exactly instead of a
    bucket midpoint.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "min", "max")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1

    def bucket_values(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, +Inf last."""
        out = [(bound, self.counts[i]) for i, bound in enumerate(self.buckets)]
        out.append((float("inf"), self.count))
        return out

    def percentile(self, q: float) -> float | None:
        """The ``q``-th percentile estimated from the buckets.

        Nearest-rank over the cumulative bucket counts with linear
        interpolation inside the chosen bucket, clamped to the exact
        observed ``[min, max]`` range.  Deterministic -- a pure
        function of the observation multiset -- so snapshots of the
        same simulated run always agree.  Returns ``None`` on an empty
        series; raises :class:`MetricsError` for ``q`` outside
        ``[0, 100]``.
        """
        if not 0.0 <= q <= 100.0:
            raise MetricsError(f"percentile q must be in [0, 100], got {q}")
        if self.count == 0:
            return None
        target = max(1, math.ceil(q / 100.0 * self.count))
        prev_bound = 0.0
        prev_cum = 0
        for bound, cum in self.bucket_values():
            if cum >= target:
                in_bucket = cum - prev_cum
                rank = target - prev_cum
                lo = max(prev_bound, self.min)
                hi = self.max if math.isinf(bound) else min(bound, self.max)
                if hi <= lo or in_bucket == 0:
                    value = hi
                else:
                    value = lo + (hi - lo) * (rank / in_bucket)
                return min(max(value, self.min), self.max)
            prev_bound = bound
            prev_cum = cum
        return self.max  # pragma: no cover - +Inf bucket always matches

    def summary(self) -> dict:
        """A snapshot dict: count/sum/min/max plus p50/p90/p99."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "p50": None, "p90": None, "p99": None}
        return {"count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max,
                "p50": self.percentile(50), "p90": self.percentile(90),
                "p99": self.percentile(99)}


_INSTRUMENTS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric: type, help, label names, bounded series."""

    __slots__ = ("name", "kind", "help", "label_names", "series",
                 "max_series", "dropped", "buckets")

    def __init__(self, name: str, kind: str, help: str,
                 label_names: tuple[str, ...], max_series: int,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.series: dict[tuple[str, ...], object] = {}
        self.max_series = max_series
        self.dropped = 0
        self.buckets = buckets

    def child(self, label_values: tuple[str, ...]):
        found = self.series.get(label_values)
        if found is not None:
            return found
        if len(self.series) >= self.max_series:
            self.dropped += 1
            return None
        if self.kind == "histogram":
            made = Histogram(self.buckets)
        else:
            made = _INSTRUMENTS[self.kind]()
        self.series[label_values] = made
        return made


def _render_labels(names: tuple[str, ...], values: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = list(zip(names, values)) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _render_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value.is_integer():
        # Preserve the sign of negative zero (math.copysign is the
        # only reliable -0.0 test; ``-0.0 == 0.0`` is True).
        if value == 0.0 and math.copysign(1.0, value) < 0:
            return "-0"
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Instrument factory, event-bus sink and text renderer."""

    def __init__(self, max_series: int = 64) -> None:
        self.max_series = max_series
        self._families: dict[str, _Family] = {}

    # -- instrument factories ------------------------------------------------

    def _family(self, name: str, kind: str, help: str,
                labels: Iterable[str],
                buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> _Family:
        label_names = tuple(labels)
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != label_names:
                raise MetricsError(
                    f"metric {name!r} re-registered as {kind} with labels "
                    f"{label_names}, was {family.kind} {family.label_names}")
            return family
        family = _Family(name, kind, help, label_names, self.max_series,
                         buckets)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> "_Handle":
        return _Handle(self._family(name, "counter", help, labels))

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> "_Handle":
        return _Handle(self._family(name, "gauge", help, labels))

    def histogram(self, name: str, help: str = "",
                  labels: Iterable[str] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> "_Handle":
        return _Handle(self._family(name, "histogram", help, labels,
                                    buckets=buckets))

    # -- event-bus sink ------------------------------------------------------

    def on_event(self, event: ObsEvent) -> None:
        """Derive per-kind/category counters (and a transport size
        histogram) from the event stream."""
        self.counter("repro_events_total",
                     "Observability events by kind.",
                     ("cat", "kind")).labels(
                         category_of(event.kind), event.kind).inc()
        if event.kind in ("send", "deliver", "batch"):
            self.histogram("repro_transport_frame_bytes",
                           "Transport buffer sizes by kind.",
                           ("kind",)).labels(event.kind).observe(event.size)

    # -- exposition ----------------------------------------------------------

    def dropped_series(self) -> int:
        return sum(f.dropped for f in self._families.values())

    def render(self) -> str:
        """Prometheus text exposition (sorted, deterministic)."""
        lines: list[str] = []
        dropped = self.dropped_series()
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for values in sorted(family.series):
                inst = family.series[values]
                if family.kind == "histogram":
                    assert isinstance(inst, Histogram)
                    for le, count in inst.bucket_values():
                        labels = _render_labels(
                            family.label_names, values,
                            extra=(("le", _render_value(le)),))
                        lines.append(f"{name}_bucket{labels} {count}")
                    labels = _render_labels(family.label_names, values)
                    lines.append(
                        f"{name}_sum{labels} {_render_value(inst.sum)}")
                    lines.append(f"{name}_count{labels} {inst.count}")
                else:
                    labels = _render_labels(family.label_names, values)
                    lines.append(
                        f"{name}{labels} {_render_value(inst.value)}")
        lines.append("# HELP repro_metrics_dropped_series_total Label sets "
                     "rejected by the per-metric cardinality cap.")
        lines.append("# TYPE repro_metrics_dropped_series_total counter")
        lines.append(f"repro_metrics_dropped_series_total {dropped}")
        return "\n".join(lines) + "\n"

    # -- snapshot / merge (repro.obs.cluster) --------------------------------

    def snapshot(self) -> dict:
        """A plain-value dump of every family and series.

        The structure round-trips through ``wire.encode`` /
        ``wire.decode`` (the daemon control protocol's marshalling):
        only str / int / float / None / tuples / lists / str-keyed
        dicts, so ``series`` is a list of ``(label_values, state)``
        pairs; empty-histogram min/max are None.  Deterministic:
        families and series are emitted sorted.
        """
        out: dict[str, dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            fam: dict = {"kind": family.kind, "help": family.help,
                         "labels": list(family.label_names),
                         "dropped": family.dropped, "series": []}
            if family.kind == "histogram":
                fam["buckets"] = list(family.buckets)
            for values in sorted(family.series):
                inst = family.series[values]
                if family.kind == "histogram":
                    assert isinstance(inst, Histogram)
                    state = {
                        "counts": list(inst.counts), "sum": inst.sum,
                        "count": inst.count,
                        "min": None if inst.count == 0 else inst.min,
                        "max": None if inst.count == 0 else inst.max,
                    }
                else:
                    state = inst.value
                fam["series"].append((values, state))
            out[name] = fam
        return out


def merge_snapshots(snapshots: dict[str, dict],
                    label: str = "node") -> MetricsRegistry:
    """Merge per-node registry snapshots into one labelled registry.

    ``snapshots`` maps a node label value (the daemon's ip) to the
    output of :meth:`MetricsRegistry.snapshot`.  Families that do not
    already carry ``label`` get it prepended; families that do (the
    per-node/per-site gauges from :func:`world_metrics`) keep their
    existing series untouched -- each daemon only reports itself, so
    the values are already distinct.  Nodes and families are applied
    sorted, making the merged :meth:`~MetricsRegistry.render` output
    deterministic.
    """
    merged = MetricsRegistry(max_series=max(
        64, 64 * max(1, len(snapshots))))
    for node in sorted(snapshots):
        for name, fam in sorted(snapshots[node].items()):
            labels = tuple(fam["labels"])
            prepend = label not in labels
            if prepend:
                labels = (label,) + labels
            family = merged._family(
                name, fam["kind"], fam["help"], labels,
                buckets=tuple(fam.get("buckets", DEFAULT_BUCKETS)))
            family.dropped += fam["dropped"]
            for values, state in fam["series"]:
                if prepend:
                    values = (node,) + values
                inst = family.child(values)
                if inst is None:  # pragma: no cover - cap is sized above
                    continue
                if fam["kind"] == "histogram":
                    assert isinstance(inst, Histogram)
                    for i, count in enumerate(state["counts"]):
                        inst.counts[i] += count
                    inst.sum += state["sum"]
                    inst.count += state["count"]
                    if state["min"] is not None:
                        inst.min = min(inst.min, state["min"])
                    if state["max"] is not None:
                        inst.max = max(inst.max, state["max"])
                else:
                    inst.value += state
    return merged


class _Handle:
    """A named metric bound to its family; ``labels(...)`` selects the
    series (capped), no-label metrics use the instrument directly."""

    __slots__ = ("_family",)

    def __init__(self, family: _Family) -> None:
        self._family = family

    def labels(self, *values) -> object:
        if len(values) != len(self._family.label_names):
            raise MetricsError(
                f"metric {self._family.name!r} takes labels "
                f"{self._family.label_names}, got {values!r}")
        child = self._family.child(tuple(str(v) for v in values))
        return child if child is not None else _NOOP

    # Label-less convenience: operate on the single unlabelled series.

    def _solo(self):
        if self._family.label_names:
            raise MetricsError(
                f"metric {self._family.name!r} requires labels "
                f"{self._family.label_names}")
        return self._family.child(())

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)


class _Noop:
    """Series beyond the cardinality cap land here."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> None:
        """Capped series have no data; mirror an empty histogram."""
        return None

    def summary(self) -> dict:
        return Histogram().summary()


_NOOP = _Noop()


def world_metrics(world, registry: Optional[MetricsRegistry] = None
                  ) -> MetricsRegistry:
    """Sample the gauge-shaped state of ``world`` into ``registry``.

    Covers the whole stack: transport totals, per-node daemon traffic,
    launch-cache and code-store state, per-site VM counters
    (instructions, COMM/INST reductions, run-queue depth), heap stats,
    code-cache hits/misses and distgc lease state.  Safe to call repeatedly -- gauges are overwritten,
    lifetime counters are set to the live values.
    """
    reg = registry if registry is not None else MetricsRegistry()
    g = reg.gauge
    g("repro_transport_packets_total",
      "Packets handed to the transport.").set(world.stats.packets)
    g("repro_transport_bytes_total",
      "Bytes handed to the transport.").set(world.stats.bytes)
    g("repro_transport_max_in_flight",
      "Peak packets simultaneously in flight.").set(
          world.stats.max_in_flight)
    node_g = {
        "repro_node_remote_sends_total": lambda n: n.tycod.stats.remote_sends,
        "repro_node_remote_receives_total":
            lambda n: n.tycod.stats.remote_receives,
        "repro_node_bytes_sent_total": lambda n: n.tycod.stats.bytes_sent,
        "repro_node_local_deliveries_total":
            lambda n: n.tycod.stats.local_deliveries,
        # What the node remembers between sites: program shapes
        # (repro.runtime.launch) and code slices (runtime.codecache).
        "repro_launch_cache_hits_total": lambda n: n.tycoi.launch.stats.hits,
        "repro_launch_cache_misses_total":
            lambda n: n.tycoi.launch.stats.misses,
        "repro_launch_cache_untemplatable_total":
            lambda n: n.tycoi.launch.stats.untemplatable,
        "repro_launch_cache_evictions_total":
            lambda n: n.tycoi.launch.stats.evictions,
        "repro_code_store_slices":
            lambda n: 0 if n.codestore is None else len(n.codestore),
        "repro_code_store_evictions_total":
            lambda n: 0 if n.codestore is None else n.codestore.evictions,
    }
    for name, getter in node_g.items():
        handle = g(name, "Per-node daemon traffic, launch-cache and "
                         "code-store state.", ("node",))
        for ip in sorted(world.nodes):
            handle.labels(ip).set(getter(world.nodes[ip]))
    site_g = {
        "repro_vm_instructions_total": lambda s: s.vm.stats.instructions,
        "repro_vm_comm_reductions_total":
            lambda s: s.vm.stats.comm_reductions,
        "repro_vm_inst_reductions_total":
            lambda s: s.vm.stats.inst_reductions,
        "repro_vm_runqueue_depth": lambda s: len(s.vm.runqueue),
        "repro_vm_runqueue_max_depth": lambda s: s.vm.runqueue.max_depth,
        "repro_heap_live": lambda s: s.vm.heap.stats().live,
        "repro_heap_allocated_total": lambda s: s.vm.heap.stats().allocated,
        "repro_heap_reclaimed_total": lambda s: s.vm.heap.stats().reclaimed,
        "repro_cache_hits_total": lambda s: s.stats.code_cache_hits,
        "repro_cache_misses_total": lambda s: s.stats.code_cache_misses,
        "repro_site_packets_sent_total": lambda s: s.stats.packets_sent,
        "repro_site_packets_received_total":
            lambda s: s.stats.packets_received,
    }
    sites = [(ip, site)
             for ip in sorted(world.nodes)
             for site in world.nodes[ip].sites.values()]
    for name, getter in site_g.items():
        handle = g(name, "Per-site VM / cache state.", ("node", "site"))
        for ip, site in sites:
            handle.labels(ip, site.site_name).set(getter(site))
    lease_handle = g("repro_gc_leased_keys",
                     "Live lease keys per distgc site.", ("node", "site"))
    sweep_handle = g("repro_gc_sweeps_total",
                     "Distgc sweeps per site.", ("node", "site"))
    for ip, site in sites:
        if site.distgc is None:
            continue
        lease_handle.labels(ip, site.site_name).set(len(site.distgc.leases))
        sweep_handle.labels(ip, site.site_name).set(site.distgc.stats.sweeps)
    # Live-migration stats (repro.mobility): only rendered for nodes
    # that created a migration manager, so migration-free expositions
    # are unchanged.
    movers = [(ip, world.nodes[ip].mobility) for ip in sorted(world.nodes)
              if getattr(world.nodes[ip], "mobility", None) is not None]
    if movers:
        mig_g = {
            "repro_migration_out_total":
                ("Migrations initiated from this node.",
                 lambda m: m.stats.migrations_out),
            "repro_migration_in_total":
                ("Migrations completed onto this node.",
                 lambda m: m.stats.migrations_in),
            "repro_migration_retries_total":
                ("SHIP retransmits.", lambda m: m.stats.retries),
            "repro_migration_failures_total":
                ("Migrations abandoned (site stays frozen).",
                 lambda m: m.stats.failures),
            "repro_migration_forwards_total":
                ("Residual packets forwarded via tombstones.",
                 lambda m: m.stats.forwards),
            "repro_migration_state_bytes_total":
                ("Checkpoint state bytes shipped.",
                 lambda m: m.stats.state_bytes_shipped),
            "repro_migration_code_bytes_total":
                ("Checkpoint code bytes shipped.",
                 lambda m: m.stats.code_bytes_shipped),
            "repro_migration_warm_restores_total":
                ("Inbound restores served from the code library.",
                 lambda m: m.stats.warm_restores),
            "repro_migration_cold_restores_total":
                ("Inbound restores that needed a code round-trip.",
                 lambda m: m.stats.cold_restores),
            "repro_migration_frozen_sites":
                ("Sites currently frozen mid-migration.",
                 lambda m: len(m.frozen)),
            "repro_migration_tombstones":
                ("Redirects installed at this node.",
                 lambda m: len(m.tombstones)),
        }
        for name, (help_text, getter) in mig_g.items():
            handle = g(name, help_text, ("node",))
            for ip, manager in movers:
                handle.labels(ip).set(getter(manager))
    # Socket-transport connection stats (repro.transport.socket): only
    # rendered when the world actually ran over TCP, so simulator
    # expositions are unchanged.
    if world.stats.handshakes or world.stats.resets \
            or world.stats.backpressure_waits:
        socket_g = {
            "repro_socket_handshakes_total":
                ("Connection handshakes completed.",
                 world.stats.handshakes),
            "repro_socket_handshake_failures_total":
                ("Handshakes rejected (version/magic).",
                 world.stats.handshake_failures),
            "repro_socket_reconnects_total":
                ("Links re-established after a drop.",
                 world.stats.reconnects),
            "repro_socket_resets_total":
                ("Unclean connection drops observed.",
                 world.stats.resets),
            "repro_socket_backpressure_waits_total":
                ("Sends that blocked on a full outbound queue.",
                 world.stats.backpressure_waits),
            "repro_socket_queue_peak":
                ("Peak per-link outbound queue depth.",
                 world.stats.queue_peak),
        }
        for name, (help_text, value) in socket_g.items():
            g(name, help_text).set(value)
    return reg
