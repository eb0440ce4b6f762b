"""Unified observability layer (docs/OBSERVABILITY.md).

Every layer of the runtime -- VM reductions, network reductions, the
code cache, the distributed GC, the transports and the chaos harness
-- publishes structured events into one :class:`~repro.obs.bus.EventBus`
owned by the world; there is no other event path.  The bus is a no-op
unless a sink subscribes, so the default (unobserved) system pays one
attribute load per would-be event and produces byte-identical wire
traffic.

Sinks shipped here:

* :class:`~repro.obs.metrics.MetricsRegistry` -- counter / gauge /
  histogram instruments with Prometheus-style text exposition;
* :class:`~repro.obs.chrome.TraceCollector` -- records everything for
  Chrome-trace-event JSON export (``repro trace``, Perfetto-loadable);
* :class:`~repro.obs.flight.FlightRecorder` -- a bounded per-node ring
  of recent events, dumped when an invariant breaks or a node crashes.

The chaos harness adds its own, :class:`~repro.testkit.chaos.FaultLog`
(the injected faults of one run, the replayable repro dump).

Because all timestamps come from the world's (virtual) clock and all
ids from deterministic counters, a given chaos seed yields a
byte-identical trace file on every run.
"""

from .bus import EventBus
from .chrome import TraceCollector, chrome_trace, chrome_trace_json
from .cluster import (ClusterScraper, event_from_dict, event_to_dict,
                      events_from_jsonl, events_to_jsonl, merge_metrics,
                      stitch_events, stitch_trace_json, top_table)
from .events import CATEGORY_OF, KNOWN_KINDS, ObsEvent, category_of
from .flight import FlightRecorder, resolve_capacity
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      merge_snapshots, world_metrics)
from .profiler import VMProfiler
from .schema import load_trace_schema, validate_trace
from .slo import SLOBreach, SLOError, SLORule, SLOSpec, SLOWatchdog

__all__ = [
    "EventBus",
    "ObsEvent",
    "CATEGORY_OF",
    "KNOWN_KINDS",
    "category_of",
    "TraceCollector",
    "chrome_trace",
    "chrome_trace_json",
    "ClusterScraper",
    "event_to_dict",
    "event_from_dict",
    "events_to_jsonl",
    "events_from_jsonl",
    "merge_metrics",
    "merge_snapshots",
    "stitch_events",
    "stitch_trace_json",
    "top_table",
    "FlightRecorder",
    "resolve_capacity",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "world_metrics",
    "VMProfiler",
    "SLOSpec",
    "SLORule",
    "SLOBreach",
    "SLOError",
    "SLOWatchdog",
    "load_trace_schema",
    "validate_trace",
]
