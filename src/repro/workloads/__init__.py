"""Macro workloads: applications that look like traffic.

Three real DiTyCO applications -- the pub/sub chat fabric, map-reduce
with FETCH code movement, and the mobile-agent pipeline -- plus the
seeded open-loop generator that drives them and the runner that
stopwatches every operation (docs/WORKLOADS.md).
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "spec": "DEFAULT_MIX WORKLOADS Arrival WorkloadError WorkloadSpec "
            "generate_trace trace_digest trace_json",
    "runner": "APPS LATENCY_BUCKETS WORLD_KINDS WorkloadReport "
              "expected_outputs install_scenario run_workload",
})
