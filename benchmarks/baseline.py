"""Benchmark baseline collector: a small, exact JSON metric set.

``collect_metrics()`` measures the E2/E4/E9/E10/E14-E17 numbers the
roadmap tracks across PRs and returns a flat ``{metric: value}`` dict;
``run_all.py --json`` writes it to disk.  Every key is a simulated
time, a byte or packet count, a heap size or an op count -- a pure
function of the code -- so each is measured once and
``BENCH_pr16.json`` pins all 39 exactly (``test_baseline.py``).
Wall-clock claims live in ``benchmarks/e2e``.  ``only`` restricts
collection to experiment groups (e.g. ``{"e2", "e4"}``) for quick
local iteration.

Metric glossary
---------------
- ``e2_cross_node_sim_us`` / ``e2_same_node_sim_us`` -- simulated time
  per message for a 16-message one-hop burst.
- ``e4_fetch_cold_bytes``  -- wire bytes to FETCH a 40-pad class once.
- ``e4_fetch_warm_bytes``  -- wire bytes for 8 uses with all caches on.
- ``e4_refetch_bytes`` / ``e4_refetch_sim_us`` -- wire bytes / virtual
  time for 12 sequential uses with the ClassRef cache (``fetch_cache``)
  *off*: every use re-runs the FETCH protocol for the same remote
  class.  This is the code-cache headline number.
- ``e4_ship_bytes``        -- wire bytes for 8 SHIPO uses of one applet.
- ``e9_msg_wire_bytes`` / ``e9_class_wire_bytes`` -- single-packet sizes.
- ``e9_burst_packets`` / ``e9_burst_bytes`` -- transport packets/bytes
  for a 32-message cross-node burst (default config).
- ``e9_burst_packets_nobatch`` -- same burst with wire batching
  disabled.
- ``e10_churn_final_heap_on`` / ``e10_churn_peak_heap_on`` /
  ``e10_churn_reclaimed_on`` -- client heap size after (and at the
  peak of) ``e10_churn_cycles`` RPC rounds of export churn with the
  distributed GC on, and the ids it reclaimed: bounded by the lease
  term, not the cycle count.
- ``e10_churn_final_heap_off`` -- same workload with distgc off; the
  conservative collector pins every exported id, so this grows
  linearly with the cycles.
- ``e14_pubsub_*`` / ``e15_mapreduce_*`` / ``e16_agents_*`` -- macro
  workload latency: ``_ops`` / ``_p50_us`` / ``_p99_us`` /
  ``_makespan_us`` / ``_sim_ops_per_s``, exact simulated values (pure
  functions of the workload spec).
- ``e17_ckpt_bytes`` -- packed checkpoint blob for the quiesced E17
  pump server.  ``e17_cold_migrate_bytes`` / ``e17_warm_migrate_bytes``
  (and ``_sim_us``) -- wire bytes / virtual time for its cutover to a
  node that never ran it and back to the node it left; each is one
  SHIP carrying code + state and one ACK.  ``e17_code_bytes_shipped``
  / ``e17_state_bytes_shipped`` are the two parts of the first SHIP.
"""

from __future__ import annotations

import importlib
import json
from unittest import mock

from repro.runtime import DiTyCONetwork

from _workloads import (
    applet_fetch_network,
    applet_ship_network,
    one_hop_network,
)

#: (body_size, uses) of the repeated-FETCH workload; shared with the
#: tier-2 regression test in test_baseline.py.
REFETCH_BODY = 40
REFETCH_USES = 12


def _one_hop_sim_us(placement: str, n: int) -> float:
    net = one_hop_network(placement, n_messages=n)
    elapsed = net.run()
    return elapsed * 1e6 / n


def refetch_network(code_cache: bool = True) -> DiTyCONetwork:
    """The repeated-FETCH workload: ``REFETCH_USES`` sequential
    instantiations of the same remote class with the ClassRef cache
    disabled, so every use re-runs the FETCH protocol.  Both switches
    are read when the sites are built."""
    with mock.patch("repro.runtime.site.FETCH_CACHE", False), \
            mock.patch("repro.runtime.codecache.CODE_CACHE", code_cache):
        return applet_fetch_network(REFETCH_BODY, REFETCH_USES)


def _refetch() -> tuple[float, int]:
    net = refetch_network()
    elapsed = net.run()
    assert net.site("client").output == [42]
    return elapsed, net.world.stats.bytes


def _fetch_bytes(body: int, uses: int) -> int:
    net = applet_fetch_network(body, uses)
    net.run()
    assert net.site("client").output == [42]
    return net.world.stats.bytes


def _ship_bytes(body: int, uses: int) -> int:
    net = applet_ship_network(body, uses)
    net.run()
    assert net.site("client").output == [42]
    return net.world.stats.bytes


def _burst(batching: bool) -> tuple[int, int]:
    net = DiTyCONetwork()
    net.add_nodes(["n1", "n2"])
    receivers = " | ".join(f"(svc?(v{i}) = print![v{i}])" for i in range(32))
    net.launch("n1", "server", f"export new svc ({receivers})")
    sends = " | ".join(f"svc![{i}]" for i in range(32))
    net.launch("n2", "client", f"import svc from server in ({sends})")
    with mock.patch("repro.runtime.node.BATCHING", batching):
        net.run()
    assert sorted(net.site("server").output) == list(range(32))
    return net.world.stats.packets, net.world.stats.bytes


def _macro_metrics(metrics: dict, group: str, bench_module: str) -> None:
    """E14-E16: one sim run per macro workload (the latency
    distribution is a pure function of the spec)."""
    rep = importlib.import_module(bench_module).run()
    assert not rep.violations, f"{group}: {rep.violations}"
    s = rep.summary()
    prefix = f"{group}_{rep.spec.workload}"
    metrics[f"{prefix}_ops"] = s["completed"]
    metrics[f"{prefix}_p50_us"] = s["p50_us"]
    metrics[f"{prefix}_p99_us"] = s["p99_us"]
    metrics[f"{prefix}_makespan_us"] = s["makespan_us"]
    metrics[f"{prefix}_sim_ops_per_s"] = s["throughput_ops_per_s"]


def _e17_metrics(metrics: dict) -> None:
    """E17: live-migration cutover costs -- checkpoint blob size, wire
    bytes and virtual time for a cutover out (cold) and back (warm) of
    the same site, and the code / state split of the shipped bytes."""
    from bench_e17_migration import run

    r = run()
    metrics["e17_ckpt_bytes"] = r["ckpt_bytes"]
    metrics["e17_cold_migrate_bytes"] = r["cold_bytes"]
    metrics["e17_cold_migrate_sim_us"] = r["cold_sim_us"]
    metrics["e17_warm_migrate_bytes"] = r["warm_bytes"]
    metrics["e17_warm_migrate_sim_us"] = r["warm_sim_us"]
    metrics["e17_code_bytes_shipped"] = r["code_bytes"]
    metrics["e17_state_bytes_shipped"] = r["state_bytes"]


#: Experiment groups ``collect_metrics(only=...)`` understands.
GROUPS = ("e2", "e4", "e9", "e10", "e14", "e15", "e16", "e17")


def collect_metrics(only: set[str] | None = None) -> dict:
    if only is not None:
        unknown = set(only) - set(GROUPS)
        if unknown:
            raise ValueError(f"unknown benchmark groups: {sorted(unknown)} "
                             f"(choose from {', '.join(GROUPS)})")

    def want(group: str) -> bool:
        return only is None or group in only

    metrics: dict[str, float | int] = {}
    if want("e2"):
        metrics["e2_cross_node_sim_us"] = round(
            _one_hop_sim_us("cross-node", 16), 4)
        metrics["e2_same_node_sim_us"] = round(
            _one_hop_sim_us("same-node", 16), 4)
    if want("e4"):
        metrics["e4_fetch_cold_bytes"] = _fetch_bytes(REFETCH_BODY, 1)
        metrics["e4_fetch_warm_bytes"] = _fetch_bytes(REFETCH_BODY, 8)
        elapsed, nbytes = _refetch()
        metrics["e4_refetch_sim_us"] = round(elapsed * 1e6, 2)
        metrics["e4_refetch_bytes"] = nbytes
        metrics["e4_ship_bytes"] = _ship_bytes(REFETCH_BODY, 8)

    if want("e9"):
        from bench_e9_wire import class_packet, message_packet

        metrics["e9_msg_wire_bytes"] = message_packet().wire_size()
        metrics["e9_class_wire_bytes"] = class_packet(16).wire_size()
        packets, nbytes = _burst(batching=True)
        metrics["e9_burst_packets"] = packets
        metrics["e9_burst_bytes"] = nbytes
        metrics["e9_burst_packets_nobatch"] = _burst(batching=False)[0]

    if want("e10"):
        from bench_e10_distgc import run_churn

        cycles = 10_000
        on = run_churn(cycles, distgc=True)
        off = run_churn(cycles, distgc=False)
        metrics["e10_churn_cycles"] = cycles
        metrics["e10_churn_final_heap_on"] = on["final_heap"]
        metrics["e10_churn_peak_heap_on"] = on["peak_heap"]
        metrics["e10_churn_reclaimed_on"] = on["reclaimed"]
        metrics["e10_churn_final_heap_off"] = off["final_heap"]

    if want("e14"):
        _macro_metrics(metrics, "e14", "bench_e14_pubsub")
    if want("e15"):
        _macro_metrics(metrics, "e15", "bench_e15_mapreduce")
    if want("e16"):
        _macro_metrics(metrics, "e16", "bench_e16_agents")
    if want("e17"):
        _e17_metrics(metrics)
    return metrics


def write_json(path: str, only: set[str] | None = None) -> dict:
    metrics = collect_metrics(only=only)
    with open(path, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return metrics
