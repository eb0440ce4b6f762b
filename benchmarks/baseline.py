"""Benchmark baseline collector: a small, stable JSON metric set.

``collect_metrics()`` measures the E1/E2/E4/E9 numbers the roadmap
tracks across PRs and returns a flat ``{metric: value}`` dict.
``run_all.py --json`` writes the dict to disk (``BENCH_<tag>.json``).

Noise control: every *wall-clock* metric runs a few untimed warmups,
then ``repeats`` timed runs, and reports **min-of-k as the gated
value** -- the least-noisy point estimate on a shared host -- plus two
companion keys: ``<metric>_median`` and ``<metric>_spread_pct``
((max-min)/median, so a JSON reader can tell a real regression from a
noisy host).  Records up to BENCH_pr8.json gated on the median with
one warmup and 5 repeats; the E2 one-hop walls showed 117.8% spread
and E16 48.9% under that scheme, hence the switch (PR10) to min-of-k
with raised warmup/repeat floors for the wall rows.  Simulated-time
and wire-byte metrics are deterministic, carry no companions, and are
NOT affected by any of this.  ``repeats`` defaults from the
``REPRO_BENCH_REPEATS`` environment variable (5 if unset) and is
floored per wall row (see ``WALL_MIN_REPEATS``); ``only`` restricts
collection to experiment groups (e.g. ``{"e1", "e2"}``) for quick
local iteration.

The collector is feature-gated so the *same file* runs against older
checkouts: constructor keywords that do not exist yet (``batching``,
``code_cache``, the VM's ``engine``) are silently dropped,
which is how ``BENCH_seed.json`` was produced from the pre-code-cache
tree.

Metric glossary
---------------
- ``e1_counter_wall_us``  -- wall time of a 2000-step instantiation
  recursion on one VM (local hot path; no network involvement).
- ``e2_cross_node_sim_us`` / ``e2_same_node_sim_us`` -- simulated time
  per message for a 16-message one-hop burst.
- ``e4_fetch_cold_bytes``  -- wire bytes to FETCH a 40-pad class once.
- ``e4_fetch_warm_bytes``  -- wire bytes for 8 uses with all caches on.
- ``e4_refetch_bytes``     -- wire bytes for 12 sequential uses with the
  ClassRef (A2) cache *off*: every use re-runs the FETCH protocol for
  the same remote class.  This is the code-cache headline number.
- ``e4_ship_bytes``        -- wire bytes for 8 SHIPO uses of one applet.
- ``e9_msg_wire_bytes`` / ``e9_class_wire_bytes`` -- single-packet sizes.
- ``e9_burst_packets`` / ``e9_burst_bytes`` -- transport packets/bytes
  for a 32-message cross-node burst (default config).
- ``e9_burst_packets_nobatch`` -- same burst with wire batching
  disabled (equals ``e9_burst_packets`` on trees without batching).
- ``e10_churn_final_heap_on`` / ``e10_churn_peak_heap_on`` -- client
  heap size after (and at the peak of) ``e10_churn_cycles`` RPC
  rounds of export churn with the distributed GC on: bounded by the
  lease term, not the cycle count.
- ``e10_churn_final_heap_off`` -- same workload with distgc off; the
  conservative collector pins every exported id, so this grows
  linearly with the cycles.  Absent on pre-distgc trees.
- ``e14_pubsub_*`` / ``e15_mapreduce_*`` / ``e16_agents_*`` -- macro
  workload latency gates: ``_p50_us`` / ``_p99_us`` / ``_makespan_us``
  / ``_sim_ops_per_s`` are exact simulated values (pure functions of
  the workload spec; pinned bit-for-bit across PRs), ``_wall_ms`` is
  host time to run the same simulation.  Absent on trees predating
  ``repro.workloads``.
- ``e17_ckpt_bytes`` -- packed checkpoint blob for the quiesced E17
  pump server.  ``e17_cold_migrate_bytes`` / ``e17_warm_migrate_bytes``
  (and ``_sim_us``) -- wire bytes / virtual time for a cutover that
  ships code+state vs one whose destination already holds the code;
  the gap is ``e17_code_bytes_shipped``.  All simulator-exact; absent
  on trees predating ``repro.mobility``.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import time

from repro.compiler import compile_source
from repro.runtime import DiTyCONetwork
from repro.vm import TycoVM

from _workloads import applet_fetch_network, counter_loop, one_hop_network

#: (body_size, uses) of the repeated-FETCH workload; shared with the
#: tier-2 regression test in test_baseline.py.
REFETCH_BODY = 40
REFETCH_USES = 12


def _supported_kwargs(**kwargs) -> dict:
    """Keep only the DiTyCONetwork kwargs this checkout supports."""
    params = inspect.signature(DiTyCONetwork.__init__).parameters
    return {k: v for k, v in kwargs.items() if k in params}


def _vm_kwargs(**kwargs) -> dict:
    """Keep only the TycoVM kwargs this checkout supports (``engine``
    arrived with the predecoded dispatch engine)."""
    params = inspect.signature(TycoVM.__init__).parameters
    return {k: v for k, v in kwargs.items() if k in params}


def make_network(**kwargs) -> DiTyCONetwork:
    return DiTyCONetwork(**_supported_kwargs(**kwargs))


def default_repeats() -> int:
    """Timed-run count: REPRO_BENCH_REPEATS env or 5."""
    return int(os.environ.get("REPRO_BENCH_REPEATS", "5"))


#: Noise floors for the wall-clock rows (PR10).  The fast one-VM /
#: one-hop rows (E1, E2) are cheap, so they take a deep warmup and
#: many repeats; the macro workloads (E14-E16) cost ~a second per run,
#: so their floor is lower but still above the old 1x5 scheme that
#: produced BENCH_pr8.json's 117.8% E2 spread.
WALL_WARMUP = 3
WALL_MIN_REPEATS = 9
MACRO_WALL_WARMUP = 2
MACRO_WALL_MIN_REPEATS = 7


def _median(fn, repeats: int):
    return statistics.median(fn() for _ in range(repeats))


def _timed_runs(fn, repeats: int, warmup: int = 1) -> list[float]:
    """``warmup`` untimed runs (caches, allocator, branch predictors),
    then ``repeats`` timed runs."""
    for _ in range(warmup):
        fn()
    return [fn() for _ in range(repeats)]


def _wall_runs(fn, repeats: int, warmup: int = WALL_WARMUP,
               floor: int = WALL_MIN_REPEATS) -> list[float]:
    """Timed runs for a gated wall row: repeats never below the noise
    floor, deep warmup."""
    return _timed_runs(fn, max(repeats, floor), warmup)


def _put_timing(metrics: dict, key: str, values: list[float],
                ndigits: int = 1) -> None:
    """Store one wall-clock metric: min-of-k as the gated value (the
    stable point estimate on a noisy shared host), median and spread
    as companions for human readers."""
    med = statistics.median(values)
    metrics[key] = round(min(values), ndigits)
    metrics[key + "_median"] = round(med, ndigits)
    spread = ((max(values) - min(values)) / med * 100.0) if med else 0.0
    metrics[key + "_spread_pct"] = round(spread, 1)


def _e1_counter_wall_us(engine=None) -> float:
    program = compile_source(counter_loop(2000))
    start = time.perf_counter()
    vm = TycoVM(program, **_vm_kwargs(engine=engine))
    vm.boot()
    vm.run(50_000_000)
    assert vm.is_idle()
    return (time.perf_counter() - start) * 1e6


def _one_hop_sim_us(placement: str, n: int) -> float:
    net = one_hop_network(placement, n_messages=n)
    elapsed = net.run()
    return elapsed * 1e6 / n


def _one_hop_wall_us(placement: str, n: int) -> float:
    """Real (host) time per message for the one-hop burst.  The
    *simulated* metric above is pinned exactly across PRs -- it is a
    pure function of instruction counts -- so real-time dispatch wins
    show up here instead."""
    net = one_hop_network(placement, n_messages=n)
    start = time.perf_counter()
    net.run()
    return (time.perf_counter() - start) * 1e6 / n


def refetch_network(code_cache: bool = True) -> DiTyCONetwork:
    """The repeated-FETCH workload: ``REFETCH_USES`` sequential
    instantiations of the same remote class with the ClassRef cache
    disabled, so every use re-runs the FETCH protocol."""
    net = applet_fetch_network(REFETCH_BODY, REFETCH_USES)
    if not _supported_kwargs(code_cache=code_cache).get("code_cache", True):
        pass  # pre-code-cache tree: nothing to disable
    for node in net.world.nodes.values():
        node.fetch_cache = False
        for site in node.sites.values():
            site.fetch_cache = False
            if not code_cache and hasattr(site, "codecache"):
                site.codecache = None
    net.fetch_cache = False
    return net


def _refetch(code_cache: bool = True) -> tuple[float, int]:
    net = refetch_network(code_cache=code_cache)
    elapsed = net.run()
    assert net.site("client").output == [42]
    return elapsed, net.world.stats.bytes


def _fetch_bytes(body: int, uses: int) -> int:
    net = applet_fetch_network(body, uses)
    net.run()
    assert net.site("client").output == [42]
    return net.world.stats.bytes


def _ship_bytes(body: int, uses: int) -> int:
    from _workloads import applet_ship_network

    net = applet_ship_network(body, uses)
    net.run()
    assert net.site("client").output == [42]
    return net.world.stats.bytes


def _burst(batching: bool) -> tuple[int, int]:
    net = make_network(batching=batching)
    net.add_nodes(["n1", "n2"])
    receivers = " | ".join(f"(svc?(v{i}) = print![v{i}])" for i in range(32))
    net.launch("n1", "server", f"export new svc ({receivers})")
    sends = " | ".join(f"svc![{i}]" for i in range(32))
    net.launch("n2", "client", f"import svc from server in ({sends})")
    net.run()
    assert sorted(net.site("server").output) == list(range(32))
    return net.world.stats.packets, net.world.stats.bytes


def _macro_metrics(metrics: dict, group: str, bench_module: str,
                   repeats: int) -> None:
    """E14-E16: one deterministic sim run per macro workload (the
    latency distribution is a pure function of the spec, so p50/p99
    and the virtual makespan are pinned exactly across PRs) plus a
    wall-clock timing of the same run for host-speed regressions.
    Silently skipped on trees that predate ``repro.workloads``."""
    import importlib

    try:
        importlib.import_module("repro.workloads")
    except ImportError:
        return
    mod = importlib.import_module(bench_module)
    rep = mod.run()
    assert not rep.violations, f"{group}: {rep.violations}"
    s = rep.summary()
    prefix = f"{group}_{rep.spec.workload}"
    metrics[f"{prefix}_ops"] = s["completed"]
    metrics[f"{prefix}_p50_us"] = s["p50_us"]
    metrics[f"{prefix}_p99_us"] = s["p99_us"]
    metrics[f"{prefix}_makespan_us"] = s["makespan_us"]
    metrics[f"{prefix}_sim_ops_per_s"] = s["throughput_ops_per_s"]

    def timed() -> float:
        start = time.perf_counter()
        mod.run()
        return (time.perf_counter() - start) * 1e3

    _put_timing(metrics, f"{prefix}_wall_ms",
                _wall_runs(timed, repeats, warmup=MACRO_WALL_WARMUP,
                           floor=MACRO_WALL_MIN_REPEATS))


def _e17_metrics(metrics: dict) -> None:
    """E17: live-migration cutover costs -- checkpoint blob size, wire
    bytes and virtual time for a cold (code + state) and a warm
    (state-only) cutover of the same site.  All simulator-exact.
    Silently skipped on trees that predate ``repro.mobility``."""
    import importlib

    try:
        importlib.import_module("repro.mobility")
    except ImportError:
        return
    r = importlib.import_module("bench_e17_migration").run()
    metrics["e17_ckpt_bytes"] = r["ckpt_bytes"]
    metrics["e17_cold_migrate_bytes"] = r["cold_bytes"]
    metrics["e17_cold_migrate_sim_us"] = r["cold_sim_us"]
    metrics["e17_warm_migrate_bytes"] = r["warm_bytes"]
    metrics["e17_warm_migrate_sim_us"] = r["warm_sim_us"]
    metrics["e17_code_bytes_shipped"] = r["code_bytes"]
    metrics["e17_state_bytes_shipped"] = r["state_bytes"]


#: Experiment groups ``collect_metrics(only=...)`` understands.
GROUPS = ("e1", "e2", "e4", "e9", "e10", "e14", "e15", "e16", "e17")


def collect_metrics(repeats: int | None = None,
                    only: set[str] | None = None) -> dict:
    if repeats is None:
        repeats = default_repeats()
    if only is not None:
        unknown = set(only) - set(GROUPS)
        if unknown:
            raise ValueError(f"unknown benchmark groups: {sorted(unknown)} "
                             f"(choose from {', '.join(GROUPS)})")

    def want(group: str) -> bool:
        return only is None or group in only

    metrics: dict[str, float | int] = {}
    if want("e1"):
        _put_timing(metrics, "e1_counter_wall_us",
                    _wall_runs(_e1_counter_wall_us, repeats))
    if want("e2"):
        metrics["e2_cross_node_sim_us"] = round(_median(
            lambda: _one_hop_sim_us("cross-node", 16), repeats), 4)
        metrics["e2_same_node_sim_us"] = round(_median(
            lambda: _one_hop_sim_us("same-node", 16), repeats), 4)
        _put_timing(metrics, "e2_cross_node_wall_us", _wall_runs(
            lambda: _one_hop_wall_us("cross-node", 16), repeats))
        _put_timing(metrics, "e2_same_node_wall_us", _wall_runs(
            lambda: _one_hop_wall_us("same-node", 16), repeats))
    if want("e4"):
        metrics["e4_fetch_cold_bytes"] = int(_median(
            lambda: _fetch_bytes(REFETCH_BODY, 1), repeats))
        metrics["e4_fetch_warm_bytes"] = int(_median(
            lambda: _fetch_bytes(REFETCH_BODY, 8), repeats))
        refetch = [_refetch() for _ in range(repeats)]
        metrics["e4_refetch_sim_us"] = round(
            statistics.median(t for t, _ in refetch) * 1e6, 2)
        metrics["e4_refetch_bytes"] = int(
            statistics.median(b for _, b in refetch))
        metrics["e4_ship_bytes"] = int(_median(
            lambda: _ship_bytes(REFETCH_BODY, 8), repeats))

    if want("e9"):
        from bench_e9_wire import class_packet, message_packet

        metrics["e9_msg_wire_bytes"] = message_packet().wire_size()
        metrics["e9_class_wire_bytes"] = class_packet(16).wire_size()
        batched = [_burst(batching=True) for _ in range(repeats)]
        unbatched = [_burst(batching=False) for _ in range(repeats)]
        metrics["e9_burst_packets"] = int(
            statistics.median(p for p, _ in batched))
        metrics["e9_burst_bytes"] = int(
            statistics.median(b for _, b in batched))
        metrics["e9_burst_packets_nobatch"] = int(
            statistics.median(p for p, _ in unbatched))

    # pre-distgc trees skip these
    if want("e10") and _supported_kwargs(distgc=True):
        from bench_e10_distgc import run_churn

        cycles = 10_000  # one run per arm: the shape, not the timing
        on = run_churn(cycles, distgc=True)
        off = run_churn(cycles, distgc=False)
        metrics["e10_churn_cycles"] = cycles
        metrics["e10_churn_final_heap_on"] = on["final_heap"]
        metrics["e10_churn_peak_heap_on"] = on["peak_heap"]
        metrics["e10_churn_reclaimed_on"] = on["reclaimed"]
        metrics["e10_churn_final_heap_off"] = off["final_heap"]

    if want("e14"):
        _macro_metrics(metrics, "e14", "bench_e14_pubsub", repeats)
    if want("e15"):
        _macro_metrics(metrics, "e15", "bench_e15_mapreduce", repeats)
    if want("e16"):
        _macro_metrics(metrics, "e16", "bench_e16_agents", repeats)
    if want("e17"):
        _e17_metrics(metrics)
    return metrics


def write_json(path: str, repeats: int | None = None,
               only: set[str] | None = None) -> dict:
    metrics = collect_metrics(repeats, only=only)
    with open(path, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return metrics


if __name__ == "__main__":
    import sys

    out = sys.argv[1] if len(sys.argv) > 1 else "BENCH.json"
    for key, value in sorted(write_json(out).items()):
        print(f"{key}: {value}")
