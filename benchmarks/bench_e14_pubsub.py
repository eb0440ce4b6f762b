"""E14 -- macro workload: the pub/sub chat fabric under open-loop load.

A 2-topic, 8-subscriber fabric over three nodes takes a seeded
publish/ping mix (`repro.workloads`); every operation is stopwatched
from injection to its completion token reaching the collector.  On the
simulator the whole latency distribution is a pure function of the
spec, so p50/p99 are regression-gated exactly; set
``REPRO_BENCH_WALL_WORLDS=1`` to append a real socket-world row.
"""

import os

from repro.workloads import WorkloadSpec, run_workload

SPEC = WorkloadSpec("pubsub", seed=14, ops=120, rate_per_s=20_000.0,
                    nodes=3, topics=2, subscribers=4)

#: Smoke-sized spec for the wall-clock rows (sleep-paced injection).
WALL_SPEC = WorkloadSpec("pubsub", seed=14, ops=24, rate_per_s=400.0,
                         nodes=3, topics=2, subscribers=4)


def run(world: str = "sim", spec: WorkloadSpec = SPEC):
    return run_workload(spec if world == "sim" else WALL_SPEC, world=world)


def summary_rows(rep) -> list[dict]:
    """One 'all ops' headline row plus a row per op type."""
    s = rep.summary()
    rows = [{"op": "all", "count": s["completed"],
             "p50_us": s["p50_us"], "p90_us": None, "p99_us": s["p99_us"],
             "max_us": _us(max(rep.all_latencies(), default=None)),
             "makespan_us": s["makespan_us"],
             "ops_per_s": s["throughput_ops_per_s"],
             "world": rep.world}]
    for op in sorted(s["per_op"]):
        rows.append({"op": op, **s["per_op"][op], "makespan_us": None,
                     "ops_per_s": None, "world": rep.world})
    return rows


def _us(seconds):
    return None if seconds is None else round(seconds * 1e6, 3)


class TestPubSubMacro:
    def test_all_ops_complete_with_expected_effects(self):
        rep = run()
        assert rep.violations == []
        assert rep.ops_completed == SPEC.ops

    def test_sim_run_is_deterministic(self):
        a, b = run(), run()
        assert a.summary() == b.summary()
        assert a.registry.render() == b.registry.render()

    def test_latency_lands_in_registry_histogram(self):
        rep = run()
        text = rep.registry.render()
        assert 'repro_workload_latency_seconds_count' \
            '{workload="pubsub",op="publish"}' in text

    def test_fanout_costs_more_than_ping(self):
        # A publish fans out to every subscriber before acking the
        # publisher is wrong -- the ack races the fan-out -- but the
        # hub does strictly more work per publish, so the publish
        # median cannot be *cheaper* than the ping median.
        rep = run()
        assert rep.percentile(50, "publish") >= rep.percentile(50, "ping")


def test_wall_worlds_complete():
    rep = run(world="socket")
    assert rep.violations == []
    assert rep.ops_completed == WALL_SPEC.ops


def report() -> list[dict]:
    rows = summary_rows(run())
    if os.environ.get("REPRO_BENCH_WALL_WORLDS"):
        rows.extend(summary_rows(run(world="socket")))
    return rows


if __name__ == "__main__":
    for row in report():
        print(row)
