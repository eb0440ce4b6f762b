"""E16 -- macro workload: the mobile-agent pipeline.

Each seeded ``tour`` operation hops an agent through a prefix of the
stage sites *sequentially* (remote evaluation), then FETCHes the
``Finish`` class (code on demand) to fold what it collected.  Tours
have mixed lengths, so this is the workload with real dependency
chains -- the tail (p99) stretches with the hop count while the median
stays short.  Sim p50/p99 are regression-gated exactly;
``REPRO_BENCH_WALL_WORLDS=1`` appends a socket-world row.
"""

import os

from repro.workloads import WorkloadSpec, run_workload

from bench_e14_pubsub import summary_rows

SPEC = WorkloadSpec("agents", seed=16, ops=120, rate_per_s=20_000.0,
                    nodes=3, stages=4)

WALL_SPEC = WorkloadSpec("agents", seed=16, ops=24, rate_per_s=400.0,
                         nodes=3, stages=4)


def run(world: str = "sim", spec: WorkloadSpec = SPEC):
    return run_workload(spec if world == "sim" else WALL_SPEC, world=world)


class TestAgentsMacro:
    def test_every_tour_completes(self):
        rep = run()
        assert rep.violations == []
        assert rep.ops_completed == SPEC.ops

    def test_sim_run_is_deterministic(self):
        a, b = run(), run()
        assert a.summary() == b.summary()
        assert a.registry.render() == b.registry.render()

    def test_tail_stretches_with_hop_count(self):
        # Mixed tour lengths: the longest chains dominate the tail, so
        # p99 must sit strictly above the median.
        rep = run()
        assert rep.percentile(99) > rep.percentile(50)


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
