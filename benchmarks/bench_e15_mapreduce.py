"""E15 -- macro workload: map-reduce with FETCH code movement.

Seeded map tasks land open-loop on the worker nodes; each task site
FETCHes the ``MapTask`` class from the master (code moves to the data,
the paper's SETI pattern), folds its chunk into the shared reducer and
reports completion.  The end-state check is exact: the reducer's final
total must equal ``sum(chunk^2)`` over the generated trace, whatever
the interleaving.  Sim p50/p99 are regression-gated exactly;
``REPRO_BENCH_WALL_WORLDS=1`` appends a socket-world row.
"""

import os

from repro.workloads import WorkloadSpec, run_workload
from repro.workloads.mapreduce import PROBE_SITE

from bench_e14_pubsub import summary_rows

SPEC = WorkloadSpec("mapreduce", seed=15, ops=120, rate_per_s=20_000.0,
                    nodes=3, workers=2)

WALL_SPEC = WorkloadSpec("mapreduce", seed=15, ops=24, rate_per_s=400.0,
                         nodes=3, workers=2)


def run(world: str = "sim", spec: WorkloadSpec = SPEC):
    return run_workload(spec if world == "sim" else WALL_SPEC, world=world)


class TestMapReduceMacro:
    def test_every_task_folds_exactly_once(self):
        rep = run()
        assert rep.violations == []           # includes the probe total
        assert rep.ops_completed == SPEC.ops

    def test_probe_reads_the_expected_total(self):
        from repro.workloads import expected_outputs

        want = expected_outputs(SPEC)[PROBE_SITE]
        assert len(want) == 1 and want[0] > 0

    def test_sim_run_is_deterministic(self):
        a, b = run(), run()
        assert a.summary() == b.summary()
        assert a.registry.render() == b.registry.render()


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
