"""Every switch at macro scale: `typecheck`, `distgc` (with the
runner's default reaping), `obs.tracing`, and all three together, on
each workload.

A switch does not pick the machinery: a typed submission goes through
the launch cache, a traced run is on the production engine, and a
reaped site leaves the cluster -- its lease traffic is dropped at the
node and its SiteTable row is gone -- so each cell completes with the
expected outputs.

Not covered, and the next thing `typecheck` x `balance` hits: a typed
site cannot be checkpointed (`mobility/checkpoint.py` refuses a site
with signatures), so the balancer cannot move one -- ROADMAP items
1b / 3.
"""

import pytest

from repro.workloads import WorkloadSpec, run_workload

from tests.workloads.switches import force

OPS = 300
CELLS = {"typecheck": {"typecheck": True}, "distgc": {"distgc": True},
         "tracing": {"tracing": True},
         "typecheck+distgc+tracing": {"typecheck": True, "distgc": True,
                                      "tracing": True}}


@pytest.mark.parametrize("workload", ["pubsub", "mapreduce", "agents"])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_every_switch_at_macro_scale(monkeypatch, cell, workload):
    switches = CELLS[cell]
    made = force(monkeypatch, **switches)
    report = run_workload(WorkloadSpec(workload=workload, ops=OPS, seed=7))
    (net,) = made
    nodes = list(net.world.nodes.values())
    assert report.violations == [] and report.ops_completed == OPS
    if switches.get("typecheck"):
        hits = sum(node.tycoi.launch.stats.hits for node in nodes)
        submissions = sum(node.tycoi.submissions for node in nodes)
        assert submissions > OPS and hits >= 0.8 * submissions
    if switches.get("distgc"):
        # Reaped sites' lease traffic arrives late and is dropped at
        # the node, not raised out of the world.
        assert sum(node.tycod.stats.orphan_refs_dropped for node in nodes) > 0
    if switches.get("tracing"):
        kinds = {event.kind for event in net.collector.events}
        assert "heap" in kinds and not {"comm", "inst"} & kinds
    # A reaped site leaves the name service: the SiteTable is the
    # sites the node pools run, whatever was switched on.
    live = {site.site_name for node in nodes for site in node.sites.values()}
    assert set(net.nameservice.snapshot()["sites"]) == live
    assert len(live) < 40                  # ... and reaping did run
