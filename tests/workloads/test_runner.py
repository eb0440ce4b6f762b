"""The open-loop runner end to end on the simulator (plus one
socket-world smoke): completion, correctness of effects, latency
recording, and same-(spec, seed) bit-determinism.
"""

import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.workloads import (WorkloadError, WorkloadSpec, expected_outputs,
                             run_workload)

SPECS = {
    "pubsub": WorkloadSpec("pubsub", seed=11, ops=30, rate_per_s=8000.0,
                           nodes=3, topics=2, subscribers=3),
    "mapreduce": WorkloadSpec("mapreduce", seed=12, ops=30,
                              rate_per_s=8000.0, nodes=3, workers=2),
    "agents": WorkloadSpec("agents", seed=13, ops=30, rate_per_s=8000.0,
                           nodes=3, stages=3),
}


@pytest.fixture(scope="module")
def reports():
    return {name: run_workload(spec) for name, spec in SPECS.items()}


class TestSimRuns:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_all_ops_complete_without_violations(self, reports, name):
        rep = reports[name]
        assert rep.violations == []
        assert rep.ops_completed == SPECS[name].ops
        assert rep.makespan_s > 0

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_latencies_are_nonnegative_and_ordered(self, reports, name):
        # Zero is legitimate: an op whose client, hub and collector all
        # share a node runs entirely on the local fast path, advancing
        # no virtual time.  Negative would mean a broken stopwatch.
        rep = reports[name]
        assert all(s >= 0 for s in rep.all_latencies())
        assert rep.percentile(50) <= rep.percentile(99)
        assert rep.percentile(100) == max(rep.all_latencies())

    def test_mapreduce_probe_reads_exact_total(self, reports):
        spec = SPECS["mapreduce"]
        want = expected_outputs(spec)["probe"]
        # The runner already checked this (violations == []); re-derive
        # the arithmetic here so the oracle itself is anchored.
        from repro.workloads import generate_trace

        assert want == (sum(a.key ** 2 for a in generate_trace(spec)),)

    def test_latency_histogram_lands_in_registry(self, reports):
        text = reports["pubsub"].registry.render()
        assert "repro_workload_latency_seconds" in text
        assert 'repro_workload_ops_total{workload="pubsub",op="publish"}' \
            in text
        assert 'repro_workload_makespan_seconds{workload="pubsub"}' in text

    def test_registry_percentiles_agree_with_exact_samples(self, reports):
        # The bucketed histogram estimate must bracket reality: within
        # one geometric bucket (4x) of the exact nearest-rank value.
        rep = reports["pubsub"]
        fam = rep.registry._families["repro_workload_latency_seconds"]
        hist = fam.series[("pubsub", "publish")]
        exact = rep.percentile(50, "publish")
        est = hist.percentile(50)
        assert exact / 4 <= est <= exact * 4


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_same_spec_same_everything(self, reports, name):
        rerun = run_workload(SPECS[name])
        rep = reports[name]
        assert rerun.latencies == rep.latencies      # exact float equality
        assert rerun.summary() == rep.summary()
        assert rerun.registry.render() == rep.registry.render()

    def test_reap_cadence_never_changes_answers(self, monkeypatch):
        # Reaping drained op sites shifts the per-site scheduling
        # quantum, so *timings* legitimately move with the cadence --
        # which is why the runner pins one.  The observable answers
        # must not move at all.
        spec = SPECS["pubsub"]
        monkeypatch.setattr("repro.workloads.runner.REAP_EVERY", 4)
        a = run_workload(spec)
        monkeypatch.setattr("repro.workloads.runner.REAP_EVERY", 0)
        b = run_workload(spec)                        # never reap
        assert a.violations == b.violations == []
        assert a.ops_completed == b.ops_completed == spec.ops


class TestRunnerEdges:
    def test_unknown_world_rejected(self):
        for kind in ("quantum", "threaded"):
            with pytest.raises(WorkloadError, match="unknown world"):
                run_workload(SPECS["pubsub"], world=kind)

    def test_cli_offers_the_two_worlds_only(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["workload", "pubsub", "--world", "threaded"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'threaded'" in capsys.readouterr().err

    def test_external_registry_is_used(self):
        registry = MetricsRegistry()
        rep = run_workload(SPECS["agents"], registry=registry)
        assert rep.registry is registry
        assert "repro_workload_latency_seconds" in registry.render()

    def test_summary_is_json_shaped(self, reports):
        import json

        s = reports["agents"].summary()
        assert json.loads(json.dumps(s)) == s
        assert s["completed"] == s["ops"]
        assert s["violations"] == []


def run_keeping_net(monkeypatch, workload, ops, world="sim"):
    """`run_workload` (checked clean), returning the network it built."""
    from repro.runtime import DiTyCONetwork
    from repro.workloads import runner

    made = []

    class Recording(DiTyCONetwork):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(runner, "DiTyCONetwork", Recording)
    spec = WorkloadSpec(workload, seed=11, ops=ops, rate_per_s=8000.0,
                        nodes=3, topics=2, subscribers=3)
    report = run_workload(spec, world=world)
    assert report.violations == [] and report.ops_completed == ops
    return made[0]


class TestNameServiceFanOut:
    """A registration wakes the nodes that exist, not every site ever
    launched -- counts that repeat exactly, not timings."""

    def test_fan_out_per_registration_is_the_node_count(self, monkeypatch):
        deficits = []
        for ops in (300, 1200):
            net = run_keeping_net(monkeypatch, "pubsub", ops)
            stats = net.nameservice.stats
            registrations = (stats.site_registrations
                             + stats.name_registrations
                             + stats.class_registrations)
            nodes = len(net.world.nodes)
            assert registrations > ops
            assert stats.wakeups / registrations <= nodes
            # Registrations made before every node had subscribed (the
            # fabric's first launches) woke fewer than ``nodes``.
            deficits.append(nodes * registrations - stats.wakeups)
        # The shortfall is that set-up constant, whatever the run
        # length: every traffic-window registration woke exactly
        # ``nodes`` callbacks at 300 ops and at 1200.
        assert deficits[0] == deficits[1]

    def test_reaped_sites_leave_nothing_behind(self, monkeypatch):
        net = run_keeping_net(monkeypatch, "pubsub", 300)
        for node in net.world.nodes.values():
            node.tycoi.reap()
            assert len(node.sites_by_name) == len(node.sites)
            assert set(node.sites_by_name.values()) == set(node.sites.values())
            assert not any(name.startswith("op") for name in node.sites_by_name)
        assert len(net.nameservice._subscribers) == len(net.world.nodes)


class TestLaunchCache:
    """Compiles per run are a constant of the workload, not of its
    length -- counts that repeat exactly, not timings."""

    @pytest.mark.parametrize("workload, shapes, fabric", [
        # fabric: set-up and post-phase sites, each a shape of its own
        # seen once (6 subscribers + collector + 2 hubs; master +
        # collector + probe).
        ("pubsub", 4, 9), ("mapreduce", 1, 3)])
    def test_misses_do_not_grow_with_ops(self, monkeypatch, workload,
                                         shapes, fabric):
        misses = []
        for ops in (300, 1200):
            net = run_keeping_net(monkeypatch, workload, ops)
            nodes = net.world.nodes.values()
            for node in nodes:
                stats = node.tycoi.launch.stats
                assert stats.hits + stats.misses == node.tycoi.submissions
                assert stats.untemplatable == stats.evictions == 0
            assert sum(n.tycoi.submissions for n in nodes) == ops + fabric
            misses.append(sum(n.tycoi.launch.stats.misses for n in nodes))
            # An op shape costs a node two compiles (first sighting,
            # template), however many ops follow.
            assert misses[-1] - fabric <= 2 * shapes * len(nodes)
        assert misses[0] == misses[1]

    def test_summary_does_not_depend_on_what_the_process_ran_before(self):
        # A cold interpreter vs. this one (warm caches, advanced name
        # serials), and this one twice.
        import json
        import subprocess
        import sys
        from pathlib import Path

        code = ("import json; "
                "from repro.workloads import WorkloadSpec, run_workload; "
                "print(json.dumps(run_workload(WorkloadSpec("
                "'mapreduce', seed=7, ops=300)).summary(), sort_keys=True))")
        src = str(Path(__file__).resolve().parents[2] / "src")
        cold = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env={"PYTHONPATH": src}).stdout.strip()
        spec = WorkloadSpec("mapreduce", seed=7, ops=300)
        warm = [json.dumps(run_workload(spec).summary(), sort_keys=True)
                for _ in range(2)]
        assert warm[0] == warm[1] == cold


class TestCodeStore:
    """A class is downloaded once per node, not once per task site --
    counts that repeat exactly, not timings."""

    @staticmethod
    def _probes(monkeypatch, workload, ops):
        """(hits, misses) over every site that ever lived: reaped
        sites are counted as they leave their node."""
        from repro.runtime.node import Node

        totals = [0, 0]

        def count(site):
            totals[0] += site.stats.code_cache_hits
            totals[1] += site.stats.code_cache_misses

        real_remove = Node.remove_site

        def remove_site(node, site):
            count(site)
            real_remove(node, site)

        monkeypatch.setattr(Node, "remove_site", remove_site)
        net = run_keeping_net(monkeypatch, workload, ops)
        for node in net.world.nodes.values():
            for site in node.sites.values():
                count(site)
        return net, totals

    def test_downloads_do_not_grow_with_ops(self, monkeypatch):
        misses = []
        for ops in (300, 1200):
            net, (hits, missed) = self._probes(monkeypatch, "mapreduce", ops)
            nodes = net.world.nodes.values()
            assert hits + missed == ops          # one FETCH per task
            assert missed <= 2 * len(nodes)
            # One slice (MapTask), on the master and on each worker
            # node that downloaded it: O(distinct code), not O(ops).
            assert all(len(node.codestore) <= 1 for node in nodes)
            misses.append(missed)
        assert misses[0] == misses[1]

    def test_a_workload_that_moves_no_code_never_probes(self, monkeypatch):
        net, totals = self._probes(monkeypatch, "pubsub", 300)
        assert totals == [0, 0]
        assert all(len(node.codestore) == 0
                   for node in net.world.nodes.values())


WALL_SPEC = WorkloadSpec("pubsub", seed=21, ops=10, rate_per_s=500.0,
                         nodes=2, topics=1, subscribers=2)


def test_socket_world_smoke():
    rep = run_workload(WALL_SPEC, world="socket", max_time=20.0)
    assert rep.violations == []
    assert rep.ops_completed == WALL_SPEC.ops
    assert all(s > 0 for s in rep.all_latencies())


def test_wall_world_leaves_no_threads():
    before = set(threading.enumerate())
    run_workload(WALL_SPEC, world="socket", max_time=20.0)
    leaked = [t.name for t in threading.enumerate()
              if t not in before and t.name.startswith("dityco-")]
    assert leaked == []


def test_wall_world_reaps(monkeypatch):
    # The runner reaps every 32 arrivals on the socket world too, on
    # the loop that steps the nodes: the SiteTable holds the live sites
    # and no more, and they are a window of the run, not all of it.
    net = run_keeping_net(monkeypatch, "pubsub", 300, world="socket")
    live = {name for node in net.world.nodes.values()
            for name in node.sites_by_name}
    assert set(net.nameservice.snapshot()["sites"]) == live
    assert len(live) < 64


def test_wall_world_balances_and_watches_on_the_world_timer(monkeypatch):
    # Balancer ticks and SLO checks ride the world's timer on sockets
    # as on the simulator: the tick count follows from the interval,
    # and the watchdog checks the four quarter points plus the drain.
    from repro.mobility import balancer as balancer_module
    from repro.obs import slo as slo_module
    from repro.obs.slo import SLOSpec
    from repro.workloads import generate_trace

    made = {}

    def recording(cls, key):
        class Recording(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made[key] = self
        return Recording

    monkeypatch.setattr(balancer_module, "LoadBalancer",
                        recording(balancer_module.LoadBalancer, "balancer"))
    monkeypatch.setattr(slo_module, "SLOWatchdog",
                        recording(slo_module.SLOWatchdog, "watchdog"))
    span = generate_trace(WALL_SPEC)[-1].at_us * 1e-6
    slo = SLOSpec.from_dict({"rules": [
        {"op": "*", "percentile": 99.0, "max_latency_us": 1e9},
        {"min_throughput_ops_per_s": 0.001}]})
    # Ticks at 1..4 intervals: the last one, 4.5 intervals in, would
    # pass the window's end (span + one interval).
    rep = run_workload(WALL_SPEC, world="socket", max_time=20.0,
                       balance=True, balance_interval=span / 3.5, slo=slo)
    assert rep.violations == []
    assert rep.ops_completed == WALL_SPEC.ops
    assert rep.slo_breaches == []
    assert rep.balance_decisions == made["balancer"].decisions
    assert made["balancer"].ticks == 4
    assert made["watchdog"].checks == 5
