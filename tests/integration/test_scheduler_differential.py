"""Differential harness: ``Node.step`` vs a walk that visits every site.

``Node.step`` calls ``Site.step`` only on sites that have mail or a
runnable thread when the walk reaches them, and returns at the door
when the whole node has nothing to do (docs/PERF.md, "The stepping
shell").  That is a cost decision, never a scheduling one: pool order
and the ``quantum // len(sites)`` budget are untouched, and stepping an
idle site executes nothing.  :func:`reference_step` below is the walk
without the shortcut -- every site, every quantum -- and this file
checks that swapping it in changes nothing a run can observe: outputs,
virtual time, per-site instruction and context-switch counts, packets,
bytes and every latency sample, over the chaos corpus (distributed GC
and migration entries included), the example sessions and the three
macro workloads with reaping.
"""

from pathlib import Path

import pytest

from repro.runtime import DiTyCONetwork, TycoShell
from repro.runtime.node import Node, NodeStepReport
from repro.testkit import run_scenario
from repro.workloads import WorkloadSpec, run_workload
from repro.workloads import runner

from tests.integration.test_engine_differential import _chaos_record
from tests.testkit.corpus import CORPUS
from tests.testkit.scenarios import SCENARIOS

pytestmark = pytest.mark.slow

PROGRAMS = Path(__file__).resolve().parents[2] / "examples" / "programs"
SESSIONS = {"applet_network": ["n1", "n2"],
            "migrate_network": ["n1", "n2", "n3"]}


def reference_step(self, quantum=256):
    """``Node.step`` without the visit test and the early return."""
    self._in_step = True
    try:
        moved = self.tycod.pump()
        executed = switches = 0
        sites = list(self.sites.values())
        for site in sites:
            before = site.vm.runqueue.context_switches
            executed += site.step(max(1, quantum // len(sites)))
            switches += site.vm.runqueue.context_switches - before
        if self.distgc and self.sites:
            now = self.now()
            if now >= self._next_sweep:
                self._next_sweep = now + self._gc_sweep_s
                for site in list(self.sites.values()):
                    site.run_distgc(now)
        if self.mobility is not None:
            moved += self.mobility.process_inbox()
        moved += self.tycod.pump()
    finally:
        self._in_step = False
        self.flush_batches()
    return NodeStepReport(executed, switches, moved)


def both_walks(monkeypatch, record):
    """``record()`` under the production walk, then the reference."""
    production = record()
    monkeypatch.setattr(Node, "step", reference_step)
    reference = record()
    monkeypatch.undo()
    return production, reference


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_schedules_identical_across_walks(entry, monkeypatch):
    production, reference = both_walks(
        monkeypatch, lambda: _chaos_record(run_scenario(
            SCENARIOS[entry.scenario], entry.seed, entry.config)))
    assert production == reference, entry.name


@pytest.mark.parametrize("session", sorted(SESSIONS))
def test_example_sessions_identical_across_walks(session, monkeypatch):
    text = (PROGRAMS / f"{session}.tycosh").read_text()

    def scenario(net):
        net.add_nodes(SESSIONS[session])
        TycoShell(net, write=lambda line: None).execute_script(text)

    production, reference = both_walks(
        monkeypatch, lambda: _chaos_record(run_scenario(scenario)))
    assert production == reference


@pytest.mark.parametrize("workload", ["pubsub", "mapreduce", "agents"])
def test_macro_workloads_identical_across_walks(workload, monkeypatch):
    def record():
        nets, sites = [], {}

        class Net(DiTyCONetwork):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                nets.append(self)

        real_remove = Node.remove_site

        def remove_site(node, site):
            counts(site)
            real_remove(node, site)

        def counts(site):
            # One op name is one site: a reaped name is never reused.
            assert site.site_name not in sites
            sites[site.site_name] = (site.vm.stats.instructions,
                                     site.vm.runqueue.context_switches,
                                     tuple(site.output))

        with monkeypatch.context() as patch:
            patch.setattr(runner, "DiTyCONetwork", Net)
            patch.setattr(Node, "remove_site", remove_site)
            report = run_workload(WorkloadSpec(workload, seed=7, ops=200))
        (net,) = nets
        for node in net.world.nodes.values():
            for site in node.sites.values():
                counts(site)
        assert report.violations == []
        assert len(sites) > 200, "reaped sites are part of the record"
        return {"time": net.world.time, "makespan": report.makespan_s,
                "latencies": report.latencies, "sites": sites,
                "packets": net.world.stats.packets,
                "bytes": net.world.stats.bytes,
                "deliveries": net.world.deliveries,
                "compute_time": net.world.compute_time}

    production, reference = both_walks(monkeypatch, record)
    assert production == reference
