"""Differential harness: a launch out of the caches vs a launch in full.

A known shape is instantiated from its template -- no token built,
literal-free plans shared, literal plans patched -- and a stored slice
is handed out already linked and decoded (docs/PERF.md, "Launch path"
and "Code movement").  All of that is cost, never behaviour: here the
three macro workloads run once as shipped and once with the template
threshold out of reach and the store's linked slot bypassed, so that
every op parses, compiles, decodes and links in full, under both
engines -- and nothing a run can observe may differ: outputs, virtual
time, every latency sample, per-site ``VMStats`` and context switches,
packets and bytes.
"""

from dataclasses import astuple

import pytest

from repro.runtime import DiTyCONetwork, launch
from repro.runtime.codecache import CodeStore, link_bundle_cached
from repro.runtime.node import Node
from repro.workloads import WorkloadSpec, run_workload
from repro.workloads import runner

pytestmark = pytest.mark.slow


def link_in_full(self, digest, program, cache):
    """``CodeStore.link`` without the linked slot."""
    entry = self.get(digest)
    return None if entry is None else link_bundle_cached(program, *entry,
                                                         cache)


def record(monkeypatch, workload, engine, in_full):
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
        sites[site.site_name] = (astuple(site.vm.stats),
                                 site.vm.runqueue.context_switches,
                                 tuple(site.output))

    with monkeypatch.context() as patch:
        patch.setenv("REPRO_VM_ENGINE", engine)
        patch.setattr(runner, "DiTyCONetwork", Net)
        patch.setattr(Node, "remove_site", remove_site)
        if in_full:
            patch.setattr(launch, "TEMPLATE_ON_SIGHTING", 10 ** 9)
            patch.setattr(CodeStore, "link", link_in_full)
        report = run_workload(WorkloadSpec(workload, seed=7, ops=300))
    (net,) = nets
    hits = linked = 0
    for node in net.world.nodes.values():
        hits += node.tycoi.launch.stats.hits
        linked += len(node.codestore._linked)
        for site in node.sites.values():
            counts(site)
    assert report.violations == []
    assert len(sites) > 300, "reaped sites are part of the record"
    # The two sides really are the two paths.
    assert (hits == 0 and linked == 0) if in_full else hits > 250
    return {"time": net.world.time, "makespan": report.makespan_s,
            "latencies": report.latencies, "sites": sites,
            "packets": net.world.stats.packets,
            "bytes": net.world.stats.bytes,
            "deliveries": net.world.deliveries,
            "compute_time": net.world.compute_time}


@pytest.mark.parametrize("engine", ["compiled", "slow"])
@pytest.mark.parametrize("workload", ["pubsub", "mapreduce", "agents"])
def test_macro_workloads_identical_cached_and_in_full(workload, engine,
                                                      monkeypatch):
    production = record(monkeypatch, workload, engine, in_full=False)
    reference = record(monkeypatch, workload, engine, in_full=True)
    assert production == reference


def test_mapreduce_task_sites_share_their_linked_class(monkeypatch):
    # The differential above would pass with the slot never used.
    used = []
    real_link = CodeStore.link

    def link(self, digest, program, cache):
        before = self._linked.get(digest)
        result = real_link(self, digest, program, cache)
        used.append(before is not None and result is before.result)
        return result

    monkeypatch.setattr(CodeStore, "link", link)
    run_workload(WorkloadSpec("mapreduce", seed=7, ops=300))
    assert len(used) > 290 and used.count(False) <= 4
