"""Cross-world differential testing: the same program must reach the
same final observable state on the deterministic simulator
(:class:`SimWorld`) and on real TCP (:class:`SocketWorld`).

Two tiers of strictness:

* **Phased example programs** -- each phase is launched only after the
  previous one reached quiescence, so imports resolve on their first
  execution (no import-stall retries, which re-execute the IMPORT
  instruction and would make counts timing-dependent).  These compare
  *everything*: printed outputs, name-service export tables, heap
  export pins, and per-site VMStats instruction counts.

* **Unphased corpus scenarios** (echo/pump/applet from the chaos
  corpus, fault-free) -- concurrent launches race their imports, so
  instruction counts legitimately differ; outputs and export tables
  must still agree exactly.
"""

from collections import Counter

import pytest

from repro.obs import TraceCollector
from repro.runtime import DiTyCONetwork
from repro.transport import SocketWorld

from ..testkit.scenarios import SCENARIOS

WORLDS = ["sim", "socket"]

#: name -> list of phases; a phase is [(ip, site_name, source), ...].
#: Sources follow the paper's examples: service calls (code shipping)
#: and applet instantiation (code fetching).
PROGRAMS = {
    "ping": [
        [("n1", "server", "export new svc svc?(r) = r![7]")],
        [("n2", "client",
          "import svc from server in new a (svc![a] | a?(w) = print![w])")],
    ],
    "fetch-twice": [
        [("n1", "server", "export def Applet(out) = out![6 * 7] in 0")],
        [("n2", "client",
          "import Applet from server in "
          "(new v (Applet[v] | v?(w) = print![w]) "
          "| new u (Applet[u] | u?(x) = print![x]))")],
    ],
    "pump-two-clients": [
        [("hub", "server", """
          export new svc
          def Pump(self) = self?{ call(reply, tag) = (reply![tag] | Pump[self]) }
          in Pump[svc]
          """)],
        [("c0", "client0",
          "import svc from server in new a (svc!call[a, 10] | a?(v) = print![v])"),
         ("c1", "client1",
          "import svc from server in new a (svc!call[a, 11] | a?(v) = print![v])")],
    ],
    "relay-chain": [
        [("n3", "store", "export new cell cell?(r) = r![99]")],
        [("n2", "mid", """
          import cell from store in
          export new relay relay?(out) = new a (cell![a] | a?(v) = out![v])
          """)],
        [("n1", "edge",
          "import relay from mid in new b (relay![b] | b?(w) = print![w])")],
    ],
}


def _make_world(kind):
    """``None`` (DiTyCONetwork's default SimWorld) or the wall-clock
    world, which its builder must shut down."""
    return None if kind == "sim" else SocketWorld()


def _observe(net, counts=True):
    """The cross-world comparable digest of a finished network."""
    world = net.world
    sites = [site for node in world.nodes.values()
             for site in node.sites.values()]
    snap = net.nameservice.snapshot()
    obs = {
        "outputs": {s.site_name: tuple(s.output) for s in sites},
        "ns_sites": sorted(snap["sites"]),
        "ns_names": sorted(snap["names"]),
        "ns_classes": sorted(snap["classes"]),
        "heap_exports": {s.site_name: sorted(s.exported_ids) for s in sites},
    }
    if counts:
        obs["instructions"] = {s.site_name: s.vm.stats.instructions
                               for s in sites}
    return obs


def run_phased(kind, phases, max_time=30.0, sink=None):
    world = _make_world(kind)
    net = DiTyCONetwork(world=world)
    if sink is not None:
        net.world.obs.subscribe(sink)
    for phase in phases:
        for ip, _name, _src in phase:
            if ip not in net.world.nodes:
                net.add_node(ip)
    try:
        for phase in phases:
            for ip, name, src in phase:
                net.launch(ip, name, src)
            net.run(max_time=None if world is None else max_time)
        assert net.is_quiescent()
        return _observe(net)
    finally:
        if world is not None:
            world.shutdown()


def run_scenario_everywhere(kind, scenario, max_time=30.0):
    world = _make_world(kind)
    net = DiTyCONetwork(world=world)
    try:
        SCENARIOS[scenario](net)
        net.run(max_time=None if world is None else max_time)
        assert net.is_quiescent()
        return _observe(net, counts=False)
    finally:
        if world is not None:
            world.shutdown()


@pytest.mark.parametrize("name", sorted(PROGRAMS), ids=str)
def test_phased_programs_agree_across_worlds(name):
    phases = PROGRAMS[name]
    assert run_phased("socket", phases) == run_phased("sim", phases), (
        f"{name}: socket world diverged from the simulator")


@pytest.mark.parametrize("scenario", ["echo", "pump", "applet"], ids=str)
def test_corpus_scenarios_agree_across_worlds(scenario):
    assert run_scenario_everywhere("socket", scenario) == \
        run_scenario_everywhere("sim", scenario), (
            f"{scenario}: socket world diverged from the simulator")


def test_every_world_publishes_the_same_events():
    """One event path on every transport: a sink subscribed to the
    world's bus sees each frame leave and arrive (``send`` ==
    ``deliver`` > 0) and the same multiset of site-level events,
    whichever world carries the applet fetch."""
    seen = {}
    for kind in WORLDS:
        sink = TraceCollector()
        run_phased(kind, PROGRAMS["fetch-twice"], sink=sink)
        kinds = Counter(e.kind for e in sink.events)
        assert kinds["send"] == kinds["deliver"] > 0, kind
        # Site-level events name the emitting site, not its node.
        seen[kind] = Counter(e.kind for e in sink.events
                             if e.node and e.src != e.node)
    assert seen["sim"]["fetch-req"] > 0
    assert seen["socket"] == seen["sim"]


def test_phased_ping_expected_answer():
    """Anchor the digest itself: the comparison above would also pass
    if every world were wrong in the same way."""
    obs = run_phased("sim", PROGRAMS["ping"])
    assert obs["outputs"]["client"] == (7,)
    assert ("server", "svc") in obs["ns_names"]
    assert obs["instructions"]["client"] > 0


# -- macro workload: the chat fabric across worlds ---------------------------
#
# The pub/sub fabric from repro.workloads as a phased program: setup
# phases (subscribers+collector, then hubs) with quiescence barriers,
# then every generated operation launched in one final concurrent
# phase.  Imports still resolve on first execution (all names are
# registered before the op phase), so per-site instruction counts are
# comparable; completion *order* races on the wall-clock world, so
# output tuples are compared as multisets.

from repro.workloads import WorkloadSpec, generate_trace  # noqa: E402
from repro.workloads.pubsub import (expected_outputs as _chat_expected,  # noqa: E402
                                    op_entry, setup_phases)

CHAT_SPEC = WorkloadSpec("pubsub", seed=3, ops=6, rate_per_s=2000.0,
                         nodes=3, topics=2, subscribers=2)


def chat_fabric_phases() -> list:
    trace = generate_trace(CHAT_SPEC)
    phases = list(setup_phases(CHAT_SPEC))
    phases.append([op_entry(CHAT_SPEC, a) for a in trace])
    return phases


def _canonical(obs: dict) -> dict:
    out = dict(obs)
    out["outputs"] = {site: tuple(sorted(map(repr, values)))
                      for site, values in obs["outputs"].items()}
    return out


def test_chat_fabric_agrees_across_worlds():
    assert _canonical(run_phased("socket", chat_fabric_phases())) == \
        _canonical(run_phased("sim", chat_fabric_phases())), (
            "chat-fabric: socket world diverged from the simulator")


def test_chat_fabric_expected_answer():
    """Anchor: the collector saw every op exactly once and each
    subscriber exactly the publishes of its topic."""
    obs = run_phased("sim", chat_fabric_phases())
    want = _chat_expected(CHAT_SPEC, generate_trace(CHAT_SPEC))
    for site, values in want.items():
        assert tuple(sorted(obs["outputs"][site])) == values, site
    assert all(count > 0 for count in obs["instructions"].values())
