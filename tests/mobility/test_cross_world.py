"""Cross-world migration differential: one forced migration, three
execution stacks.

The same phased workload -- boot a pump server, use it, live-migrate
it to a third node, use it again -- must leave identical observable
state (printed outputs, per-site instruction counts, export pins, name
service placement) on:

* the deterministic simulator,
* the in-process socket world (one thread per node, loopback TCP,
  wall clock),
* a 3-process ``repro daemon`` cluster over the same TCP transport.

A second family drives migration over real sockets *through the chaos
proxy* (every record duplicated), pinning the at-most-once cutover on
a genuinely concurrent transport.
"""

import pytest

from repro.runtime import DiTyCONetwork
from repro.runtime.cluster import ProcessCluster
from repro.testkit import ChaosConfig, ChaosProxy
from repro.testkit import invariants as inv
from repro.transport import SocketWorld

pytestmark = pytest.mark.slow

IPS = ["n1", "n2", "n3"]

PUMP = """
export new svc
def Pump(self) = self?{ call(reply, tag) = (reply![tag] | Pump[self]) }
in Pump[svc]
"""


def client(tag):
    return (f"import svc from server in "
            f"new a (svc!call[a, {tag}] | a?(v) = print![v])")


#: phase -> [(ip, site, source)]; the marker string between phases is
#: where the forced migration happens (server: n1 -> n3).
PHASES = [
    [("n1", "server", PUMP)],
    [("n2", "pre2", client(2)), ("n3", "pre3", client(3))],
    "MIGRATE",
    [("n2", "post4", client(4)), ("n3", "post5", client(5))],
]

EXPECTED_OUTPUTS = {"server": (), "pre2": (2,), "pre3": (3,),
                    "post4": (4,), "post5": (5,)}


def digest_in_process(world=None):
    net = DiTyCONetwork(world=world)
    net.add_nodes(IPS)
    max_time = 30.0 if getattr(net.world, "wall_clock", False) else None
    for phase in PHASES:
        if phase == "MIGRATE":
            net.migrate("server", "n3")
        else:
            for ip, name, src in phase:
                net.launch(ip, name, src)
        net.run(max_time=max_time)
    assert net.is_quiescent()
    assert inv.check_no_twin_site(net) + inv.check_no_lost_site(net) == []
    sites = [s for node in net.world.nodes.values()
             for s in node.sites.values()]
    return {
        "outputs": {s.site_name: tuple(s.output) for s in sites},
        "instructions": {s.site_name: s.vm.stats.instructions
                         for s in sites},
        "exports": {s.site_name: sorted(s.exported_ids) for s in sites},
        "server_home": net.nameservice.lookup_site("server").ip,
        "migrations": (net.node("n1").mobility.stats.migrations_out,
                       net.node("n3").mobility.stats.migrations_in),
    }


def digest_cluster():
    cluster = ProcessCluster(IPS).start()
    try:
        for phase in PHASES:
            if phase == "MIGRATE":
                cluster.migrate("n1", "server", "n3")
            else:
                for ip, name, src in phase:
                    cluster.launch(ip, name, src)
            cluster.run(max_time=60.0)
        assert cluster.is_quiescent()
        snap = cluster.ns_snapshot()
        src_stats = cluster.migration_stats("n1")
        dst_stats = cluster.migration_stats("n3")
        return {
            "outputs": cluster.outputs(),
            "instructions": cluster.instructions(),
            "exports": cluster.exports(),
            "server_home": snap["sites"]["server"].ip,
            "migrations": (src_stats["migrations_out"],
                           dst_stats["migrations_in"]),
        }
    finally:
        cluster.shutdown()


def test_sim_vs_socket_vs_process_cluster():
    sim = digest_in_process()
    world = SocketWorld()
    try:
        in_process = digest_in_process(world)
    finally:
        world.shutdown()
    cluster = digest_cluster()
    assert in_process == sim
    assert cluster == sim
    # Anchor against hand-computed expectations so the three stacks
    # cannot agree by being wrong together.
    assert sim["outputs"] == EXPECTED_OUTPUTS
    assert sim["server_home"] == "n3"
    assert sim["migrations"] == (1, 1)


class TestSocketMigration:
    def phased_socket_run(self, proxy=None):
        world = SocketWorld()
        if proxy is not None:
            world.use_proxy(proxy)
        net = DiTyCONetwork(world=world)
        net.add_nodes(IPS)
        try:
            for phase in PHASES:
                if phase == "MIGRATE":
                    net.migrate("server", "n3")
                else:
                    for ip, name, src in phase:
                        net.launch(ip, name, src)
                net.run(max_time=30.0)
            outputs = {s.site_name: tuple(s.output)
                       for node in world.nodes.values()
                       for s in node.sites.values()}
            violations = (inv.check_no_twin_site(net)
                          + inv.check_no_lost_site(net))
            return outputs, violations, net
        finally:
            world.shutdown()

    def test_migration_over_real_tcp(self):
        outputs, violations, net = self.phased_socket_run()
        assert violations == []
        assert outputs == EXPECTED_OUTPUTS
        assert net.nameservice.lookup_site("server").ip == "n3"
        assert net.node("n3").mobility.stats.migrations_in == 1

    def test_migration_through_dup_proxy(self):
        """Every TCP record relayed twice, including MIG_SHIP and
        MIG_ACK: dedup by token must keep the site in exactly one
        place and the answers single."""
        proxy = ChaosProxy(seed=3, config=ChaosConfig(dup_prob=1.0))
        outputs, violations, net = self.phased_socket_run(proxy)
        assert violations == []
        # Data messages are at-least-once under dup; the *reply*
        # channels are linear (each consumed once), so even the
        # duplicated calls produce single answers.
        assert outputs == EXPECTED_OUTPUTS
        assert net.nameservice.lookup_site("server").ip == "n3"
        dst = net.node("n3").mobility
        assert dst.stats.migrations_in == 1
        assert dst.stats.dup_ships >= 1
