"""Live migration unit suite (repro.mobility.migrate).

Covers the protocol on the deterministic simulator: the happy path
(outputs identical to an unmigrated run, name service rebound), the
warm/cold code economics, residual buffering + tombstone forwarding,
token-based dedup of duplicate SHIPs/ACKs, the retry/abandon ladder,
and the observability surface (events, metrics, invariants).
"""

import pytest

from repro.mobility.migrate import KIND_MIG_SHIP, MobilityConfig
from repro.obs.events import MOBILITY, category_of
from repro.obs.metrics import world_metrics
from repro.runtime import DiTyCONetwork
from repro.runtime.wire import Packet
from repro.testkit import ChaosConfig, ChaosWorld
from repro.testkit import invariants as inv

SERVER = (
    "export def Svc(ch, out) = ch?(w) = (out![w] | Svc[ch, out]) in "
    "export new svc Svc[svc, print]")


def build(net, messages=4, migrate_at=4e-5):
    """The shared mid-workload topology: a server on n1, staggered
    clients on n2, an optional scheduled migration to n3."""
    net.add_nodes(["n1", "n2", "n3"])
    net.launch("n1", "server", SERVER)
    net.launch("n2", "client0", "import svc from server in svc![0]")
    if migrate_at is not None:
        net.world.schedule_at(migrate_at,
                              lambda: net.migrate("server", "n3"))
    for i in range(1, messages):
        net.world.schedule_at(
            1e-5 + i * 3e-5,
            lambda i=i: net.launch(
                "n2", f"client{i}",
                f"import svc from server in svc![{i}]"))
    return net


def check_invariants(net):
    violations = inv.check_no_twin_site(net) + inv.check_no_lost_site(net)
    assert violations == [], violations


class TestHappyPath:
    def test_outputs_match_unmigrated_run(self):
        baseline = build(DiTyCONetwork(), migrate_at=None)
        baseline.run()
        migrated = build(DiTyCONetwork())
        migrated.run()
        assert sorted(migrated.site("server").output) == \
            sorted(baseline.site("server").output) == [0, 1, 2, 3]
        assert migrated.is_quiescent()
        check_invariants(migrated)

    def test_site_lands_on_dest_and_ns_rebinds(self):
        net = build(DiTyCONetwork())
        net.run()
        site = net.site("server")
        assert site.ip == "n3"
        assert "server" in net.node("n3").sites_by_name
        assert "server" not in net.node("n1").sites_by_name
        assert net.nameservice.lookup_site("server").ip == "n3"
        # The old home remembers where the site went.
        src = net.node("n1").mobility
        assert src.tombstones == {site.site_id: "n3"}
        assert src.frozen == {} and src.outbound == {}

    def test_cold_migration_uses_need_code_path(self):
        net = build(DiTyCONetwork())
        net.run()
        src, dst = net.node("n1").mobility, net.node("n3").mobility
        assert dst.stats.cold_restores == 1
        assert dst.stats.warm_restores == 0
        assert dst.stats.needs_sent == 1
        assert src.stats.codes_sent == 1
        assert src.stats.code_bytes_shipped > 0

    def test_migrate_back_is_warm(self):
        net = build(DiTyCONetwork())
        net.run()
        net.migrate("server", "n1")
        net.run()
        assert net.site("server").ip == "n1"
        src_again = net.node("n1").mobility
        # n1 registered its own code when it first shipped: coming
        # home needs no MIG_NEED round trip.
        assert src_again.stats.warm_restores == 1
        assert net.node("n3").mobility.stats.needs_sent == 1  # unchanged
        # n3's stale tombstone from leg 1 must not shadow n1's new one.
        assert net.node("n1").mobility.tombstones == {}
        check_invariants(net)

    def test_residuals_buffered_while_frozen_then_flushed(self):
        net = build(DiTyCONetwork())
        net.run()
        src = net.node("n1").mobility
        # The staggered clients resolved "server" before the cutover,
        # so their messages hit n1 either mid-freeze (buffered) or
        # post-cutover (tombstone-forwarded); all reach n3.
        assert src.stats.residuals_buffered > 0
        assert src.stats.forwards >= src.stats.residuals_buffered
        assert src.residuals == {}
        assert sorted(net.site("server").output) == [0, 1, 2, 3]

    def test_stalled_import_resumes_at_the_new_home(self):
        # The waiter freezes with its import parked on a name nobody
        # exports yet; the export's notification must reach it through
        # the destination node's subscription (adopt_site).
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2", "n3"])
        net.launch("n1", "waiter",
                   "import svc from server in new a (svc![a] | a?(w) = print![w])")
        net.run()
        assert net.site("waiter").vm.has_stalled()
        net.migrate("waiter", "n3")
        net.run()
        waiter = net.site("waiter")
        assert waiter.ip == "n3" and waiter.vm.has_stalled()
        assert "waiter" not in net.node("n1").sites_by_name
        net.launch("n2", "server",
                   "def Serve(c) = c?(r) = (r![7] | Serve[c]) "
                   "in export new svc Serve[svc]")
        net.run()
        assert waiter.output == [7]
        assert not waiter.vm.has_stalled()
        assert net.is_quiescent()
        check_invariants(net)

    def test_fetch_req_straddling_cutover_still_completes(self):
        """A fetch_req sent to the old home while the cutover is in
        flight gets forwarded, so the fetch_reply comes back from the
        *new* home's ip.  The requester must match it to the fetch it
        parked under the old ip -- (site_id, class_id) is the
        migration-stable identity -- or the instantiation hangs
        forever (found by the chaos sweep over
        examples/programs/migrate_network.tycosh, seed 0)."""
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2", "n3"])
        net.launch("n1", "server", "export def Pump(r) = r![6 * 7] in 0")
        net.launch("n2", "client",
                   "import Pump from server in "
                   "new v (Pump[v] | v?(w) = print![w])")
        # Freeze after the client's fetch_req is on the wire to n1 but
        # before it arrives: the request crosses the cutover window.
        net.world.schedule_at(5e-6, lambda: net.migrate("server", "n3"))
        net.run()
        src = net.node("n1").mobility
        assert src.stats.forwards >= 1       # the fetch_req took the detour
        assert net.site("client").output == [42]
        assert net.is_quiescent()
        check_invariants(net)


class TestDedup:
    def migrated_net(self):
        net = build(DiTyCONetwork())
        net.run()
        return net

    def test_duplicate_ship_after_completion_is_reacked(self):
        net = self.migrated_net()
        src, dst = net.node("n1").mobility, net.node("n3").mobility
        (token, (name, site_id)), = dst.completed_in.items()
        dup = Packet(kind=KIND_MIG_SHIP, src_ip="n1", src_site_id=0,
                     dest_ip="n3", dest_site_id=0,
                     payload=(token, name, site_id, b"stale-state", b"x" * 16))
        dst.on_control(dup)
        net.run()
        assert dst.stats.dup_ships == 1
        assert dst.stats.migrations_in == 1      # no twin restore
        # Source already completed: the extra ACK is recognised.
        assert src.stats.dup_acks == 1
        assert len(net.node("n3").sites_by_name) == 1
        check_invariants(net)

    def test_unknown_control_kind_rejected(self):
        net = self.migrated_net()
        bogus = Packet(kind="mig_bogus", src_ip="n1", src_site_id=0,
                       dest_ip="n3", dest_site_id=0, payload=())
        with pytest.raises(LookupError, match="mig_bogus"):
            net.node("n3").mobility.on_control(bogus)

    def test_need_for_unknown_digest_is_ignored(self):
        net = self.migrated_net()
        src = net.node("n1").mobility
        before = src.stats.codes_sent
        src._on_need(Packet(kind="mig_need", src_ip="n3", src_site_id=0,
                            dest_ip="n1", dest_site_id=0,
                            payload=("tok", b"\x00" * 16)))
        assert src.stats.codes_sent == before

    def test_code_with_wrong_digest_never_installs(self):
        net = self.migrated_net()
        dst = net.node("n3").mobility
        before = dict(dst.code_library)
        dst._on_code(Packet(kind="mig_code", src_ip="n1", src_site_id=0,
                            dest_ip="n3", dest_site_id=0,
                            payload=("tok", b"\x00" * 16, b"evil-bytes")))
        assert dst.code_library == before


class TestRetryAndAbandon:
    def test_total_packet_loss_leaves_site_frozen_in_one_place(self):
        config = MobilityConfig(retry_s=1e-4, max_attempts=5)
        world = ChaosWorld(seed=0, config=ChaosConfig(drop_prob=1.0))
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n3"])
        net.launch("n1", "server", SERVER)
        net.run()
        net.mobility("n1", config=config)
        net.migrate("server", "n3")
        net.run()
        src = net.node("n1").mobility
        record, = src.outbound.values()
        assert record.failed
        assert record.attempts == config.max_attempts
        assert src.stats.failures == 1
        assert src.stats.retries == config.max_attempts - 1
        # Frozen exactly at the source, nowhere else; the network can
        # still terminate (a failed migration is idle, not busy work).
        assert src.frozen != {}
        assert "server" not in net.node("n1").sites_by_name
        assert "server" not in net.node("n3").sites_by_name
        assert src.idle() and net.is_quiescent()
        check_invariants(net)

    def test_frozen_site_blocks_quiescence_until_resolved(self):
        world = ChaosWorld(seed=0, config=ChaosConfig(drop_prob=1.0))
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n3"])
        net.launch("n1", "server", SERVER)
        net.run()
        net.mobility("n1", config=MobilityConfig(retry_s=1e-4,
                                                 max_attempts=5))
        net.migrate("server", "n3")
        # Mid-protocol (no ACK yet, not abandoned): not quiescent.
        assert not net.node("n1").mobility.idle()
        assert not net.is_quiescent()
        net.run()
        assert net.is_quiescent()


class TestErrors:
    def test_migrate_unknown_site(self):
        net = DiTyCONetwork()
        net.add_nodes(["n1"])
        with pytest.raises(KeyError, match="nosuch"):
            net.migrate("nosuch", "n1")

    def test_migrate_to_own_node_rejected(self):
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "server", SERVER)
        net.run()
        with pytest.raises(ValueError, match="already at"):
            net.migrate("server", "n1")

    def test_manager_requires_hosted_site(self):
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2"])
        with pytest.raises(LookupError, match="ghost"):
            net.mobility("n1").migrate_site("ghost", "n2")

    def test_migrate_after_reap_is_an_unknown_site(self):
        # A reaped site is gone by name as well as by id: migrating it
        # used to checkpoint the zombie and then die on the pool delete.
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "op7", "print![7]")
        net.run()
        assert net.node("n1").tycoi.reap() == 1
        with pytest.raises(KeyError, match="op7"):
            net.site("op7")
        with pytest.raises(KeyError, match="no site named 'op7'"):
            net.migrate("op7", "n2")
        with pytest.raises(LookupError, match="no site 'op7'"):
            net.mobility("n1").migrate_site("op7", "n2")
        assert net.node("n1").mobility.frozen == {}


class _Sink:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


class TestObservability:
    def test_migration_events_published(self):
        net = build(DiTyCONetwork())
        sink = _Sink()
        net.world.obs.subscribe(sink)
        net.run()
        kinds = {e.kind for e in sink.events}
        for expected in ("migrate-out", "migrate-ship", "migrate-need",
                         "migrate-code", "migrate-in", "migrate-ack",
                         "migrate-forward"):
            assert expected in kinds, expected
            assert category_of(expected) == MOBILITY

    def test_migration_gauges_rendered(self):
        net = build(DiTyCONetwork())
        net.run()
        text = world_metrics(net.world).render()
        assert 'repro_migration_out_total{node="n1"} 1' in text
        assert 'repro_migration_in_total{node="n3"} 1' in text
        assert 'repro_migration_tombstones{node="n1"} 1' in text
        assert 'repro_migration_cold_restores_total{node="n3"} 1' in text

    def test_no_gauges_without_mobility(self):
        net = DiTyCONetwork()
        net.add_nodes(["n1"])
        net.launch("n1", "s", "print![1]")
        net.run()
        assert "repro_migration" not in world_metrics(net.world).render()
