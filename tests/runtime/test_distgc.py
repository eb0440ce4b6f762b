"""Tests for lease-based distributed GC (repro.runtime.distgc)."""

import pytest

from repro.runtime import DiTyCONetwork, DistGC, GcConfig, GcScheduler
from repro.runtime.distgc import GRACE_HOLDER
from repro.runtime.wire import KIND_MESSAGE, Packet
from repro.testkit import (
    check_export_liveness,
    check_no_premature_reclaim,
    settle_distgc,
)

A = ("10.0.0.1", 1)
B = ("10.0.0.2", 2)


class TestLeaseTable:
    def test_grant_then_expire(self):
        gc = DistGC(GcConfig(lease_s=1.0))
        gc.grant(("n", 7), A, now=0.0)
        assert gc.live_keys(0.5) == {("n", 7)}
        assert gc.live_keys(1.5) == set()
        assert gc.stats.leases_expired == 1
        # Expiry removes the key outright: the lease term was the slack.
        assert ("n", 7) not in gc.leases

    def test_renew_extends(self):
        gc = DistGC(GcConfig(lease_s=1.0))
        gc.grant(("n", 7), A, now=0.0)
        gc.renew(("n", 7), A, now=0.9)
        assert gc.live_keys(1.5) == {("n", 7)}

    def test_renew_unknown_key_reestablishes(self):
        # A renewal is semantically a claim: the owner may have expired
        # the lease moments before the renewal arrived.
        gc = DistGC(GcConfig(lease_s=1.0))
        gc.renew(("n", 7), A, now=0.0)
        assert gc.live_keys(0.5) == {("n", 7)}

    def test_drop_last_holder_enters_grace(self):
        gc = DistGC(GcConfig(lease_s=1.0, grace_s=2.0))
        gc.grant(("n", 7), A, now=0.0)
        gc.drop(("n", 7), A, now=0.5)
        # Still pinned by the grace sentinel, then gone.
        assert gc.leases[("n", 7)] == {GRACE_HOLDER: 2.5}
        assert gc.live_keys(1.0) == {("n", 7)}
        assert gc.live_keys(3.0) == set()
        assert gc.stats.grace_pins == 1

    def test_drop_with_remaining_holder_no_grace(self):
        gc = DistGC(GcConfig(lease_s=1.0))
        gc.grant(("n", 7), A, now=0.0)
        gc.grant(("n", 7), B, now=0.0)
        gc.drop(("n", 7), A, now=0.1)
        assert GRACE_HOLDER not in gc.leases[("n", 7)]
        assert gc.live_keys(0.5) == {("n", 7)}

    def test_expire_holder_is_immediate(self):
        gc = DistGC(GcConfig(lease_s=100.0))
        gc.grant(("n", 7), A, now=0.0)
        gc.grant(("c", 3), A, now=0.0)
        gc.grant(("n", 7), B, now=0.0)
        assert gc.expire_holder("10.0.0.1") == 2
        assert gc.live_keys(0.0) == {("n", 7)}  # B still holds it
        assert gc.stats.holders_expired == 2

    def test_note_held_queues_claim_once(self):
        gc = DistGC()
        assert gc.note_held(A, ("n", 7), now=0.0) is True
        assert gc.note_held(A, ("n", 7), now=0.1) is False
        claims = gc.pop_claims()
        assert claims == {A: (("n", 7),)}
        assert gc.pop_claims() == {}
        assert gc.stats.claims_sent == 1

    def test_pop_renewals_cadence(self):
        gc = DistGC(GcConfig(renew_s=1.0))
        gc.note_held(A, ("n", 7), now=0.0)
        gc.pop_claims()
        assert gc.pop_renewals(0.5) == {}
        assert gc.pop_renewals(1.0) == {A: (("n", 7),)}
        # Marked renewed at 1.0: not due again until 2.0.
        assert gc.pop_renewals(1.5) == {}

    def test_sync_held_drops_and_adopts(self):
        gc = DistGC()
        gc.note_held(A, ("n", 7), now=0.0)
        gc.note_held(A, ("n", 8), now=0.0)
        gc.pop_claims()
        drops = gc.sync_held({A: {("n", 8)}, B: {("c", 2)}}, now=1.0)
        assert drops == {A: (("n", 7),)}
        # The unseen-but-reachable key is adopted and claimed.
        assert gc.pop_claims() == {B: (("c", 2),)}
        assert gc.stats.drops_sent == 1

    def test_drop_owner(self):
        gc = DistGC()
        gc.note_held(A, ("n", 7), now=0.0)
        gc.note_held(B, ("n", 9), now=0.0)
        assert gc.drop_owner("10.0.0.1") == 1
        assert A not in gc.held and B in gc.held
        assert A not in gc.pop_claims()


#: Sim-scale lease timings: fast enough that a settling run converges
#: in a few virtual milliseconds.
CFG = GcConfig(lease_s=1e-3, renew_s=2.5e-4, sweep_s=1.25e-4)


def make_net():
    net = DiTyCONetwork(distgc=True, gc_config=CFG)
    net.add_node("n1")
    net.add_node("n2")
    return net


def lifecycle_net(hold: bool = False):
    """Server exports ``svc``; client imports it and fires one message.

    With ``hold=True`` the client parks a receptor on an *exported*
    (hence pinned) channel whose environment captures the imported
    reference, so the reference stays live (and the lease in force)
    after quiescence.
    """
    net = make_net()
    server = net.launch("n1", "s", "export new svc svc?(w) = print![w]")
    net.run()
    body = ("import svc from s in "
            "(svc![5] | export new keep keep?(w) = svc![w])"
            if hold else "import svc from s in svc![5]")
    client = net.launch("n2", "c", body)
    net.run()
    assert server.output == [5]
    return net, server, client


class TestLeaseLifecycle:
    def test_import_claims_lease(self):
        net, server, client = lifecycle_net(hold=True)
        svc_id = next(iter(server.name_exports.values()))
        holders = server.distgc.leases.get(("n", svc_id))
        assert holders is not None
        assert (client.ip, client.site_id) in holders
        assert client.distgc.stats.claims_sent >= 1

    def test_released_ref_is_dropped_with_grace(self):
        # The non-holding client finishes and its reference dies; the
        # renew scan relinquishes the lease, leaving the grace pin.
        net, server, client = lifecycle_net()
        svc_id = next(iter(server.name_exports.values()))
        holders = server.distgc.leases.get(("n", svc_id))
        assert holders is not None
        assert list(holders) == [GRACE_HOLDER]
        assert client.distgc.stats.drops_sent >= 1

    def test_unexport_then_settle_reclaims(self):
        net, server, client = lifecycle_net()
        svc_id = next(iter(server.name_exports.values()))
        assert server.unexport_name("svc")
        assert net.nameservice.lookup_name("s", "svc") is None
        settle_distgc(net)
        assert svc_id not in server.vm.heap
        assert svc_id not in server.exported_ids
        assert svc_id in server.distgc.tombstones
        assert server.distgc.stats.channels_reclaimed >= 1
        assert check_no_premature_reclaim(net) == []
        assert check_export_liveness(net) == []

    def test_registered_export_survives_settling(self):
        net = make_net()
        server = net.launch("n1", "s", (
            "def Serve(c) = c?(w) = (print![w] | Serve[c]) "
            "in export new svc Serve[svc]"))
        net.run()
        net.launch("n2", "c", "import svc from s in svc![5]")
        net.run()
        svc_id = next(iter(server.name_exports.values()))
        settle_distgc(net)
        assert svc_id in server.vm.heap
        # The channel stays usable after any number of sweeps.
        net.launch("n2", "c2", "import svc from s in svc![6]")
        net.run()
        assert server.output == [5, 6]

    def test_late_message_to_reclaimed_id_dropped(self):
        net, server, client = lifecycle_net()
        svc_id = next(iter(server.name_exports.values()))
        server.unexport_name("svc")
        settle_distgc(net)
        assert svc_id in server.distgc.tombstones
        server.incoming.append(Packet(
            kind=KIND_MESSAGE, src_ip=client.ip,
            src_site_id=client.site_id, dest_ip=server.ip,
            dest_site_id=server.site_id, payload=(svc_id, "put", ())))
        server.pump_incoming()  # must not raise
        assert server.distgc.stats.late_drops == 1

    def test_peer_suspected_expires_leases(self):
        net, server, client = lifecycle_net(hold=True)
        svc_id = next(iter(server.name_exports.values()))
        assert (client.ip, client.site_id) in server.distgc.leases[("n", svc_id)]
        net.world.fail_node("n2")
        server.codecache.mark_in_flight(b"d1")
        net.world.nodes["n1"].on_peer_suspected("n2")
        assert server.distgc.stats.holders_expired >= 1
        assert not server.codecache.is_in_flight(b"d1")
        server.unexport_name("svc")
        settle_distgc(net)
        assert svc_id not in server.vm.heap

    def test_retire_exports_unregisters(self):
        net, server, client = lifecycle_net()
        server.retire_exports()
        assert net.nameservice.lookup_name("s", "svc") is None
        settle_distgc(net)
        assert check_export_liveness(net) == []

    def test_distgc_off_keeps_conservative_pinning(self):
        net = DiTyCONetwork()
        net.add_node("n1")
        net.add_node("n2")
        server = net.launch("n1", "s", "export new svc svc?(w) = print![w]")
        net.run()
        assert server.distgc is None
        # Without distgc a site never collects: every export stays
        # pinned forever and still serves remote mail.
        net.launch("n2", "c", "import svc from s in svc![9]")
        net.run()
        svc_id = net.nameservice.lookup_name("s", "svc").heap_id
        assert svc_id in server.vm.heap
        assert server.vm.heap.stats().collections == 0
        assert server.output == [9]


class TestGcScheduler:
    def test_ticks_wake_distgc_nodes(self):
        net = make_net()
        sched = GcScheduler(net.world, period=1e-3)
        sched.install(horizon=5e-3)
        net.world.run()
        assert sched.ticks >= 5
        with pytest.raises(RuntimeError):
            sched.install(horizon=1e-3)
