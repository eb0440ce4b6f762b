"""Checkpoint round trips of the protocol state a site parks between
packets: code offers waiting for their byte-code, instantiations
waiting on a FETCH, and the distributed GC's lease tables and
tombstones.

Capture, restore and capture again must give the same bytes.  The
scenarios are read back from the decoded state part (the checkpoint
format names every table), so they do not depend on where a site keeps
that state in memory.
"""

from repro.mobility.checkpoint import (
    capture_site,
    read_checkpoint,
    restore_site,
    write_checkpoint,
)
from repro.runtime import DiTyCONetwork
from repro.runtime.distgc import GcConfig
from repro.runtime.wire import decode
from repro.testkit.invariants import settle_distgc

APPLET = "export def Applet(x) = x![7 * 6] in 0"

#: Two instantiations of s1's class and one of s2's: the same code
#: offered twice, so the second offer waits on the first one's request.
TWO_OWNERS = ("new v ((import Applet from s1 in (Applet[v] | Applet[v])) | "
              "(import Applet from s2 in Applet[v]) | v?(w) = print![w])")

#: ``a`` exports a class and a channel ``b`` keeps, and keeps ``b``'s
#: channel in turn: it grants a lease and holds one.
LEASE_OWNER = ("export def K(x) = x![1] in "
               "(export new svc svc?(w) = print![w] | "
               "import keep from b in export new hold hold?(w) = keep![w])")
LEASE_PEER = ("import svc from a in "
              "(svc![5] | export new keep keep?(w) = svc![w])")


def state_of(site) -> dict:
    return decode(capture_site(site).state)


def assert_round_trips(net, site):
    blob = write_checkpoint(site)
    code, state = read_checkpoint(blob)
    rebuilt = restore_site(net.node(site.ip), code, state)
    assert write_checkpoint(rebuilt) == blob


def test_parked_code_offers_and_waiting_fetches_round_trip():
    net = DiTyCONetwork()
    net.add_nodes(["n1", "n2"])
    net.launch("n1", "s1", APPLET)
    net.launch("n1", "s2", APPLET)
    net.run()
    client = net.launch("n2", "client", TWO_OWNERS)
    for _ in range(2000):
        if len(state_of(client)["pending_code"]) == 2:
            break
        net.world.run(max_time=net.world.time + 1e-6)
    state = state_of(client)
    assert [(key, len(waiting)) for key, waiting in state["pending_fetch"]] \
        == [(("n1", 1, 1), 2), (("n1", 2, 1), 1)]
    assert [pkey for pkey, _needed, _payload in state["pending_code"]] \
        == [("n1", 1, "fetch", 1), ("n1", 2, "fetch", 1)]
    # One request is out; the second offer coalesced onto it.
    assert state["site_stats"]["code_needs_sent"] == 1
    assert len(state["codecache"]["in_flight"]) == 1
    assert_round_trips(net, client)
    net.run()
    assert client.output == [42]


def test_lease_tables_and_class_tombstone_round_trip():
    net = DiTyCONetwork(distgc=True, gc_config=GcConfig(
        lease_s=1e-3, renew_s=2.5e-4, sweep_s=1.25e-4))
    net.add_nodes(["n1", "n2"])
    owner = net.launch("n1", "a", LEASE_OWNER)
    net.launch("n2", "b", LEASE_PEER)
    net.run()
    assert owner.unexport_class("K")
    settle_distgc(net)
    state = state_of(owner)
    gc = state["distgc"]
    assert state["gc_class_tombstones"] == [1]
    assert gc["stats"]["classes_reclaimed"] == 1
    assert [holders[0][0] for _key, holders in gc["leases"]] == [("n2", 2)]
    assert [owner_ep for owner_ep, _keys in gc["held"]] == [("n2", 2)]
    assert_round_trips(net, owner)
    assert owner.output == [5]
