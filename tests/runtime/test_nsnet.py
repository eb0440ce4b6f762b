"""Unit tests for the TCP name service (repro.runtime.nsnet)."""

import time

import pytest

from repro.runtime.nameservice import NameServiceError, UnknownSiteName
from repro.runtime.nsnet import NameServiceClient, NameServiceServer


@pytest.fixture
def ns():
    server = NameServiceServer().start()
    client = NameServiceClient(server.host, server.port)
    try:
        yield server, client
    finally:
        client.close()
        server.close()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestRpcRoundtrips:
    def test_site_and_name_tables(self, ns):
        _server, client = ns
        sid = client.register_site("alpha", "n1")
        assert client.register_site("alpha", "n1") == sid  # idempotent
        client.export_name("alpha", "svc", heap_id=42)
        rec = client.lookup_site("alpha")
        assert (rec.site_name, rec.site_id, rec.ip) == ("alpha", sid, "n1")
        ref = client.lookup_name("alpha", "svc")
        assert (ref.heap_id, ref.site_id, ref.ip) == (42, sid, "n1")
        assert client.lookup_name("alpha", "missing") is None
        assert client.unregister_export("alpha", "svc") is True
        assert client.lookup_name("alpha", "svc") is None

    def test_class_table(self, ns):
        _server, client = ns
        client.register_site("alpha", "n1")
        client.export_class("alpha", "Applet", class_id=7)
        ref = client.lookup_class("alpha", "Applet")
        assert (ref.class_id, ref.ip) == (7, "n1")
        assert client.unregister_class_export("alpha", "Applet") is True

    def test_snapshot_and_counts(self, ns):
        _server, client = ns
        client.register_site("alpha", "n1")
        client.register_site("beta", "n2")
        client.export_name("alpha", "svc", 1)
        snap = client.snapshot()
        assert sorted(snap["sites"]) == ["alpha", "beta"]
        assert snap["names"] == {("alpha", "svc"): 1}
        assert client.site_count() == 2
        assert client.exported_count() == 1
        assert [r.site_name for r in client.sites_at("n1")] == ["alpha"]

    def test_unregister_ip(self, ns):
        _server, client = ns
        client.register_site("alpha", "n1")
        client.register_site("beta", "n2")
        assert client.unregister_ip("n1") == ["alpha"]
        with pytest.raises(UnknownSiteName):
            client.lookup_site("alpha")

    def test_errors_cross_the_wire_typed(self, ns):
        _server, client = ns
        with pytest.raises(UnknownSiteName):
            client.lookup_site("ghost")
        client.register_site("alpha", "n1")
        with pytest.raises(NameServiceError):
            client.register_site("alpha", "other-ip")
        with pytest.raises(UnknownSiteName):
            client.export_name("ghost", "x", 1)


class TestNodeDirectory:
    def test_register_and_resolve(self, ns):
        _server, client = ns
        client.register_node("n1", "127.0.0.1", 4100)
        assert client.node_addr("n1") == ("127.0.0.1", 4100)
        assert client.nodes() == {"n1": ("127.0.0.1", 4100)}
        with pytest.raises(KeyError):
            client.node_addr("n2")

    def test_wait_for_nodes(self, ns):
        _server, client = ns
        client.register_node("n1", "h", 1)
        with pytest.raises(TimeoutError):
            client.wait_for_nodes(["n1", "n2"], timeout=0.1)
        client.register_node("n2", "h", 2)
        client.wait_for_nodes(["n1", "n2"], timeout=1.0)


class TestSubscriptions:
    def test_version_polling_fires_subscribers(self, ns):
        server, client = ns
        # A second client plays the role of another daemon: its
        # registrations must reach the first client's subscribers.
        other = NameServiceClient(server.host, server.port)
        fired = []
        client.subscribe(lambda: fired.append(1))
        try:
            other.register_site("alpha", "n1")
            other.export_name("alpha", "svc", 3)
            assert wait_until(lambda: fired)
        finally:
            other.close()

    def test_resubscribing_is_a_noop_and_order_is_first_subscription(self, ns):
        # A daemon subscribes Node._on_ns_update once per site it
        # creates; the poller must still run it once per version bump.
        class Waiter:
            def __init__(self, tag, log):
                self.tag, self.log = tag, log

            def woken(self):
                self.log.append(self.tag)

        _server, client = ns
        log = []
        first, second = Waiter("first", log), Waiter("second", log)
        for _ in range(100):
            client.subscribe(first.woken)
        client.subscribe(second.woken)
        client.subscribe(first.woken)
        client.register_site("alpha", "n1")
        # "second" runs last, so seeing it means the bump's loop is over.
        assert wait_until(lambda: "second" in log)
        assert log == ["first", "second"]
        client.export_name("alpha", "svc", 3)
        assert wait_until(lambda: log.count("second") == 2)
        assert log == ["first", "second"] * 2

    def test_reconnects_after_transient_failure(self, ns):
        _server, client = ns
        client.register_site("alpha", "n1")
        # Sever the connection behind the client's back; the next call
        # must transparently redial.
        client._sock.close()
        assert client.lookup_site("alpha").site_name == "alpha"
