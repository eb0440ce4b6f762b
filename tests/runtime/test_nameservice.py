"""Unit tests for the network name service."""

import pytest

from repro.runtime import (
    NameService,
    NameServiceError,
    UnknownSiteName,
)
from repro.vm.values import NetRef, RemoteClassRef


class TestSiteTable:
    def test_register_assigns_ids(self):
        ns = NameService()
        a = ns.register_site("alpha", "10.0.0.1")
        b = ns.register_site("beta", "10.0.0.2")
        assert a != b

    def test_reregister_same_ip_idempotent(self):
        ns = NameService()
        a = ns.register_site("alpha", "10.0.0.1")
        assert ns.register_site("alpha", "10.0.0.1") == a

    def test_reregister_other_ip_conflict(self):
        ns = NameService()
        ns.register_site("alpha", "10.0.0.1")
        with pytest.raises(NameServiceError):
            ns.register_site("alpha", "10.0.0.2")

    def test_lookup_site(self):
        ns = NameService()
        sid = ns.register_site("alpha", "10.0.0.1")
        rec = ns.lookup_site("alpha")
        assert rec.site_id == sid and rec.ip == "10.0.0.1"

    def test_lookup_unknown_site(self):
        ns = NameService()
        with pytest.raises(UnknownSiteName):
            ns.lookup_site("ghost")


class TestIdTable:
    def test_export_and_lookup(self):
        ns = NameService()
        sid = ns.register_site("server", "10.0.0.1")
        ns.export_name("server", "appletserver", 42)
        ref = ns.lookup_name("server", "appletserver")
        assert ref == NetRef(heap_id=42, site_id=sid, ip="10.0.0.1")

    def test_lookup_missing_returns_none(self):
        ns = NameService()
        ns.register_site("server", "10.0.0.1")
        assert ns.lookup_name("server", "nope") is None
        assert ns.stats.misses == 1

    def test_lookup_unknown_site_returns_none(self):
        ns = NameService()
        assert ns.lookup_name("ghost", "x") is None

    def test_export_requires_registered_site(self):
        ns = NameService()
        with pytest.raises(UnknownSiteName):
            ns.export_name("ghost", "x", 1)

    def test_class_table(self):
        ns = NameService()
        sid = ns.register_site("server", "10.0.0.1")
        ns.export_class("server", "Applet", 7)
        ref = ns.lookup_class("server", "Applet")
        assert ref == RemoteClassRef(class_id=7, site_id=sid, ip="10.0.0.1")

    def test_counts(self):
        ns = NameService()
        ns.register_site("a", "ip1")
        ns.export_name("a", "x", 1)
        ns.export_class("a", "X", 1)
        assert ns.site_count() == 1
        assert ns.exported_count() == 2


class TestUnregister:
    def test_unregister_export(self):
        ns = NameService()
        ns.register_site("s", "ip")
        ns.export_name("s", "x", 1)
        assert ns.unregister_export("s", "x") is True
        assert ns.lookup_name("s", "x") is None
        assert ns.unregister_export("s", "x") is False

    def test_unregister_class_export(self):
        ns = NameService()
        ns.register_site("s", "ip")
        ns.export_class("s", "X", 2)
        assert ns.unregister_class_export("s", "X") is True
        assert ns.lookup_class("s", "X") is None
        assert ns.unregister_class_export("s", "X") is False

    def test_unregister_unknown_site_is_false(self):
        ns = NameService()
        assert ns.unregister_export("ghost", "x") is False
        assert ns.unregister_site("ghost") is False

    def test_unregister_site_takes_its_rows_and_retires_its_id(self):
        ns = NameService()
        woken = []
        ns.subscribe(lambda: woken.append(1))
        first = ns.register_site("s", "ip")
        ns.register_site("t", "ip")
        for site in ("s", "t"):
            ns.export_name(site, "x", 1)
            ns.export_class(site, "X", 2)
        before = len(woken)
        assert ns.unregister_site("s") is True
        assert len(woken) == before            # removals never notify
        assert ns.lookup_name("s", "x") is None
        assert ns.lookup_class("s", "X") is None
        with pytest.raises(UnknownSiteName):
            ns.lookup_site("s")
        with pytest.raises(UnknownSiteName):
            ns.export_name("s", "x", 1)
        assert ns.snapshot() == {
            "sites": {"t": ns.lookup_site("t")},
            "names": {("t", "x"): 1}, "classes": {("t", "X"): 2}}
        assert ns.unregister_site("s") is False
        # The name is free for any node; the id is never handed out again.
        assert ns.register_site("s", "elsewhere") > max(
            first, ns.lookup_site("t").site_id)


class TestSubscriptions:
    def test_callbacks_fired_on_registration(self):
        ns = NameService()
        events = []
        ns.subscribe(lambda: events.append(1))
        ns.register_site("a", "ip")
        ns.export_name("a", "x", 1)
        assert len(events) == 2

    def test_subscription_is_a_membership_not_a_log(self):
        class Waiter:
            def __init__(self, tag, log):
                self.tag, self.log = tag, log

            def woken(self):
                self.log.append(self.tag)

        ns = NameService()
        log = []
        first, second = Waiter("first", log), Waiter("second", log)
        for _ in range(100):
            # A fresh bound-method object every time, as in create_site.
            ns.subscribe(first.woken)
        ns.subscribe(second.woken)
        ns.subscribe(first.woken)      # keeps its place
        ns.register_site("a", "ip")
        assert log == ["first", "second"]
        ns.export_name("a", "x", 1)
        ns.export_class("a", "K", 2)
        ns.rebind_site("a", "ip2")
        assert log == ["first", "second"] * 4
        assert ns.stats.wakeups == 8

    def test_wakeups_count_callbacks_invoked(self):
        ns = NameService()
        ns.register_site("a", "ip")           # nobody listening yet
        assert ns.stats.wakeups == 0
        ns.subscribe(lambda: None)
        ns.subscribe(lambda: None)            # distinct callables
        ns.export_name("a", "x", 1)
        assert ns.stats.wakeups == 2
        ns.register_site("a", "ip")           # idempotent: no notify
        ns.unregister_export("a", "x")        # removals never notify
        assert ns.stats.wakeups == 2


def test_one_store_only():
    """One store, one TCP front: any other name-service class is an
    ``ImportError``, not an alias."""
    import repro.runtime as runtime

    assert sorted(n for n in dir(runtime) if "NameService" in n) == [
        "NameService", "NameServiceClient", "NameServiceError",
        "NameServiceServer", "NameServiceStats"]
