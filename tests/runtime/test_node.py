"""Unit tests for nodes and the TyCOd/TyCOi daemons."""

import pytest

from repro.compiler import compile_source
from repro.runtime import DiTyCONetwork, NameService, Node
from repro.runtime.nameservice import UnknownSiteName


def bare_node(ip="n1", **kwargs):
    ns = NameService()
    node = Node(ip, ns, **kwargs)
    sent = []
    node.attach_transport(lambda src, dst, data: sent.append((src, dst, data)))
    return node, ns, sent


class TestSitePool:
    def test_create_site_registers_and_boots(self):
        node, ns, _ = bare_node()
        site = node.create_site("solo", compile_source("print![1]"))
        assert ns.lookup_site("solo").ip == "n1"
        node.step()
        assert site.output == [1]

    def test_multiple_sites_share_quantum(self):
        node, _, _ = bare_node()
        for i in range(4):
            node.create_site(
                f"s{i}",
                compile_source(f"def L(n) = L[n + 1] in L[{i}]"))
        report = node.step(quantum=100)
        # Budget split across sites: roughly the quantum in total.
        assert 50 <= report.instructions <= 104

    def test_step_report_busy_flag(self):
        node, _, _ = bare_node()
        report = node.step()
        assert not report.busy
        node.create_site("s", compile_source("print![1]"))
        assert node.step().busy

    def test_context_switch_delta(self):
        node, _, _ = bare_node()
        node.create_site("s", compile_source("x![1] | y![2] | z![3]"))
        r1 = node.step()
        assert r1.context_switches > 0
        r2 = node.step()
        assert r2.context_switches == 0  # idle now

    def test_site_lookup_by_name(self):
        node, _, _ = bare_node()
        site = node.create_site("named", compile_source("0"))
        assert node.site("named") is site


class TestTyCOd:
    def test_local_routing_same_node(self):
        node, _, sent = bare_node()
        node.create_site("server",
                         compile_source("export new svc svc?(w) = print![w]"))
        node.step()
        node.create_site("client",
                         compile_source("import svc from server in svc![3]"))
        for _ in range(5):
            node.step()
        assert node.site("server").output == [3]
        assert sent == []  # never touched the transport
        assert node.tycod.stats.local_deliveries >= 1

    def test_remote_routing_uses_transport(self):
        node, ns, sent = bare_node()
        # Register a fake remote site so the import resolves to another ip.
        ns.register_site("faraway", "other-ip")
        ns.export_name("faraway", "svc", 7)
        node.create_site("client",
                         compile_source("import svc from faraway in svc![1]"))
        for _ in range(5):
            node.step()
        assert len(sent) == 1
        src, dst, data = sent[0]
        assert (src, dst) == ("n1", "other-ip")
        assert isinstance(data, bytes)
        assert node.tycod.stats.remote_sends == 1

    def test_receive_routes_to_site(self):
        from repro.runtime.wire import KIND_MESSAGE, Packet, encode

        node, ns, _ = bare_node()
        site = node.create_site(
            "server", compile_source("export new svc svc?(w) = print![w]"))
        node.step()
        heap_id = ns.lookup_name("server", "svc").heap_id
        pkt = Packet(kind=KIND_MESSAGE, src_ip="x", src_site_id=99,
                     dest_ip="n1", dest_site_id=site.site_id,
                     payload=(heap_id, "val", (5,)))
        node.receive(encode(pkt))
        node.step()
        assert site.output == [5]

    def test_receive_for_unknown_site(self):
        from repro.runtime.wire import KIND_MESSAGE, Packet, encode

        node, _, _ = bare_node()
        pkt = Packet(kind=KIND_MESSAGE, src_ip="x", src_site_id=1,
                     dest_ip="n1", dest_site_id=42, payload=(1, "val", ()))
        with pytest.raises(LookupError):
            node.receive(encode(pkt))

    @pytest.mark.parametrize("kind", ["ref_lease", "ref_renew", "ref_drop"])
    def test_lease_traffic_for_a_gone_site_is_counted_not_raised(self, kind):
        # With distgc on, a holder's sweep outlives the owners it
        # leased from: a claim, renewal or drop for a reaped site has
        # nobody left to hold or release the lease.
        from repro.obs import EventBus, TraceCollector
        from repro.runtime.wire import Packet, encode

        node, _, _ = bare_node()
        bus, events = EventBus(), TraceCollector()
        bus.subscribe(events)
        node.attach_obs(bus)
        pkt = Packet(kind=kind, src_ip="x", src_site_id=1,
                     dest_ip="n1", dest_site_id=42, payload=((("n", 2),),))
        node.receive(encode(pkt))
        assert node.tycod.stats.orphan_refs_dropped == 1
        (event,) = events.events
        assert (event.kind, event.src, event.node) == ("gc-late", "x", "n1")
        assert "site 42 is gone" in event.note and kind in event.note


class TestTyCOi:
    def test_submit_source(self):
        node, _, _ = bare_node()
        node.tycoi.submit("s", "print![9]")
        node.step()
        assert node.site("s").output == [9]
        assert node.tycoi.submissions == 1

    def test_submit_program_object(self):
        node, _, _ = bare_node()
        node.tycoi.submit("s", compile_source("print![8]"))
        node.step()
        assert node.site("s").output == [8]

    def test_submit_rejects_other_types(self):
        node, _, _ = bare_node()
        with pytest.raises(TypeError):
            node.tycoi.submit("s", 42)

    def test_reap_removes_finished_sites(self):
        node, _, _ = bare_node()
        node.tycoi.submit("done", "print![1]")
        node.tycoi.submit("waiting", "new x x![1]")  # queues forever
        for _ in range(3):
            node.step()
        reaped = node.tycoi.reap()
        assert reaped == 1
        assert "done" not in [s.site_name for s in node.sites.values()]
        # Gone by name too: no zombie to look up or migrate.
        assert "done" not in node.sites_by_name
        with pytest.raises(KeyError):
            node.site("done")
        # The site with a live queue survives, under both keys.
        assert any(s.site_name == "waiting" for s in node.sites.values())
        assert node.site("waiting") is node.sites_by_name["waiting"]
        assert len(node.sites_by_name) == len(node.sites) == 1

    def test_relaunch_of_a_live_name_is_refused(self):
        # The second launch used to take the first site's id and pool
        # slot: the server's threads and waiting object vanished while
        # its IdTable row stayed, and the client's import ended in
        # "DeliveryError: delivery to unexported heap id".
        from repro.runtime import NameServiceError

        net = DiTyCONetwork()
        net.add_nodes(["n0", "n1"])
        first = net.launch("n0", "s", "export new c c?(v) = print![v]")
        net.run()
        registrations = net.nameservice.stats.site_registrations
        with pytest.raises(NameServiceError, match="'s' already registered at n0"):
            net.launch("n0", "s", "export new d d?(v) = print![v + 1]")
        # Refused before the name service or the pool were touched.
        assert net.nameservice.stats.site_registrations == registrations
        assert net.node("n0").sites_by_name == {"s": first}
        assert net.node("n0").sites == {first.site_id: first}
        net.launch("n1", "client", "import c from s in c![41]")
        net.run()
        assert first.output == [41]

    def test_relaunch_after_reap_reuses_the_name(self):
        # The name is free again; the site id is not.  A reaped site
        # leaves the SiteTable, so the relaunch is a new site: a
        # reference to the dead a.x (site 1, heap 2) must not address
        # the new a.y, which gets heap 2 again.
        net = DiTyCONetwork()
        net.add_node("n0")
        ns = net.node("n0").nameservice
        first = net.launch("n0", "a", "export new x (x![1] | x?(v) = print![v])")
        net.run()
        dead = ns.lookup_name("a", "x")
        assert (dead.site_id, first.output) == (first.site_id, [1])
        assert net.node("n0").tycoi.reap() == 1
        assert ns.lookup_name("a", "x") is None
        with pytest.raises(UnknownSiteName):
            ns.lookup_site("a")
        assert ns.snapshot() == {"sites": {}, "names": {}, "classes": {}}
        second = net.launch("n0", "a", "export new y (y![2] | y?(v) = print![v])")
        net.run()
        assert second is not first and second.site_id > first.site_id
        live = ns.lookup_name("a", "y")
        assert live.heap_id == dead.heap_id and live != dead
        assert ns.lookup_name("a", "x") is None
        assert net.site("a") is second and second.output == [2]

    def test_typechecking_node_rejects_bad_source(self):
        from repro.types import TycoTypeError

        ns = NameService()
        node = Node("n1", ns, typecheck=True)
        node.attach_transport(lambda *a: None)
        with pytest.raises(TycoTypeError):
            node.tycoi.submit("bad", "new x (x![true] | x?(n) = y![n + 1])")


class TestQuiescence:
    def test_has_work_and_is_quiescent(self):
        node, _, _ = bare_node()
        assert not node.has_work()
        assert node.is_quiescent()
        node.create_site("s", compile_source("print![1]"))
        assert node.has_work()
        assert not node.is_quiescent()
        node.step()
        assert node.is_quiescent()

    def test_stalled_import_blocks_quiescence(self):
        node, _, _ = bare_node()
        node.create_site("s", compile_source(
            "import ghost from nowhere in ghost![1]"))
        node.step()
        assert not node.is_quiescent()  # stalled, not finished
        assert not node.has_work()      # but nothing runnable

    def test_aggregate_stats(self):
        node, _, _ = bare_node()
        node.create_site("a", compile_source("new x (x![1] | x?(w) = 0)"))
        node.create_site("b", compile_source("def C() = 0 in C[]"))
        for _ in range(3):
            node.step()
        assert node.total_reductions() == 2
        assert node.total_instructions() > 0


LOOP = "def L(n) = L[n + 1] in L[0]"


def count_site_steps(monkeypatch):
    """Record the name of every site ``Site.step`` is called on."""
    from repro.runtime.site import Site

    stepped = []
    real = Site.step

    def step(self, budget):
        stepped.append(self.site_name)
        return real(self, budget)

    monkeypatch.setattr(Site, "step", step)
    return stepped


class TestQuantumCostsWhatRanInIt:
    """``Node.step`` steps the sites that have work, and nothing else."""

    def test_drained_sites_are_not_stepped(self, monkeypatch):
        node, _, _ = bare_node()
        for i in range(20):
            node.create_site(f"done{i}", compile_source(f"print![{i}]"))
        while node.step().busy:
            pass
        looper = node.create_site("looper", compile_source(LOOP))
        stepped = count_site_steps(monkeypatch)
        for _ in range(5):
            before = looper.vm.stats.instructions
            report = node.step(quantum=210)
            # The budget still divides by the whole pool: 210 // 21.
            assert report.instructions == 10
            assert looper.vm.stats.instructions - before == 10
        assert stepped == ["looper"] * 5

    def test_empty_quantum_returns_at_the_door(self, monkeypatch):
        node, _, _ = bare_node()
        node.create_site("s", compile_source("print![1]"))
        while node.step().busy:
            pass
        stepped = count_site_steps(monkeypatch)
        pumps = []
        monkeypatch.setattr(node.tycod, "pump", lambda: pumps.append(1) or 0)
        report = node.step()
        assert report.busy is False
        assert (report.instructions, report.context_switches,
                report.packets_moved) == (0, 0, 0)
        assert stepped == [] and pumps == []

    def test_empty_quantum_still_sweeps_when_due(self):
        from repro.runtime import GcConfig

        now = [0.0]
        ns = NameService()
        node = Node("n1", ns, distgc=True,
                    gc_config=GcConfig(sweep_s=1.0))
        node.attach_transport(lambda *a: None, clock=lambda: now[0])
        site = node.create_site("s", compile_source("print![1]"))
        while node.step().busy:
            pass
        assert not node.has_work()
        swept = site.distgc.stats.sweeps
        node.step()                      # not due: no sweep
        assert site.distgc.stats.sweeps == swept
        now[0] = node._next_sweep
        node.step()                      # due: the idle node sweeps
        assert site.distgc.stats.sweeps == swept + 1

    def test_mobility_manager_is_served_only_with_mail(self, monkeypatch):
        # Retries ride the world's timer, so a manager with an empty
        # inbox gives the quantum nothing to do: it returns at the door.
        node, _, _ = bare_node()
        node.create_site("s", compile_source("print![1]"))
        while node.step().busy:
            pass
        mobility = node.ensure_mobility()
        calls = []
        monkeypatch.setattr(mobility, "process_inbox",
                            lambda: calls.append("inbox") or 0)
        assert not node.has_work()
        node.step()
        assert calls == []
        mobility.inbox.append(object())
        assert node.has_work()
        node.step()
        assert calls == ["inbox"]

    def test_wakeup_during_the_walk_runs_in_the_same_quantum(self, monkeypatch):
        # `late` stalls on an import in the first quantum; `early`,
        # ahead of it in pool order, registers the name many quanta
        # later.  The name-service update resumes `late` while the walk
        # is at `early`, and the walk must still see it: a runnable set
        # snapshotted at the top of the quantum would run `late` one
        # quantum later and change every schedule that imports.
        node, ns, _ = bare_node()
        node.create_site("early", compile_source(
            "def Wait(n) = if n > 0 then Wait[n - 1] "
            "else export new svc svc?(w) = print![w] in Wait[3]"))
        late = node.create_site("late", compile_source(
            "import svc from early in svc![7]"))
        stepped = count_site_steps(monkeypatch)
        node.step(quantum=8)
        assert late.vm.has_stalled()
        for _ in range(100):
            del stepped[:]
            ran = late.vm.stats.instructions
            node.step(quantum=8)
            if not late.vm.has_stalled():
                break
            assert stepped == ["early"]   # a stalled site is not stepped
        else:
            pytest.fail("early never exported svc")
        assert stepped == ["early", "late"]
        assert late.vm.stats.instructions > ran
        while node.step().busy:
            pass
        assert node.site("early").output == [7]


class TestContextSwitchCharge:
    """Switches are charged per visited site: reaping refunds nothing,
    adoption brings no history."""

    def test_reap_is_not_a_refund(self):
        node, _, _ = bare_node()
        reports = []

        def run():
            while True:
                reports.append(node.step())
                if not reports[-1].busy:
                    return

        gone = node.tycoi.submit(
            "gone", "print![1] | print![2] | print![3] | print![4]")
        node.tycoi.submit("stays", "new x x![1]")   # live queue: not reaped
        run()
        assert gone.vm.runqueue.context_switches > 1
        assert node.tycoi.reap() == 1
        third = node.tycoi.submit("third", "print![5]")
        report = node.step()
        reports.append(report)
        # A whole-pool sum delta would charge `third - gone`: a busy
        # quantum at a negative price.
        assert report.context_switches == third.vm.runqueue.context_switches
        assert report.context_switches > 0
        run()
        assert all(r.context_switches >= 0 for r in reports)
        assert sum(r.context_switches for r in reports) == sum(
            s.vm.runqueue.context_switches
            for s in (gone, third, node.site("stays")))

    def test_adoption_brings_no_history(self):
        from repro.mobility.checkpoint import (read_checkpoint, restore_site,
                                               write_checkpoint)

        ns = NameService()
        src, dst = Node("n1", ns), Node("n2", ns)
        for node in (src, dst):
            node.attach_transport(lambda *a: None)
        site = src.create_site("looper", compile_source(LOOP))
        for _ in range(10):
            src.step()
        history = site.vm.runqueue.context_switches
        assert history > 50
        src.remove_site(site)
        rebuilt = restore_site(dst, *read_checkpoint(write_checkpoint(site)))
        assert rebuilt.vm.runqueue.context_switches == history
        dst.adopt_site(rebuilt)
        report = dst.step()
        ran = rebuilt.vm.runqueue.context_switches - history
        assert 0 < ran < history
        assert report.context_switches == ran
