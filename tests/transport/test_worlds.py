"""Tests for the simulated and socket worlds driving the same runtime."""

import importlib
import sys

import pytest

from repro.runtime import DiTyCONetwork
from repro.transport import SimWorld, SocketWorld, myrinet_cluster


SERVER = "export new svc svc?(r) = r![7]"
CLIENT = "import svc from server in new a (svc![a] | a?(w) = print![w])"


class TestSimWorld:
    def test_virtual_clock_advances(self):
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "server", SERVER)
        net.launch("n2", "client", CLIENT)
        assert net.time == 0.0
        net.run()
        assert net.time > 0.0

    def test_compute_time_charged(self):
        world = SimWorld(myrinet_cluster())
        net = DiTyCONetwork(world=world)
        net.add_node("n1")
        net.launch("n1", "solo",
                   "def Loop(n) = if n > 0 then Loop[n - 1] else print![0] in Loop[100]")
        net.run()
        assert world.compute_time > 0.0
        assert net.site("solo").output == [0]

    def test_packet_accounting(self):
        world = SimWorld()
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "server", SERVER)
        net.launch("n2", "client", CLIENT)
        net.run()
        assert world.stats.packets == 2  # request + reply
        assert world.stats.bytes > 0
        assert world.deliveries == 2

    def test_max_time_bound(self):
        world = SimWorld()
        net = DiTyCONetwork(world=world)
        net.add_node("n1")
        net.launch("n1", "diverge", "def Loop(n) = Loop[n + 1] in Loop[0]")
        net.run(max_time=1e-4)
        assert world.time <= 1e-4 + 1e-9
        assert not net.is_quiescent()

    def test_duplicate_ip_rejected(self):
        net = DiTyCONetwork()
        net.add_node("n1")
        with pytest.raises(ValueError):
            net.add_node("n1")

    def test_unknown_destination_raises(self):
        world = SimWorld()
        with pytest.raises(LookupError):
            world._send("a", "ghost", b"data")

    def test_schedule_at_past_rejected(self):
        world = SimWorld()
        net = DiTyCONetwork(world=world)
        net.add_node("n1")
        net.launch("n1", "s", "print![1]")
        net.run()
        with pytest.raises(ValueError):
            world.schedule_at(world.time - 1e-6, lambda: None)

    def test_schedule_at_rejects_a_missing_action(self):
        # Refused at the call, not as "'NoneType' object is not
        # callable" out of run() a virtual second later.
        world = SimWorld()
        with pytest.raises(TypeError, match="callable"):
            world.schedule_at(1.0, None)
        assert world.run() == 0.0

    def test_schedule_at_future_fires_in_order(self):
        world = SimWorld()
        fired = []
        world.schedule_at(2e-3, lambda: fired.append("late"))
        world.schedule_at(1e-3, lambda: fired.append("early"))
        world.run()
        assert fired == ["early", "late"]
        assert world.time == 2e-3

    def test_cancelled_action_neither_runs_nor_advances_the_clock(self):
        world = SimWorld()
        fired = []
        world.schedule_at(1e-3, lambda: fired.append("kept"))
        cancel = world.schedule_at(2e-3, lambda: fired.append("cancelled"))
        cancel()
        assert world.run() == 1e-3
        assert fired == ["kept"]
        cancel()                     # once it is gone: a no-op

    def test_cancel_after_falling_due_before_firing(self):
        world = SimWorld()
        fired = []
        cancels = []
        world.schedule_at(1e-3, lambda: cancels[0]())
        cancels.append(world.schedule_at(1e-3, lambda: fired.append("due")))
        world.run()
        assert fired == []

    def test_failed_node_not_scheduled(self):
        world = SimWorld()
        net = DiTyCONetwork(world=world)
        net.add_node("n1")
        net.launch("n1", "diverge", "def L(n) = L[n + 1] in L[0]")
        world.run(max_time=1e-5)
        executed_before = net.node("n1").total_instructions()
        world.fail_node("n1")
        world.run(max_time=1e-3)
        assert net.node("n1").total_instructions() == executed_before

    def test_determinism_across_runs(self):
        def one_run():
            net = DiTyCONetwork()
            net.add_nodes(["n1", "n2"])
            net.launch("n1", "server", SERVER)
            net.launch("n2", "client", CLIENT)
            elapsed = net.run()
            return elapsed, net.site("client").output

        assert one_run() == one_run()


class TestWallClockWorld:
    def _run(self, programs, timeout=20.0):
        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        ips = sorted({ip for ip, _, _ in programs})
        net.add_nodes(ips)
        try:
            for ip, name, src in programs:
                net.launch(ip, name, src)
            net.run(max_time=timeout)
            return net, world
        finally:
            world.shutdown()

    def test_remote_message(self):
        net, _ = self._run([
            ("n1", "server", SERVER),
            ("n2", "client", CLIENT),
        ])
        assert net.site("client").output == [7]

    def test_fetch_over_threads(self):
        net, _ = self._run([
            ("n1", "server", "export def Applet(x) = x![6 * 7] in 0"),
            ("n2", "client",
             "import Applet from server in new v (Applet[v] | v?(w) = print![w])"),
        ])
        assert net.site("client").output == [42]
        assert net.site("client").stats.fetch_requests_sent == 1

    def test_many_sites_same_node(self):
        programs = [("n1", "hub", "export new svc svc?(w) = print![w]")]
        for i in range(4):
            programs.append(
                ("n1", f"c{i}", f"import svc from hub in svc![{i}]"))
        net, _ = self._run(programs)
        hub_out = sorted(net.site("hub").output)
        # Only one message wins the ephemeral object; the rest queue.
        assert len(hub_out) == 1

    def test_cross_node_fanin(self):
        server = """
        export def Collect(v, sink) = sink![v]
        in export new svc (
          (svc?(a) = print![a]) | (svc?(b) = print![b]) | svc?(c) = print![c]
        )
        """
        programs = [("n1", "server", server)]
        for i, node in enumerate(["n2", "n3", "n4"]):
            programs.append(
                (node, f"w{i}", f"import svc from server in svc![{i * 10}]"))
        net, world = self._run(programs)
        assert sorted(net.site("server").output) == [0, 10, 20]
        assert world.stats.packets >= 3

    def test_launch_storm_into_a_started_world(self):
        # Each net.launch inserts into node.sites and, through every
        # client's export, runs every node's _on_ns_update.  It reaches
        # the node through World.call, on the loop that steps it, so a
        # storm of launches from this thread races nothing: no node
        # stops and every client is answered.
        client = ("import svc from server in "
                  "export new a (svc![a] | a?(w) = print![w])")
        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2"])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            net.launch("n1", "server", (
                "def Serve(c) = c?(r) = (r![7] | Serve[c]) "
                "in export new svc Serve[svc]"))
            world.start()
            for i in range(200):
                net.launch("n2", f"c{i}", client)
            net.run(max_time=60.0)
            assert world._errors == {}
            assert all(net.site(f"c{i}").output == [7] for i in range(200))
        finally:
            sys.setswitchinterval(interval)
            world.shutdown()

    def test_quiescence_timeout(self):
        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_node("n1")
        try:
            net.launch("n1", "diverge", "def Loop(n) = Loop[n + 1] in Loop[0]")
            with pytest.raises(TimeoutError):
                net.run(max_time=0.3)
        finally:
            world.shutdown()

    def test_shutdown_idempotent(self):
        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_node("n1")
        net.launch("n1", "s", "print![1]")
        net.run(max_time=10.0)
        world.shutdown()
        world.shutdown()
        assert net.site("s").output == [1]


def test_two_worlds_only():
    """One deterministic world, one wall-clock world: any other is an
    ``ImportError``, not an alias."""
    import repro.transport as transport

    assert sorted(n for n in dir(transport) if n.endswith("World")) == [
        "SimWorld", "SocketWorld", "World"]
    with pytest.raises(ImportError):
        importlib.import_module(".threaded", "repro.transport")
