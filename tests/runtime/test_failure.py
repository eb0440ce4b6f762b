"""Tests for failure detection and reconfiguration (section 7 future work)."""

import pytest

from repro.runtime import DiTyCONetwork, HeartbeatMonitor
from repro.transport import SimWorld


def running_net():
    world = SimWorld()
    net = DiTyCONetwork(world=world)
    net.add_nodes(["n1", "n2"])
    net.launch("n1", "server", "export new svc svc?(w) = print![w]")
    net.launch("n2", "client", "import svc from server in svc![1]")
    net.run()
    return world, net


class TestFailureInjection:
    def test_failed_node_stops_computing(self):
        world, net = running_net()
        world.fail_node("n1")
        net.launch("n2", "client2", "import svc from server in svc![2]")
        world.run()
        # The second message was dropped on delivery.
        assert net.site("server").output == [1]
        assert world.dropped_packets >= 1

    def test_packets_from_failed_node_dropped(self):
        world, net = running_net()
        world.fail_node("n2")
        net.launch("n1", "local2", "import svc from server in svc![3]")
        world.run()
        # Same-node send still works (n1 alive); only n2 is dead.  The
        # ephemeral svc object was consumed by the first message, so
        # the new one queues -- delivery is what we assert.
        server = net.site("server")
        assert server.stats.packets_received == 2
        assert server.vm.heap.live_queues() == 1

    def test_fail_unknown_node(self):
        world = SimWorld()
        with pytest.raises(LookupError):
            world.fail_node("ghost")


class TestHeartbeatMonitor:
    def test_detects_failed_node(self):
        world, net = running_net()
        monitor = HeartbeatMonitor(world, net.nameservice,
                                   period=1e-3, timeout=3.5e-3)
        seen = []
        monitor.on_failure(lambda s: seen.append(s.ip))
        monitor.install(horizon=0.02)
        world.schedule_at(world.time + 2e-3, lambda: world.fail_node("n1"))
        world.run()
        assert seen == ["n1"]
        suspicion = monitor.suspected["n1"]
        assert suspicion.detected_at - suspicion.last_heartbeat >= 3.5e-3

    def test_no_false_suspicion_without_failure(self):
        world, net = running_net()
        monitor = HeartbeatMonitor(world, net.nameservice,
                                   period=1e-3, timeout=3.5e-3)
        monitor.install(horizon=0.01)
        world.run()
        assert monitor.suspected == {}
        assert monitor.heartbeats_seen > 0

    def test_reconfiguration_unregisters_names(self):
        world, net = running_net()
        monitor = HeartbeatMonitor(world, net.nameservice,
                                   period=1e-3, timeout=3.5e-3)
        monitor.install(horizon=0.02)
        world.schedule_at(world.time + 2e-3, lambda: world.fail_node("n1"))
        world.run()
        # server's export is gone: importers now stall instead of
        # shipping into a void.
        assert net.nameservice.lookup_name("server", "svc") is None

    def test_imports_stall_after_reconfiguration(self):
        world, net = running_net()
        monitor = HeartbeatMonitor(world, net.nameservice,
                                   period=1e-3, timeout=3.5e-3)
        monitor.install(horizon=0.02)
        world.schedule_at(world.time + 2e-3, lambda: world.fail_node("n1"))
        world.run()
        net.launch("n2", "late", "import svc from server in svc![9]")
        world.run()
        assert net.site("late").vm.has_stalled()

    def test_timeout_must_exceed_period(self):
        world, net = running_net()
        with pytest.raises(ValueError):
            HeartbeatMonitor(world, net.nameservice, period=1e-3, timeout=1e-3)

    def test_double_install_rejected(self):
        world, net = running_net()
        monitor = HeartbeatMonitor(world, net.nameservice)
        monitor.install(horizon=0.005)
        with pytest.raises(RuntimeError):
            monitor.install(horizon=0.005)

    def test_heartbeat_exactly_at_timeout_not_suspected(self):
        """The deadline is strict: a silence of *exactly* ``timeout``
        is still alive; suspicion fires at the first check after it.

        Powers of two keep every tick time and subtraction exact, so
        this really probes the boundary and not float rounding."""
        period = 2.0 ** -10
        timeout = 3 * period
        world = SimWorld()
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2"])
        monitor = HeartbeatMonitor(world, net.nameservice,
                                   period=period, timeout=timeout)
        monitor.install(horizon=10 * period)
        world.fail_node("n1")  # at t=0, right after last_heartbeat=0
        world.run()
        suspicion = monitor.suspected["n1"]
        # At t=3p the silence equals timeout exactly: not suspected.
        # The 4p check is the first with silence > timeout.
        assert suspicion.detected_at == 4 * period
        assert suspicion.last_heartbeat == 0.0

    def test_crash_between_detector_periods(self):
        """A node dying *between* ticks is charged silence from its
        last actual heartbeat, not from the crash instant."""
        period = 2.0 ** -10
        timeout = 3.5 * period
        world = SimWorld()
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2"])
        monitor = HeartbeatMonitor(world, net.nameservice,
                                   period=period, timeout=timeout)
        monitor.install(horizon=10 * period)
        world.schedule_at(2.5 * period, lambda: world.fail_node("n1"))
        world.run()
        suspicion = monitor.suspected["n1"]
        assert suspicion.last_heartbeat == 2 * period
        # First tick with now - 2p > 3.5p is 6p.
        assert suspicion.detected_at == 6 * period

    def test_double_fail_node_is_idempotent(self):
        """Crashing a crashed node is a no-op: one suspicion, one
        reconfiguration callback."""
        world, net = running_net()
        monitor = HeartbeatMonitor(world, net.nameservice,
                                   period=1e-3, timeout=3.5e-3)
        seen = []
        monitor.on_failure(lambda s: seen.append(s.ip))
        monitor.install(horizon=0.02)
        world.fail_node("n1")
        world.fail_node("n1")
        world.run()
        assert seen == ["n1"]
        assert world.is_failed("n1")

    def test_restart_clears_suspicion(self):
        """A restarted node heartbeats again and sheds its suspicion
        (its exports stay unregistered until relaunched)."""
        world, net = running_net()
        monitor = HeartbeatMonitor(world, net.nameservice,
                                   period=1e-3, timeout=3.5e-3)
        monitor.install(horizon=0.03)
        world.schedule_at(2e-3, lambda: world.fail_node("n1"))
        world.schedule_at(15e-3, lambda: world.restart_node("n1"))
        world.run()
        assert "n1" not in monitor.suspected
        assert "n1" in world.restarted
        # Reconfiguration already removed the dead exports; they do
        # not silently reappear on restart.
        assert net.nameservice.lookup_name("server", "svc") is None

    def test_recovery_reexport(self):
        """After a failure, the service can be relaunched on a healthy
        node and importers recover (the reconfiguration story)."""
        world, net = running_net()
        monitor = HeartbeatMonitor(world, net.nameservice,
                                   period=1e-3, timeout=3.5e-3)
        monitor.install(horizon=0.02)
        world.schedule_at(world.time + 2e-3, lambda: world.fail_node("n1"))
        world.run()
        net.launch("n2", "late", "import svc from server in svc![9]")
        world.run()
        assert net.site("late").vm.has_stalled()
        # Relaunch the server site on n2 under the same site name.
        net.launch("n2", "server", "export new svc svc?(w) = print![w]")
        world.run()
        new_server = [s for s in net.node("n2").sites.values()
                      if s.site_name == "server"]
        assert new_server and new_server[0].output == [9]
