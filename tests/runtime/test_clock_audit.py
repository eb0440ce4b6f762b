"""Regression tests for wall-clock vs virtual-clock mixups.

The runtime has two time bases: SimWorld's virtual clock (microsecond
scale, advanced by the scheduler) and the wall clock of the socket
transport, in one process or many (repro.transport.clock.monotime).
Components written against one must not silently run on the other:

* pre-scheduling detectors (HeartbeatMonitor, GcScheduler) only make
  sense on a virtual clock and must refuse wall-clock worlds;
* the distributed GC's sim-scale lease terms are shorter than a GIL
  scheduling hiccup and must be rescaled on wall-clock transports;
* every wall-clock component must read the *same* monotonic helper,
  so the audit has a single import site.
"""

import time

import pytest

from repro.runtime import (
    DiTyCONetwork,
    GcConfig,
    GcScheduler,
    HeartbeatMonitor,
    NameService,
)
from repro.transport import SimWorld, SocketWorld
from repro.transport.clock import monotime


@pytest.fixture
def wall_world():
    world = SocketWorld()
    try:
        yield world
    finally:
        world.shutdown()


class TestSchedulersRefuseWallClockWorlds:
    def test_heartbeat_monitor_rejects_socket_world(self, wall_world):
        with pytest.raises(TypeError, match="virtual-clock"):
            HeartbeatMonitor(wall_world, NameService())

    def test_heartbeat_monitor_accepts_sim_world(self):
        monitor = HeartbeatMonitor(SimWorld(), NameService())
        monitor.install(horizon=0.01)

    def test_gc_scheduler_rejects_wall_clock_worlds(self, wall_world):
        with pytest.raises(TypeError, match="virtual-clock"):
            GcScheduler(wall_world)

    def test_gc_scheduler_accepts_sim_world(self):
        GcScheduler(SimWorld()).install(horizon=0.01)


class TestGcConfigScaling:
    def test_wall_clock_defaults_keep_sim_ratios(self):
        sim, wall = GcConfig(), GcConfig.wall_clock()
        assert wall.lease_s / wall.renew_s == sim.lease_s / sim.renew_s
        assert wall.renew_s / wall.sweep_s == sim.renew_s / sim.sweep_s
        assert wall.lease_s >= 1.0     # survives scheduling hiccups

    def test_network_scales_gc_terms_on_wall_clock_world(self, wall_world):
        net = DiTyCONetwork(world=wall_world, distgc=True)
        node = net.add_node("n1")
        site = net.launch("n1", "s", "new x x?(v) = 0")
        assert node.gc_config.lease_s == GcConfig.wall_clock().lease_s
        assert site.distgc.config.lease_s == GcConfig.wall_clock().lease_s

    def test_network_keeps_sim_defaults_on_sim_world(self):
        net = DiTyCONetwork(distgc=True)
        net.add_node("n1")
        site = net.launch("n1", "s", "new x x?(v) = 0")
        assert site.distgc.config.lease_s == GcConfig().lease_s

    def test_explicit_config_wins_everywhere(self, wall_world):
        custom = GcConfig(lease_s=9.0, renew_s=2.0, sweep_s=1.0)
        net = DiTyCONetwork(world=wall_world, distgc=True, gc_config=custom)
        net.add_node("n1")
        site = net.launch("n1", "s", "new x x?(v) = 0")
        assert site.distgc.config is custom


class TestSharedMonotonicClock:
    def test_wall_clock_worlds_read_monotime(self, wall_world):
        before = monotime()
        assert before <= wall_world.time <= monotime()

    def test_monotime_is_the_monotonic_clock(self):
        assert abs(monotime() - time.monotonic()) < 0.5

    def test_node_and_site_default_to_monotime(self):
        from repro.runtime import Node

        node = Node("n1", NameService())
        assert node._clock is monotime

    def test_sim_world_nodes_keep_the_virtual_clock(self):
        net = DiTyCONetwork()
        node = net.add_node("n1")
        assert node.now() == 0.0
        net.world.schedule_at(1.5, lambda: None)
        net.run()
        assert node.now() == pytest.approx(1.5)
