"""Site-failure detection and reconfiguration (section 7, future work).

"We want to be able to detect site failures, reconfigure the
computation topology and to try to terminate computations cleanly."

:class:`HeartbeatMonitor` implements the standard heartbeat failure
detector over the simulated world: every node emits a heartbeat each
``period``; a node silent for ``timeout`` is *suspected* and the
registered reconfiguration callbacks fire.  The default
reconfiguration removes the dead node's sites from the network name
service (so later imports stall instead of shipping into a void).

Failure *injection* lives on the world: :meth:`SimWorld.fail_node`
stops scheduling a node and silently drops packets addressed to it --
the behaviour of a crashed machine on a switched network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.transport.sim import SimWorld

from .nameservice import NameService


@dataclass(slots=True)
class Suspicion:
    """One detected failure."""

    ip: str
    detected_at: float
    last_heartbeat: float


class HeartbeatMonitor:
    """Heartbeat failure detector for a simulated DiTyCO network."""

    def __init__(self, world: SimWorld, nameservice: NameService,
                 period: float = 1e-3, timeout: float = 3.5e-3) -> None:
        if timeout <= period:
            raise ValueError("timeout must exceed the heartbeat period")
        if world.wall_clock:
            # The detector pre-schedules ticks on the virtual clock;
            # silently accepting a wall-clock world would install
            # millisecond deadlines against time.monotonic() and
            # suspect every node on the first scheduling hiccup.
            raise TypeError(
                "HeartbeatMonitor needs a virtual-clock SimWorld; "
                f"{type(world).__name__} runs on the wall clock")
        self.world = world
        self.nameservice = nameservice
        self.period = period
        self.timeout = timeout
        self.last_heartbeat: dict[str, float] = {}
        self.suspected: dict[str, Suspicion] = {}
        self.heartbeats_seen = 0
        self._callbacks: list[Callable[[Suspicion], None]] = []
        self._installed = False

    def on_failure(self, callback: Callable[[Suspicion], None]) -> None:
        """Register a reconfiguration callback."""
        self._callbacks.append(callback)

    # -- installation ---------------------------------------------------------

    def install(self, horizon: float) -> None:
        """Schedule heartbeats and checks on the world's virtual clock
        up to ``horizon`` seconds from now."""
        if self._installed:
            raise RuntimeError("monitor already installed")
        self._installed = True
        now = self.world.time
        for ip in self.world.nodes:
            self.last_heartbeat[ip] = now
        ticks = int(horizon / self.period) + 1
        for k in range(1, ticks + 1):
            at = now + k * self.period
            self.world.schedule_at(at, self._tick)

    def _tick(self) -> None:
        now = self.world.time
        # Live nodes heartbeat; failed ones fall silent.  A restarted
        # node heartbeats again, which also clears its suspicion (the
        # detector is eventually accurate for healed partitions).
        for ip in self.world.nodes:
            if ip in self.world.failed:
                continue
            self.last_heartbeat[ip] = now
            self.heartbeats_seen += 1
            if ip in self.suspected:
                del self.suspected[ip]
        # Check deadlines.
        for ip, last in self.last_heartbeat.items():
            if ip in self.suspected:
                continue
            if now - last > self.timeout:
                suspicion = Suspicion(ip=ip, detected_at=now,
                                      last_heartbeat=last)
                self.suspected[ip] = suspicion
                self._reconfigure(suspicion)

    # -- reconfiguration -----------------------------------------------------------

    def _reconfigure(self, suspicion: Suspicion) -> None:
        self.unregister_node_sites(suspicion.ip)
        # Distributed GC reconfiguration: every live node expires the
        # suspect's leases (its references are gone, reclaim now) and
        # stops renewing into the void (a no-op on non-distgc nodes).
        for ip, node in self.world.nodes.items():
            if ip == suspicion.ip or ip in self.world.failed:
                continue
            node.on_peer_suspected(suspicion.ip)
        for cb in self._callbacks:
            cb(suspicion)

    def unregister_node_sites(self, ip: str) -> None:
        """Remove every name-service entry owned by sites of ``ip``.

        Lookups for these identifiers then return None, so importers
        stall (recoverably) instead of shipping packets into a void.
        """
        self.nameservice.unregister_ip(ip)
