"""The world interface shared by the simulated and socket transports.

A *world* owns the nodes of one DiTyCO network and decides how they
get CPU time and how buffers travel between them.  Both concrete
worlds drive exactly the same :class:`~repro.runtime.node.Node` code:

* :class:`~repro.transport.sim.SimWorld` -- single-threaded
  discrete-event simulation with a virtual clock and the link models
  of :mod:`repro.transport.links`; fully deterministic, used by the
  tests and by every benchmark that reports (simulated) time.
* :class:`~repro.transport.socket.SocketWorld` -- one OS thread per
  node plus real TCP connections; this is the paper's deployment
  architecture (a node is a Unix process whose sites and daemons are
  threads), in one process or, through
  :class:`~repro.runtime.cluster.DaemonWorld`, one process per node.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.obs import EventBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.node import Node


@dataclass(slots=True)
class TransportStats:
    """Traffic accounting common to every world.

    The first three fields are meaningful everywhere; the remainder
    are only driven by the socket transport (handshakes, reconnects,
    token-bucket throttling, bounded-queue backpressure) and stay at
    their zero defaults under the simulated world -- so existing
    consumers and renders are unaffected.
    """

    packets: int = 0
    bytes: int = 0
    max_in_flight: int = 0
    # -- socket transport only (repro.transport.socket) --
    handshakes: int = 0            # connections fully handshaken
    handshake_failures: int = 0    # rejected (version/magic mismatch)
    reconnects: int = 0            # re-established links (attempt >= 2)
    resets: int = 0                # unclean connection drops observed
    throttled: int = 0             # records delayed by the token bucket
    throttle_wait_s: float = 0.0   # total seconds spent throttled
    backpressure_waits: int = 0    # sends that blocked on a full queue
    queue_peak: int = 0            # max records queued on any one link


class World(ABC):
    """Owns nodes; delivers buffers; runs the network to quiescence."""

    #: True for transports whose :attr:`time` is the process monotonic
    #: clock (socket, daemon); False for the virtual-clock simulator.
    #: Wall-clock-sensitive layers (distgc lease terms, failure
    #: detectors) branch on this instead of isinstance checks.
    wall_clock: bool = False

    def __init__(self) -> None:
        self.nodes: dict[str, "Node"] = {}
        self.stats = TransportStats()
        # The unified observability bus (repro.obs): every layer of
        # every attached node publishes into it.  A no-op unless a
        # sink subscribes.
        self.obs = EventBus(clock=lambda: self.time)

    def trace(self, kind: str, src: str = "", dst: str = "",
              size: int = 0, note: str = "") -> None:
        """Publish a world-level event on :attr:`obs`."""
        if self.obs.active:
            self.obs.emit(kind, src=src, dst=dst, size=size, note=note)

    @abstractmethod
    def add_node(self, node: "Node") -> None:
        """Attach a node to this world."""

    @abstractmethod
    def run(self, max_time: float | None = None) -> float:
        """Run until global quiescence (or the bound); returns elapsed
        time -- virtual seconds for the simulator, wall seconds for
        the socket world."""

    @property
    @abstractmethod
    def time(self) -> float:
        """Current time (virtual or wall-clock, world-dependent)."""

    def node(self, ip: str) -> "Node":
        return self.nodes[ip]

    def is_quiescent(self) -> bool:
        return all(n.is_quiescent() for n in self.nodes.values())

    def is_failed(self, ip: str) -> bool:
        """Is the node at ``ip`` currently crashed?  Worlds without
        failure injection never have failed nodes."""
        return False
