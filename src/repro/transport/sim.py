"""Deterministic discrete-event simulation of the DiTyCO cluster.

The simulator is the substitute for the paper's physical test-bed
(four dual-CPU PCs on a Myrinet switch): a virtual clock, per-packet
delivery events computed from a :class:`~repro.transport.links.LinkModel`
(latency + size/bandwidth), and per-node compute events that charge
``instr_time_s`` per executed byte-code instruction and
``context_switch_s`` per thread switch.

Determinism: a single event heap of ``(time, seq, action)`` tuples
(``seq`` is unique, so the heap orders in C and never compares an
action); no wall-clock or randomness anywhere, so every run of a given
program produces identical timings -- which is what lets the
benchmarks report stable simulated-time numbers for E2/E3/E8.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.node import Node

from .base import World
from .links import ClusterModel, myrinet_cluster


#: Instructions a node may run per scheduling step.
QUANTUM = 256


class SimWorld(World):
    """Single-threaded simulated cluster."""

    def __init__(self, cluster: ClusterModel | None = None) -> None:
        super().__init__()
        self.cluster = cluster or myrinet_cluster()
        self.quantum = QUANTUM
        self._clock = 0.0
        self._events: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._scheduled: set[str] = set()   # node ips with a pending step
        # Per-(src, dst) link clock: packets on one link are delivered
        # in send order (an ordered channel, like the TCP streams of
        # the paper's deployment).  Without it a small packet could
        # overtake a large code bundle sent just before it.
        self._link_clock: dict[tuple[str, str], float] = {}
        self.deliveries = 0
        self.compute_time = 0.0
        self.network_time_paid = 0.0
        self._in_flight = 0
        # Failure injection (repro.runtime.failure): crashed node ips.
        self.failed: set[str] = set()
        self.crashed_ever: set[str] = set()
        self.restarted: set[str] = set()
        self.dropped_packets = 0

    # -- world interface -------------------------------------------------------

    @property
    def time(self) -> float:
        return self._clock

    def add_node(self, node: "Node") -> None:
        if node.ip in self.nodes:
            raise ValueError(f"duplicate node ip {node.ip}")
        self.nodes[node.ip] = node
        node.attach_transport(self._send, wakeup=lambda: self._wake(node.ip),
                              clock=lambda: self._clock,
                              schedule=self.schedule_at)
        node.attach_obs(self.obs)

    def _wake(self, ip: str) -> None:
        if ip not in self._scheduled:
            self._scheduled.add(ip)
            self._push(self._clock, lambda: self._node_step(ip))

    def _push(self, time: float, action: Callable[[], None]) -> None:
        heapq.heappush(self._events, (time, next(self._seq), action))

    # -- packet transport ----------------------------------------------------------

    def _send(self, src_ip: str, dst_ip: str, data: bytes) -> None:
        if src_ip in self.failed:
            self.dropped_packets += 1
            self.trace("crash-drop", src_ip, dst_ip, len(data),
                       note="sender down")
            return
        size = len(data)
        dst = self.nodes.get(dst_ip)
        if dst is None:
            raise LookupError(f"no node at {dst_ip}")
        self.stats.packets += 1
        self.stats.bytes += size
        self.trace("send", src_ip, dst_ip, size)
        copies = self._admit_packet(src_ip, dst_ip, data)
        for _ in range(copies):
            delay = self._delivery_delay(src_ip, dst_ip, size)
            self.network_time_paid += delay
            self._schedule_delivery(src_ip, dst_ip, dst, data, delay)

    # Chaos hooks (repro.testkit.chaos overrides these two): how many
    # copies of a packet reach the scheduler, and with what delay.

    def _admit_packet(self, src_ip: str, dst_ip: str, data: bytes) -> int:
        """How many copies to deliver: 1 normally; 0 drops, 2 duplicates."""
        return 1

    def _delivery_delay(self, src_ip: str, dst_ip: str, size: int) -> float:
        """Link traversal time for one copy of a packet."""
        return self.cluster.link.transfer_time(size)

    def _schedule_delivery(self, src_ip: str, dst_ip: str, dst: "Node",
                           data: bytes, delay: float) -> None:
        # FIFO link discipline: never deliver before anything sent
        # earlier on the same (src, dst) link (chaos delays included --
        # they stretch time but cannot reorder one link's stream).
        link = (src_ip, dst_ip)
        arrival = max(self._clock + delay, self._link_clock.get(link, 0.0))
        self._link_clock[link] = arrival

        def deliver() -> None:
            self._in_flight -= 1
            if dst_ip in self.failed:
                self.dropped_packets += 1
                self.trace("crash-drop", src_ip, dst_ip, len(data),
                           note="receiver down")
                return
            self.deliveries += 1
            self.trace("deliver", src_ip, dst_ip, len(data))
            dst.receive(data)
            self._wake(dst_ip)

        self._in_flight += 1
        if self._in_flight > self.stats.max_in_flight:
            self.stats.max_in_flight = self._in_flight
        self._push(arrival, deliver)

    # -- compute scheduling -----------------------------------------------------------

    def _node_step(self, ip: str) -> None:
        self._scheduled.discard(ip)
        node = self.nodes.get(ip)
        if node is None or ip in self.failed:
            return
        report = node.step(self.quantum)
        cost = (report.instructions * self.cluster.instr_time_s
                + report.context_switches * self.cluster.context_switch_s)
        # Dual-processor nodes (figure 1): the site pool effectively
        # progresses cpus_per_node instructions per cycle.
        cost /= max(1, self.cluster.cpus_per_node)
        if report.busy:
            self.compute_time += cost
            next_time = self._clock + max(cost, self.cluster.instr_time_s)
            self._scheduled.add(ip)
            self._push(next_time, lambda: self._node_step(ip))
        elif node.has_work():  # pragma: no cover - defensive
            self._wake(ip)

    # -- main loop ----------------------------------------------------------------------

    def run(self, max_time: float | None = None) -> float:
        """Process events until the queue drains (global quiescence)."""
        start = self._clock
        while self._events:
            event = heapq.heappop(self._events)
            time, _, action = event
            if max_time is not None and time > max_time:
                heapq.heappush(self._events, event)
                self._clock = max(self._clock, max_time)
                break
            self._clock = max(self._clock, time)
            action()
        return self._clock - start

    # -- control plane ---------------------------------------------------------

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule an arbitrary control-plane action on the virtual
        clock (arrivals, balancer ticks, SLO checks, migration retries,
        heartbeats); a time in the past is a ``ValueError``."""
        if not callable(action):
            raise TypeError(f"event action must be callable, got {action!r}")
        if time < self._clock:
            raise ValueError(f"cannot schedule in the past ({time} < {self._clock})")
        self._push(time, action)

    def fail_node(self, ip: str) -> None:
        """Crash a node: it stops computing, and packets to or from it
        are silently dropped (a dead machine on a switched network).
        Idempotent: crashing a crashed node is a no-op."""
        if ip not in self.nodes:
            raise LookupError(f"no node at {ip}")
        if ip in self.failed:
            return
        self.failed.add(ip)
        self.crashed_ever.add(ip)
        self.trace("crash", ip)

    def restart_node(self, ip: str) -> None:
        """Bring a crashed node back: it resumes computing with its
        state intact (the semantics of a healed partition; a real
        crash-with-state-loss additionally needs its sites relaunched).

        The node's sites re-drive their in-flight code requests via
        :meth:`~repro.runtime.node.Node.on_restart` -- a restarted node
        must never wait on (or serve) stale in-flight cache state."""
        if ip not in self.nodes:
            raise LookupError(f"no node at {ip}")
        if ip not in self.failed:
            return
        self.failed.discard(ip)
        self.restarted.add(ip)
        self.trace("restart", ip)
        self.nodes[ip].on_restart()
        self._wake(ip)

    def is_failed(self, ip: str) -> bool:
        return ip in self.failed

    def is_quiescent(self) -> bool:
        """No node has work, and no packet is on the wire: a bounded
        run can stop with a delivery still queued."""
        return self._in_flight == 0 and super().is_quiescent()

    @property
    def in_flight(self) -> int:
        """Packets currently traversing the (virtual) wire."""
        return self._in_flight
