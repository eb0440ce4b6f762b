"""Threaded transport: the paper's deployment architecture, in-process.

"A DiTyCO node is implemented as a Unix process.  The sites, the
communication daemon (TyCOd), and the user interface daemon (TyCOi)
are implemented as threads sharing the address space of the node."

:class:`ThreadedWorld` runs one OS thread per node; each thread loops
over :meth:`Node.step` (which pumps the TyCOd and round-robins the
site pool) and parks on an event when the node has no work.  Buffers
between nodes travel through thread-safe queues -- the in-process
stand-in for the cluster interconnect (the paper's Myrinet switch is
substituted per DESIGN.md: same code path, no physical network).

Global quiescence is detected with a double-scan over (idle nodes,
in-flight count, generation counters): a node that became busy between
the two scans bumps its generation, invalidating the snapshot.  The
algorithmic alternative (Safra's token ring, the paper's future-work
termination detection) lives in :mod:`repro.runtime.termination` and
is exercised by experiment E12.
"""

from __future__ import annotations

import threading
import time as _time

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.node import Node

from .base import World
from .clock import monotime


class ThreadedWorld(World):
    """One thread per node, real queues, wall-clock time."""

    wall_clock = True

    def __init__(self, quantum: int = 512, idle_wait_s: float = 0.0005) -> None:
        super().__init__()
        self.quantum = quantum
        self.idle_wait_s = idle_wait_s
        self._threads: dict[str, threading.Thread] = {}
        self._wake_events: dict[str, threading.Event] = {}
        # Per-destination delivery locks: see _send.
        self._recv_locks: dict[str, threading.Lock] = {}
        self._generations: dict[str, int] = {}
        self._busy: dict[str, bool] = {}
        self._lock = threading.Lock()
        self._in_flight = 0
        self._stop = threading.Event()
        self._started = False

    # -- world interface -----------------------------------------------------

    @property
    def time(self) -> float:
        return monotime()

    def add_node(self, node: "Node") -> None:
        if self._started:
            raise RuntimeError("cannot add nodes after start")
        if node.ip in self.nodes:
            raise ValueError(f"duplicate node ip {node.ip}")
        self.nodes[node.ip] = node
        self._wake_events[node.ip] = threading.Event()
        self._recv_locks[node.ip] = threading.Lock()
        self._generations[node.ip] = 0
        self._busy[node.ip] = True
        node.attach_transport(self._send,
                              wakeup=lambda ip=node.ip: self._wake(ip),
                              clock=monotime)
        node.attach_obs(self.obs)

    def _wake(self, ip: str) -> None:
        ev = self._wake_events.get(ip)
        if ev is not None:
            ev.set()

    def _send(self, src_ip: str, dst_ip: str, data: bytes) -> None:
        dst = self.nodes.get(dst_ip)
        if dst is None:
            raise LookupError(f"no node at {dst_ip}")
        with self._lock:
            self._in_flight += 1
            self.stats.packets += 1
            self.stats.bytes += len(data)
            if self._in_flight > self.stats.max_in_flight:
                self.stats.max_in_flight = self._in_flight
        self.trace("send", src_ip, dst_ip, len(data))
        # Deliver directly into the destination's TyCOd; the receiving
        # node thread processes the packet on its next quantum.  The
        # per-destination lock serialises concurrent senders into one
        # node so a multi-packet batch frame is enqueued atomically --
        # without it, another sender could interleave its packets
        # between the frame's chunks and break per-(src, dst) FIFO
        # observation on the receiving site queues.
        try:
            with self._recv_locks[dst_ip]:
                dst.receive(data)
        finally:
            with self._lock:
                self._in_flight -= 1
        self.trace("deliver", src_ip, dst_ip, len(data))
        self._wake(dst_ip)

    # -- node threads ----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for ip, node in self.nodes.items():
            t = threading.Thread(target=self._node_loop, args=(ip, node),
                                 name=f"dityco-node-{ip}", daemon=True)
            self._threads[ip] = t
            t.start()

    def _node_loop(self, ip: str, node: "Node") -> None:
        ev = self._wake_events[ip]
        while not self._stop.is_set():
            report = node.step(self.quantum)
            if report.busy:
                with self._lock:
                    self._generations[ip] += 1
                    self._busy[ip] = True
                continue
            with self._lock:
                self._busy[ip] = False
            ev.wait(self.idle_wait_s)
            ev.clear()

    def shutdown(self) -> None:
        """Stop every node thread (idempotent)."""
        self._stop.set()
        for ev in self._wake_events.values():
            ev.set()
        for t in self._threads.values():
            t.join(timeout=2.0)
        self._threads.clear()

    # -- quiescence ---------------------------------------------------------------

    def _snapshot(self) -> tuple[bool, dict[str, int]]:
        with self._lock:
            gens = dict(self._generations)
            quiet = (self._in_flight == 0
                     and not any(self._busy.values()))
        quiet = quiet and all(n.is_quiescent() for n in self.nodes.values())
        return quiet, gens

    def run(self, max_time: float | None = None) -> float:
        """Start (if needed) and wait for global quiescence.

        Returns the wall-clock seconds waited.  Raises ``TimeoutError``
        if ``max_time`` elapses first.
        """
        self.start()
        deadline = None if max_time is None else monotime() + max_time
        start = monotime()
        while True:
            quiet1, gens1 = self._snapshot()
            if quiet1:
                _time.sleep(self.idle_wait_s)
                quiet2, gens2 = self._snapshot()
                if quiet2 and gens1 == gens2:
                    return monotime() - start
            if deadline is not None and monotime() > deadline:
                raise TimeoutError("network did not reach quiescence")
            _time.sleep(self.idle_wait_s)
