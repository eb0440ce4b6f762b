"""Seeded chaos injection over the deterministic simulator.

:class:`ChaosWorld` extends :class:`~repro.transport.sim.SimWorld`
through the two packet hooks (`_admit_packet`, `_delivery_delay`) and
the crash control plane.  All perturbation decisions are drawn from a
single ``random.Random(seed)``; since the base simulator is itself
deterministic, the hook call order -- and therefore the whole run --
is a pure function of ``(program, seed, config)``.

The perturbations:

* **jitter** -- every delivery gets a uniform extra delay in
  ``[0, jitter_s)``; with a window wider than the inter-packet gap
  this *reorders* deliveries, which is the schedule-exploration knob;
* **delay** -- with ``delay_prob``, one delivery gets a much larger
  extra delay in ``[0, delay_s)`` (a slow link / GC pause);
* **drop** -- with ``drop_prob``, a packet silently vanishes
  (lossy network);
* **dup** -- with ``dup_prob``, a packet is delivered twice, each copy
  with its own delay (retransmission storms);
* **crashes** -- :class:`CrashEvent` entries crash a node at a virtual
  time and optionally restart it later.

Every injected fault is published on the world's event bus like any
other event; :class:`FaultLog`, a sink the world subscribes to its own
bus, keeps the fault kinds.  Because the simulator is deterministic,
that log plus the seed and config is a minimized, replayable repro
dump.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from repro.obs.events import ObsEvent
from repro.transport.sim import SimWorld


@dataclass(frozen=True, slots=True)
class CrashEvent:
    """Crash node ``ip`` at virtual time ``at``; optionally restart."""

    ip: str
    at: float
    restart_at: float | None = None

    def __post_init__(self) -> None:
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ValueError("restart_at must be after the crash time")

    def describe(self) -> str:
        if self.restart_at is None:
            return f"{self.ip}@{self.at:g}"
        return f"{self.ip}@{self.at:g}:{self.restart_at:g}"


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    """The fault envelope of one chaos run (hashable, reusable)."""

    jitter_s: float = 0.0
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    delay_prob: float = 0.0
    delay_s: float = 0.0
    crashes: tuple[CrashEvent, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_prob", "dup_prob", "delay_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        for name in ("jitter_s", "delay_s"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    def is_loss_free(self) -> bool:
        """Can this config lose or duplicate a message?  Loss-free
        configs (only reordering/delay) must be answer-confluent."""
        return (self.drop_prob == 0.0 and self.dup_prob == 0.0
                and not self.crashes)

    def describe(self) -> str:
        crashes = ",".join(c.describe() for c in self.crashes) or "-"
        return (f"jitter={self.jitter_s:g}s drop={self.drop_prob:g} "
                f"dup={self.dup_prob:g} delay={self.delay_prob:g}"
                f"/{self.delay_s:g}s crashes={crashes}")

    def cli_flags(self) -> str:
        """The ``python -m repro chaos`` flags reproducing this config."""
        parts = []
        if self.jitter_s:
            parts.append(f"--jitter {self.jitter_s:g}")
        if self.drop_prob:
            parts.append(f"--drop {self.drop_prob:g}")
        if self.dup_prob:
            parts.append(f"--dup {self.dup_prob:g}")
        if self.delay_prob:
            parts.append(f"--delay-prob {self.delay_prob:g} "
                         f"--delay {self.delay_s:g}")
        for c in self.crashes:
            parts.append(f"--crash {c.describe()}")
        return " ".join(parts)


#: Faults a :class:`FaultLog` keeps (read when one is built).
FAULT_LOG_CAPACITY = 65536


class FaultLog:
    """Bus sink keeping the injected faults of one run, oldest first.

    Bounded: past :data:`FAULT_LOG_CAPACITY` the oldest fault falls
    off and is counted, and :meth:`format` says so -- never silently
    incomplete.
    """

    KINDS = frozenset(
        {"drop", "dup", "delay", "crash", "restart", "crash-drop"})

    def __init__(self) -> None:
        self.events: deque[ObsEvent] = deque(maxlen=FAULT_LOG_CAPACITY)
        self.evicted = 0

    def on_event(self, event: ObsEvent) -> None:
        if event.kind in self.KINDS:
            if len(self.events) == self.events.maxlen:
                self.evicted += 1
            self.events.append(event)

    def format(self) -> str:
        """One ``str(ObsEvent)`` per line (bus sequence numbers)."""
        lines = [str(e) for e in self.events]
        if self.evicted:
            lines.append(f"[{self.evicted} older fault(s) evicted from the "
                         f"bounded log; fault list is incomplete]")
        return "\n".join(lines)


class ChaosWorld(SimWorld):
    """A simulated cluster with seeded fault injection.

    Deterministic by construction: the one ``random.Random(seed)`` is
    consulted only from the packet hooks, whose call order the base
    simulator fixes.  Two ChaosWorlds driven by the same program with
    the same seed and config produce byte-identical fault logs,
    outputs and clocks.
    """

    def __init__(self, seed: int = 0,
                 config: ChaosConfig | None = None) -> None:
        super().__init__()
        self.seed = seed
        self.config = config or ChaosConfig()
        self.rng = random.Random(seed)
        self.faults = FaultLog()
        self.obs.subscribe(self.faults)
        self.chaos_dropped = 0
        self.chaos_duplicated = 0   # extra copies admitted
        self.chaos_delayed = 0
        self._crashes_armed = False

    # -- crash control plane ------------------------------------------------

    def _arm_crashes(self) -> None:
        for crash in self.config.crashes:
            at = max(crash.at, self._clock)
            self.schedule_at(at, lambda ip=crash.ip: self.fail_node(ip))
            if crash.restart_at is not None:
                self.schedule_at(max(crash.restart_at, at),
                                 lambda ip=crash.ip: self.restart_node(ip))

    def run(self, max_time: float | None = None) -> float:
        if not self._crashes_armed:
            self._crashes_armed = True
            self._arm_crashes()
        return super().run(max_time)

    # -- packet hooks --------------------------------------------------------

    def _admit_packet(self, src_ip: str, dst_ip: str, data: bytes) -> int:
        cfg = self.config
        if cfg.drop_prob and self.rng.random() < cfg.drop_prob:
            self.chaos_dropped += 1
            self.trace("drop", src_ip, dst_ip, len(data))
            return 0
        if cfg.dup_prob and self.rng.random() < cfg.dup_prob:
            self.chaos_duplicated += 1
            self.trace("dup", src_ip, dst_ip, len(data))
            return 2
        return 1

    def _delivery_delay(self, src_ip: str, dst_ip: str, size: int) -> float:
        delay = super()._delivery_delay(src_ip, dst_ip, size)
        cfg = self.config
        if cfg.jitter_s:
            delay += self.rng.random() * cfg.jitter_s
        if cfg.delay_prob and self.rng.random() < cfg.delay_prob:
            extra = self.rng.random() * cfg.delay_s
            delay += extra
            self.chaos_delayed += 1
            self.trace("delay", src_ip, dst_ip, size,
                       note=f"+{extra:.9f}s")
        return delay

    # -- accounting ----------------------------------------------------------

    def delivery_balance(self) -> int:
        """``deliveries - (sent + duplicated - dropped)``: zero when
        every undelivered packet is accounted for by a logged fault
        (and nothing is still in flight)."""
        expected = (self.stats.packets + self.chaos_duplicated
                    - self.chaos_dropped - self.dropped_packets)
        return self.deliveries - expected
