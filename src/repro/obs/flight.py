"""Flight recorder: bounded per-node rings of recent events.

Always cheap enough to leave on during chaos runs: each node gets a
fixed-capacity ring (old events fall off, a counter remembers how
many), and when something goes wrong -- an invariant checker reports
a violation, or a node crashes for real -- :meth:`FlightRecorder.dump`
renders the last moments of every node plus the chaos repro line into
one text block.  The chaos harness attaches one automatically and
includes the dump in :class:`~repro.testkit.explore.ChaosRun`.
"""

from __future__ import annotations

from collections import deque

from .events import ObsEvent

#: Events kept per node ring (read when a recorder is built).
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Bus sink keeping the last :data:`DEFAULT_CAPACITY` events per node."""

    def __init__(self) -> None:
        self.capacity = DEFAULT_CAPACITY
        self._rings: dict[str, deque[ObsEvent]] = {}
        self._evicted: dict[str, int] = {}
        #: Every dump produced so far (reason, text).
        self.dumps: list[tuple[str, str]] = []

    def on_event(self, event: ObsEvent) -> None:
        label = event.node or "world"
        ring = self._rings.get(label)
        if ring is None:
            ring = self._rings[label] = deque(maxlen=self.capacity)
            self._evicted[label] = 0
        if len(ring) == self.capacity:
            self._evicted[label] += 1
        ring.append(event)

    def recent(self, node: str = "") -> list[ObsEvent]:
        """The ring of ``node`` (or the world ring), oldest first."""
        return list(self._rings.get(node or "world", ()))

    def dump(self, reason: str, repro: str = "") -> str:
        """Render every ring into one report and remember it."""
        lines = [f"=== flight recorder dump: {reason} ==="]
        if repro:
            lines.append(f"repro: {repro}")
        for label in sorted(self._rings):
            ring = self._rings[label]
            evicted = self._evicted[label]
            suffix = f" ({evicted} older event(s) evicted)" if evicted else ""
            lines.append(f"--- node {label}: last {len(ring)} "
                         f"event(s){suffix} ---")
            lines.extend(str(ev) for ev in ring)
        text = "\n".join(lines)
        self.dumps.append((reason, text))
        return text
