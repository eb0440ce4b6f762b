"""The structured event bus every layer publishes into.

One :class:`EventBus` per world, and the only way an event travels.
Publishing is a method call on the producer side (``world.trace`` /
``node.trace`` / ``site._trace`` each hold one guarded
:meth:`EventBus.emit`), and the guard reads the plain :attr:`active`
attribute, so the *disabled* path is a single attribute load -- the
observability acceptance bar is <= 3% overhead on the E1/E9
benchmarks with no sink attached.

Two activation levels:

* **active** -- at least one sink subscribed; events are recorded.
  This is the level the chaos harness always runs at (its
  :class:`~repro.testkit.chaos.FaultLog` and a flight recorder are
  sinks), and it changes nothing on the wire.
* **tracing** -- full causal tracing: span ids are allocated and
  carried in packets (one extra wire tag, docs/WIRE.md), and a site
  publishes its VM's state after each step (``heap``).  Opt-in
  (``repro trace`` / ``repro chaos --trace``) because the span field
  perturbs wire sizes and therefore simulated packet timings.  It
  does not pick the engine the run executes on.

Determinism: sequence numbers and span ids come from plain counters,
timestamps from the world clock (virtual under simulation), so a
given ``(program, seed, config)`` produces the identical event stream
on every run -- the golden-trace test pins this byte-for-byte.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from .events import ObsEvent


class EventSink(Protocol):
    """What a subscriber must provide."""

    def on_event(self, event: ObsEvent) -> None:
        """Receive one published event."""


class EventBus:
    """Publish/subscribe hub for :class:`~repro.obs.events.ObsEvent`."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self._sinks: list[EventSink] = []
        #: Any sink attached?  Producers read this as their fast-path
        #: guard; when False, :meth:`emit` must not be called.  Kept
        #: current by :meth:`subscribe` / :meth:`unsubscribe`.
        self.active = False
        self._seq = 0
        self._next_span = 0
        #: Full-tracing level: span propagation + per-step VM-state
        #: events.  Sites read this directly at each use, so flipping
        #: it mid-run takes effect at the next packet or step.
        self.tracing = False

    # -- subscription --------------------------------------------------------

    def subscribe(self, sink: EventSink) -> None:
        if sink not in self._sinks:
            self._sinks.append(sink)
        self.active = True

    def unsubscribe(self, sink: EventSink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)
        self.active = bool(self._sinks)

    # -- publishing ----------------------------------------------------------

    def emit(self, kind: str, src: str = "", dst: str = "", size: int = 0,
             note: str = "", span: int = 0, node: str = "",
             time: Optional[float] = None) -> None:
        """Publish one event to every sink (in subscription order)."""
        self._seq += 1
        event = ObsEvent(seq=self._seq,
                         time=self.clock() if time is None else time,
                         kind=kind, node=node, src=src, dst=dst,
                         size=size, span=span, note=note)
        for sink in self._sinks:
            sink.on_event(event)

    def __len__(self) -> int:
        """Total events ever published."""
        return self._seq

    # -- causal spans --------------------------------------------------------

    def new_span(self) -> int:
        """Allocate a fresh causal span id (deterministic counter).
        Returns 0 when tracing is off: span 0 means "no span" and is
        what keeps untraced wire traffic byte-identical."""
        if not self.tracing:
            return 0
        self._next_span += 1
        return self._next_span

    @property
    def spans_allocated(self) -> int:
        return self._next_span
