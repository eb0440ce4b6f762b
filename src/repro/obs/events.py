"""The event model and kind taxonomy (docs/OBSERVABILITY.md).

One :class:`ObsEvent` is one *reduction-shaped* thing that happened
somewhere in the system: a VM step, a packet on the wire, a
cache probe, a lease transition, an injected fault.  Events are flat
records -- no payloads, no object references -- so recording one is
cheap and serialising a stream of them is deterministic.

The ``kind`` string identifies what happened; :data:`CATEGORY_OF`
groups kinds into the layer that emitted them.  The categories mirror
the layers of the paper's architecture:

========== ==========================================================
category   kinds
========== ==========================================================
vm         heap  (rule LOC, per step: heap and run-queue state plus the
           cumulative comm / inst reduction counts)
net        shipm, shipo, fetch-req, fetch-serve, gc-late
           (rules SHIPM / SHIPO / FETCH and their failure edges)
cache      cache-hit, cache-miss, code-need, code-install
gc         gc, lease-claim, lease-renew, lease-drop
transport  send, deliver, batch, crash-drop
chaos      drop, dup, delay, crash, restart
mobility   migrate-out, migrate-ship, migrate-need, migrate-code,
           migrate-in, migrate-ack, migrate-forward, migrate-retry,
           migrate-fail, balance, balance_decide
slo        slo_breach  (an SLO watchdog threshold check failed)
========== ==========================================================

Unknown kinds are allowed (category ``"other"``) so downstream layers
can add events without touching this table, but the trace JSON schema
pins the known set -- extending it is a reviewed change.
"""

from __future__ import annotations

from dataclasses import dataclass

VM = "vm"
NET = "net"
CACHE = "cache"
GC = "gc"
TRANSPORT = "transport"
CHAOS = "chaos"
MOBILITY = "mobility"
SLO = "slo"
OTHER = "other"

#: kind -> category, the event taxonomy.
CATEGORY_OF: dict[str, str] = {
    # VM layer: per-step heap / run-queue state and reduction counts.
    "heap": VM,
    # Network reductions between sites.
    "shipm": NET,
    "shipo": NET,
    "fetch-req": NET,
    "fetch-serve": NET,
    "gc-late": NET,
    # Code cache offer / need / reply protocol.
    "cache-hit": CACHE,
    "cache-miss": CACHE,
    "code-need": CACHE,
    "code-install": CACHE,
    # Distributed GC lease lifecycle.
    "gc": GC,
    "lease-claim": GC,
    "lease-renew": GC,
    "lease-drop": GC,
    # Transport frames.
    "send": TRANSPORT,
    "deliver": TRANSPORT,
    "batch": TRANSPORT,
    "crash-drop": TRANSPORT,
    # Injected chaos faults.
    "drop": CHAOS,
    "dup": CHAOS,
    "delay": CHAOS,
    "crash": CHAOS,
    "restart": CHAOS,
    # Live migration and load balancing (repro.mobility).
    "migrate-out": MOBILITY,
    "migrate-ship": MOBILITY,
    "migrate-need": MOBILITY,
    "migrate-code": MOBILITY,
    "migrate-in": MOBILITY,
    "migrate-ack": MOBILITY,
    "migrate-forward": MOBILITY,
    "migrate-retry": MOBILITY,
    "migrate-fail": MOBILITY,
    "balance": MOBILITY,
    "balance_decide": MOBILITY,
    # SLO watchdog (repro.obs.slo).
    "slo_breach": SLO,
}

#: Every kind the schema (docs/trace_schema.json) accepts.
KNOWN_KINDS = frozenset(CATEGORY_OF)


def category_of(kind: str) -> str:
    """The taxonomy category of ``kind`` (``"other"`` if unknown)."""
    return CATEGORY_OF.get(kind, OTHER)


@dataclass(slots=True)
class ObsEvent:
    """One structured observability event.

    ``seq`` is a bus-global sequence number (total order), ``time`` the
    world clock (virtual under simulation), ``span`` the causal span id
    threading a cross-site chain together (0 = no span / tracing off),
    ``node`` the ip of the node that emitted it ("" for world-level
    events such as crashes).
    """

    seq: int
    time: float
    kind: str
    node: str = ""
    src: str = ""
    dst: str = ""
    size: int = 0
    span: int = 0
    note: str = ""

    def __str__(self) -> str:
        route = f"{self.src}->{self.dst}" if self.dst else self.src
        at = f"@{self.node}" if self.node else ""
        span = f" s{self.span}" if self.span else ""
        suffix = f" {self.note}" if self.note else ""
        return (f"{self.seq:6d} {self.time:.9f} {self.kind:<12s} "
                f"{route}{at} {self.size}B{span}{suffix}")
