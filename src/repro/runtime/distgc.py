"""Lease-based distributed garbage collection (docs/GC.md).

The calculus' structural-congruence rules GcN/GcD let unused
restrictions and definitions disappear, and ``Heap.collect`` realises
that locally -- but a ``NetRef (HeapId, SiteId, IpAddress)`` may live
on *any* remote site, so without coordination every exported
identifier stays pinned forever and import/export churn leaks heap,
export tables and cached code without bound.

This module implements the coordination-light alternative to a
distributed reference-counting or consensus protocol: **leases**.

* When a site ships a reference out (SHIPM / SHIPO / FETCH /
  CODE_REPLY arguments, or a name-service import), the receiving site
  becomes a *holder* and claims a lease on the reference's key with a
  ``REF_LEASE`` message; the owning site records
  ``key -> holder -> expiry``.
* Holders periodically re-scan their live graph and batch
  ``REF_RENEW`` messages per owner (piggybacking on the node's
  transport frames); references no longer reachable are relinquished
  eagerly with ``REF_DROP``.
* The owner's pinned set for ``Heap.collect`` shrinks from "every id
  ever exported" to "ids registered with the name service or with a
  live lease".  A lease that is neither renewed nor dropped simply
  expires -- crash tolerance costs nothing beyond the lease term.

Safety argument: an id is only reclaimed when every lease on it has
expired, and a holder renews every ``renew_s`` while the lease lasts
``lease_s >> renew_s``; under bounded message delay a live holder's
lease therefore never expires.  Key races (a claim overtaking a drop,
a reference parked in a batch buffer and invisible to the renew scan,
an export rebound to a fresh channel while claims are in flight) are
covered by a *grace* period: whenever a key's last holder drops it or
its name-service registration disappears, the key stays pinned for
``grace_s`` before becoming collectable.  Expiry needs no grace --
``lease_s`` itself was the slack.

Liveness argument: every exported id whose holders have all dropped,
crashed or fallen silent becomes unpinned after at most
``lease_s + grace_s`` and the next sweep reclaims it.  The testkit's
``check_export_liveness`` invariant checks exactly this after a
settling run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.sim import SimWorld

#: A lease key: ``("n", heap_id)`` for an exported channel,
#: ``("c", class_id)`` for an exported class (see
#: :func:`repro.vm.values.remote_ref_key`).
Key = tuple[str, int]

#: A lease holder or owner endpoint: ``(ip, site_id)``.
Endpoint = tuple[str, int]

#: Sentinel holder carrying the post-drop / post-unregister grace
#: period.  Not a real endpoint, so it can never renew.
GRACE_HOLDER: Endpoint = ("<grace>", -1)


@dataclass(slots=True)
class GcConfig:
    """Timing knobs, in simulated seconds (the defaults suit the
    microsecond-scale :class:`~repro.transport.sim.SimWorld` clock;
    scale all four together for wall-clock transports).

    Invariant to keep: ``renew_s`` a small fraction of ``lease_s``
    (several renewals must fit in one lease term, so jitter or a lost
    frame cannot expire a live holder), and ``sweep_s <= renew_s``
    (sweeps are also the pump that flushes renew batches).
    """

    lease_s: float = 2e-3      # how long one claim/renewal pins a key
    renew_s: float = 5e-4      # holder-side renewal cadence
    sweep_s: float = 2.5e-4    # owner-side sweep / collect cadence
    grace_s: float | None = None   # pin after drop/unregister; None -> lease_s

    @property
    def effective_grace_s(self) -> float:
        return self.lease_s if self.grace_s is None else self.grace_s

    @classmethod
    def wall_clock(cls) -> "GcConfig":
        """Defaults for wall-clock transports (socket, daemon): the
        sim-scale terms above are shorter than a GIL scheduling hiccup,
        so a live holder's lease could expire between two of its node's
        quanta.  Seconds-scale terms keep the same ratios."""
        return cls(lease_s=2.0, renew_s=0.5, sweep_s=0.25)


@dataclass(slots=True)
class GcStats:
    """Per-site distributed-GC counters."""

    claims_sent: int = 0
    renews_sent: int = 0
    drops_sent: int = 0
    leases_granted: int = 0
    leases_renewed: int = 0
    leases_dropped: int = 0
    leases_expired: int = 0
    holders_expired: int = 0
    grace_pins: int = 0
    sweeps: int = 0
    channels_reclaimed: int = 0
    classes_reclaimed: int = 0
    late_drops: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name)
                for f in self.__dataclass_fields__.values()}  # type: ignore[attr-defined]


class DistGC:
    """Lease state of one site: the leases it has *granted* on its own
    exports (owner side) and the leases it *holds* on remote
    references (holder side).  Pure bookkeeping -- all wire traffic and
    heap work stays in :class:`~repro.runtime.site.Site`.
    """

    def __init__(self, config: GcConfig | None = None) -> None:
        self.config = config or GcConfig()
        self.stats = GcStats()
        # Owner side: key -> holder endpoint -> lease expiry time.
        self.leases: dict[Key, dict[Endpoint, float]] = {}
        # Holder side: owner endpoint -> key -> last claim/renew time.
        self.held: dict[Endpoint, dict[Key, float]] = {}
        # Keys seen for the first time, awaiting a REF_LEASE send.
        self._pending_claims: dict[Endpoint, list[Key]] = {}

    # -- owner side -----------------------------------------------------------

    def grant(self, key: Key, holder: Endpoint, now: float) -> None:
        """Record a lease (on marshal-out, or an incoming REF_LEASE)."""
        self.leases.setdefault(key, {})[holder] = now + self.config.lease_s
        self.stats.leases_granted += 1

    def renew(self, key: Key, holder: Endpoint, now: float) -> None:
        """Extend a holder's lease (incoming REF_RENEW).  A renewal for
        a key we no longer track re-establishes the lease -- renewing
        is semantically a claim, just counted separately."""
        self.leases.setdefault(key, {})[holder] = now + self.config.lease_s
        self.stats.leases_renewed += 1

    def drop(self, key: Key, holder: Endpoint, now: float) -> None:
        """A holder relinquished a key (incoming REF_DROP).  If it was
        the last holder the key enters its grace period rather than
        unpinning immediately: a claim from a third site to whom the
        dropper forwarded the reference may still be in flight."""
        holders = self.leases.get(key)
        if holders is None:
            return
        if holders.pop(holder, None) is not None:
            self.stats.leases_dropped += 1
        if not holders:
            self.add_grace(key, now)

    def add_grace(self, key: Key, now: float) -> None:
        """Pin ``key`` for ``grace_s`` under the sentinel holder (used
        on drop-to-empty and when a name-service registration for the
        key disappears while claims may be in flight)."""
        holders = self.leases.setdefault(key, {})
        expiry = now + self.config.effective_grace_s
        if holders.get(GRACE_HOLDER, 0.0) < expiry:
            holders[GRACE_HOLDER] = expiry
            self.stats.grace_pins += 1

    def live_keys(self, now: float) -> set[Key]:
        """Expire overdue holders, then return every key that still has
        at least one live holder (grace sentinel included).  A key whose
        holders all *expired* is removed outright -- the lease term was
        the slack, no further grace applies."""
        dead_keys = []
        for key, holders in self.leases.items():
            expired = [h for h, exp in holders.items() if exp <= now]
            for h in expired:
                del holders[h]
                self.stats.leases_expired += 1
            if not holders:
                dead_keys.append(key)
        for key in dead_keys:
            del self.leases[key]
        return set(self.leases)

    def expire_holder(self, ip: str) -> int:
        """Forget every lease held by sites at ``ip`` immediately (the
        failure detector suspected the node; no grace -- its references
        are gone).  Returns how many holder entries were removed."""
        removed = 0
        dead_keys = []
        for key, holders in self.leases.items():
            for h in [h for h in holders if h[0] == ip]:
                del holders[h]
                removed += 1
            if not holders:
                dead_keys.append(key)
        for key in dead_keys:
            del self.leases[key]
        self.stats.holders_expired += removed
        return removed

    # -- holder side ----------------------------------------------------------

    def note_held(self, owner: Endpoint, key: Key, now: float) -> bool:
        """Record that this site holds a reference with ``key`` into
        ``owner``.  First sight queues a REF_LEASE claim (idempotent at
        the owner, and necessary for third-party forwards where the
        owner never saw us receive the reference).  Returns True when a
        claim was queued."""
        keys = self.held.setdefault(owner, {})
        if key in keys:
            return False
        keys[key] = now
        self._pending_claims.setdefault(owner, []).append(key)
        return True

    def pop_claims(self) -> dict[Endpoint, tuple[Key, ...]]:
        """Drain the queued first-sight claims, batched per owner."""
        claims = {owner: tuple(keys)
                  for owner, keys in self._pending_claims.items() if keys}
        self._pending_claims.clear()
        self.stats.claims_sent += sum(len(k) for k in claims.values())
        return claims

    def pop_renewals(self, now: float) -> dict[Endpoint, tuple[Key, ...]]:
        """Keys whose last claim/renewal is older than ``renew_s``,
        batched per owner; marks them renewed at ``now``."""
        due: dict[Endpoint, tuple[Key, ...]] = {}
        renew_s = self.config.renew_s
        for owner, keys in self.held.items():
            owed = tuple(k for k, last in keys.items()
                         if now - last >= renew_s)
            if owed:
                for k in owed:
                    keys[k] = now
                due[owner] = owed
        self.stats.renews_sent += sum(len(k) for k in due.values())
        return due

    def sync_held(self, reachable: dict[Endpoint, set[Key]],
                  now: float) -> dict[Endpoint, tuple[Key, ...]]:
        """Reconcile the held table against a scan of the live graph:
        held keys no longer reachable are dropped (returned batched per
        owner, for REF_DROP sends); reachable keys not yet held are
        adopted and queued as claims (defensive -- unmarshalling should
        have noted them already)."""
        drops: dict[Endpoint, tuple[Key, ...]] = {}
        for owner, keys in list(self.held.items()):
            live = reachable.get(owner, set())
            gone = tuple(k for k in keys if k not in live)
            if gone:
                for k in gone:
                    del keys[k]
                drops[owner] = gone
            if not keys:
                del self.held[owner]
        for owner, live in reachable.items():
            for key in live:
                self.note_held(owner, key, now)
        self.stats.drops_sent += sum(len(k) for k in drops.values())
        return drops

    def drop_owner(self, ip: str) -> int:
        """Forget held references and pending claims toward owners at
        ``ip`` (the node was suspected dead; renewing into a void only
        feeds the chaos drop counters).  Returns entries removed."""
        removed = 0
        for owner in [o for o in self.held if o[0] == ip]:
            removed += len(self.held.pop(owner))
        for owner in [o for o in self._pending_claims if o[0] == ip]:
            self._pending_claims.pop(owner)
        return removed

    # -- diagnostics ----------------------------------------------------------

    def debug_lines(self) -> list[str]:
        lines = []
        for key, holders in sorted(self.leases.items()):
            hs = ", ".join(f"{h[0]}/s{h[1]}@{exp:.6f}"
                           for h, exp in sorted(holders.items()))
            lines.append(f"lease {key[0]}{key[1]}: {hs}")
        for owner, keys in sorted(self.held.items()):
            ks = ", ".join(f"{k[0]}{k[1]}" for k in sorted(keys))
            lines.append(f"held from {owner[0]}/s{owner[1]}: {ks}")
        return lines


class GcScheduler:
    """Periodic wake ticks for the distributed GC, in the style of
    :class:`~repro.runtime.failure.HeartbeatMonitor`.

    The simulated world stops scheduling an idle node, so without help
    a holder that has gone quiescent never runs the renew scan and an
    active owner would wrongly expire its leases.  The scheduler wakes
    every live distgc node each ``period`` so sweeps, renewals and
    expiry checks keep pace with the virtual clock.
    """

    def __init__(self, world: "SimWorld", period: float | None = None) -> None:
        if getattr(world, "wall_clock", False) or \
                not hasattr(world, "schedule_at"):
            raise TypeError(
                "GcScheduler needs a virtual-clock SimWorld; wall-clock "
                "worlds wake nodes themselves (threads run in real time)")
        self.world = world
        self.period = period if period is not None else GcConfig().sweep_s
        self.ticks = 0
        self._installed = False

    def install(self, horizon: float) -> None:
        """Pre-schedule ticks on the virtual clock up to ``horizon``
        seconds from now."""
        if self._installed:
            raise RuntimeError("scheduler already installed")
        self._installed = True
        now = self.world.time
        ticks = int(horizon / self.period) + 1
        for k in range(1, ticks + 1):
            self.world.schedule_at(now + k * self.period, self._tick)

    def _tick(self) -> None:
        self.ticks += 1
        for ip, node in self.world.nodes.items():
            if ip in self.world.failed:
                continue
            if getattr(node, "distgc", False):
                node.on_work_available()


def merge_stats(stats: Iterable[GcStats]) -> GcStats:
    """Sum per-site GC counters into one record (benchmark reporting)."""
    total = GcStats()
    for s in stats:
        for f in GcStats.__dataclass_fields__:
            setattr(total, f, getattr(total, f) + getattr(s, f))
    return total
