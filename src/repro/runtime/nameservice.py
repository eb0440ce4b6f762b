"""The network name service (section 5, NETWORKS).

"Explicitly exported identifiers, as well as site names are registered
in a Network Name Service.  Conceptually, the service maintains two
tables, one for sites and another for exported identifiers."

::

    SiteTable : SiteName -> SiteId x IpAddress
    IdTable   : SiteName x IdName -> HeapId

We add a third table for exported *classes* (the code-fetching side of
the model): ``ClassTable : SiteName x IdName -> ClassId``.

"Currently, in this first implementation, the network name service is
centralized and all sites know its location in advance.  This will
change, as the system matures, into a distributed network name
service."  :class:`NameService` is the paper's centralized first
implementation, and the only store; :mod:`repro.runtime.nsnet` puts it
behind a TCP front for multi-process clusters.  The distributed service
is not reproduced (sharded / replicated NNS is parked in ROADMAP.md).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

from repro.vm.values import NetRef, RemoteClassRef


class NameServiceError(Exception):
    """Registration conflicts and malformed queries."""


class UnknownSiteName(NameServiceError):
    """A lookup named a site that is not (or no longer) registered."""


@dataclass(frozen=True, slots=True)
class SiteRecord:
    """One SiteTable row."""

    site_name: str
    site_id: int
    ip: str


@dataclass(slots=True)
class NameServiceStats:
    """Operation counters (experiment E7)."""

    site_registrations: int = 0
    name_registrations: int = 0
    class_registrations: int = 0
    lookups: int = 0
    misses: int = 0
    #: Subscriber callbacks invoked by ``_notify``, summed over every
    #: registration: ``wakeups / registrations`` is the notification
    #: fan-out (one per node, not one per site ever launched).
    wakeups: int = 0


class NameService:
    """The centralized network name service.

    Thread-safe: the socket transport calls in from node threads.
    ``subscribe`` adds a callback to the *set* fired after each
    registration: a node subscribes its ``_on_ns_update`` (once, however
    many sites it creates) to retry imports that were pending on a
    not-yet exported identifier and to reschedule itself.  Subscribing
    an equal callback again is a no-op; callbacks fire in
    first-subscription order.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._sites: dict[str, SiteRecord] = {}
        self._names: dict[tuple[str, str], int] = {}
        self._classes: dict[tuple[str, str], int] = {}
        self._next_site_id = 1
        self._subscribers: dict[Callable[[], None], None] = {}
        self.stats = NameServiceStats()

    # -- registration -------------------------------------------------------

    def register_site(self, site_name: str, ip: str) -> int:
        """SiteTable insert; returns the assigned SiteId."""
        with self._lock:
            existing = self._sites.get(site_name)
            if existing is not None:
                if existing.ip != ip:
                    raise NameServiceError(
                        f"site {site_name!r} already registered at {existing.ip}")
                return existing.site_id
            site_id = self._next_site_id
            self._next_site_id += 1
            self._sites[site_name] = SiteRecord(site_name, site_id, ip)
            self.stats.site_registrations += 1
        self._notify()
        return site_id

    def export_name(self, site_name: str, id_name: str, heap_id: int) -> None:
        """IdTable insert (the VM's ``export`` instruction)."""
        with self._lock:
            if site_name not in self._sites:
                raise UnknownSiteName(f"unregistered site {site_name!r}")
            self._names[(site_name, id_name)] = heap_id
            self.stats.name_registrations += 1
        self._notify()

    def export_class(self, site_name: str, id_name: str, class_id: int) -> None:
        """ClassTable insert (the VM's ``exportclass`` instruction)."""
        with self._lock:
            if site_name not in self._sites:
                raise UnknownSiteName(f"unregistered site {site_name!r}")
            self._classes[(site_name, id_name)] = class_id
            self.stats.class_registrations += 1
        self._notify()

    # -- lookups ---------------------------------------------------------------

    def lookup_site(self, site_name: str) -> SiteRecord:
        with self._lock:
            self.stats.lookups += 1
            rec = self._sites.get(site_name)
            if rec is None:
                self.stats.misses += 1
                raise UnknownSiteName(f"no site named {site_name!r}")
            return rec

    def lookup_name(self, site_name: str, id_name: str) -> Optional[NetRef]:
        """The network reference for an exported identifier:

        ``(IdTable(site, id), SiteTable(site))`` -- or None while the
        identifier is not (yet) exported.
        """
        with self._lock:
            self.stats.lookups += 1
            rec = self._sites.get(site_name)
            heap_id = self._names.get((site_name, id_name))
            if rec is None or heap_id is None:
                self.stats.misses += 1
                return None
            return NetRef(heap_id=heap_id, site_id=rec.site_id, ip=rec.ip)

    def lookup_class(self, site_name: str, id_name: str) -> Optional[RemoteClassRef]:
        with self._lock:
            self.stats.lookups += 1
            rec = self._sites.get(site_name)
            class_id = self._classes.get((site_name, id_name))
            if rec is None or class_id is None:
                self.stats.misses += 1
                return None
            return RemoteClassRef(class_id=class_id, site_id=rec.site_id,
                                  ip=rec.ip)

    def site_count(self) -> int:
        with self._lock:
            return len(self._sites)

    def exported_count(self) -> int:
        with self._lock:
            return len(self._names) + len(self._classes)

    def sites_at(self, ip: str) -> list[SiteRecord]:
        """Every SiteTable row registered from node ``ip``."""
        with self._lock:
            return [rec for rec in self._sites.values() if rec.ip == ip]

    def snapshot(self) -> dict:
        """A consistent copy of all three tables (testing/diagnostics)."""
        with self._lock:
            return {"sites": dict(self._sites),
                    "names": dict(self._names),
                    "classes": dict(self._classes)}

    # -- reconfiguration ---------------------------------------------------------

    def rebind_site(self, site_name: str, new_ip: str,
                    site_id: Optional[int] = None) -> int:
        """SiteTable update for live migration (repro.mobility): the
        site keeps its SiteId but now lives at ``new_ip``.  Lookups
        build references from the record at lookup time, so IdTable and
        ClassTable rows need no touch -- every later ``lookup_name`` /
        ``lookup_class`` immediately yields references to the new home.

        ``site_id`` (required when the site has no record, e.g. a
        crash-restart from a journal into a fresh name service) pins
        the restored site to its checkpointed id; when a record exists
        it must agree.  Returns the site id and notifies subscribers
        (stalled imports may resolve against the new home)."""
        with self._lock:
            rec = self._sites.get(site_name)
            if rec is None:
                if site_id is None:
                    raise UnknownSiteName(f"no site named {site_name!r}")
                rec = SiteRecord(site_name, site_id, new_ip)
                self._sites[site_name] = rec
                if site_id >= self._next_site_id:
                    self._next_site_id = site_id + 1
                self.stats.site_registrations += 1
            else:
                if site_id is not None and site_id != rec.site_id:
                    raise NameServiceError(
                        f"site {site_name!r} has id {rec.site_id}, "
                        f"rebind asked for {site_id}")
                rec = SiteRecord(site_name, rec.site_id, new_ip)
                self._sites[site_name] = rec
        self._notify()
        return rec.site_id

    def unregister_ip(self, ip: str) -> list[str]:
        """Remove every site registered from ``ip`` plus its exported
        names and classes; returns the removed site names.

        This is the failure-reconfiguration path: lookups for the
        removed identifiers then return None, so importers stall
        (recoverably) instead of shipping packets into a void.
        """
        with self._lock:
            dead = {name for name, rec in self._sites.items()
                    if rec.ip == ip}
            self._sites = {k: v for k, v in self._sites.items()
                           if k not in dead}
            self._names = {k: v for k, v in self._names.items()
                           if k[0] not in dead}
            self._classes = {k: v for k, v in self._classes.items()
                             if k[0] not in dead}
            return sorted(dead)

    def unregister_site(self, site_name: str) -> bool:
        """SiteTable delete for a site whose program has exited, plus
        whatever IdTable / ClassTable rows still name it.  Later
        lookups raise :class:`UnknownSiteName` (or return None) instead
        of resolving to a node that no longer runs the site, and a
        relaunch under the same name is a new site with a new SiteId --
        ids are never handed out twice, so a reference to the dead
        site's heap cannot address the new one's.  Returns whether a
        row existed.  No subscriber notification, like every removal."""
        with self._lock:
            if self._sites.pop(site_name, None) is None:
                return False
            for table in (self._names, self._classes):
                for key in [k for k in table if k[0] == site_name]:
                    del table[key]
            return True

    def unregister_export(self, site_name: str, id_name: str) -> bool:
        """IdTable delete: a collected (or explicitly retired) export
        disappears instead of dangling.  Later lookups return None, so
        importers stall recoverably.  Returns whether an entry existed.
        No subscriber notification -- removals never unblock a stalled
        import."""
        with self._lock:
            return self._names.pop((site_name, id_name), None) is not None

    def unregister_class_export(self, site_name: str, id_name: str) -> bool:
        """ClassTable delete; same contract as :meth:`unregister_export`."""
        with self._lock:
            return self._classes.pop((site_name, id_name), None) is not None

    # -- notification ------------------------------------------------------------

    def subscribe(self, callback: Callable[[], None]) -> None:
        """Call ``callback`` after every successful registration
        (idempotent: an already-subscribed callback keeps its place)."""
        with self._lock:
            self._subscribers.setdefault(callback)

    def _notify(self) -> None:
        # Snapshot under the lock (node threads subscribe concurrently),
        # run the callbacks outside it (they take node and site locks).
        with self._lock:
            callbacks = list(self._subscribers)
            self.stats.wakeups += len(callbacks)
        for cb in callbacks:
            cb()
