"""Invariant checkers for chaos runs.

Each checker takes the post-run world/network and returns a list of
violation strings (empty = invariant holds).  They encode the safety
properties the DiTyCO network layer must keep under *any* schedule:

* **message accounting** -- no packet vanishes without a logged fault;
* **no dangling imports** -- a site stalled on an import really is
  waiting on an unresolvable name (a stall with a resolvable name
  means a name-service notification was lost);
* **name-service integrity** -- after the failure detector
  reconfigures, no table entry points at a dead node;
* **no stale code** -- every digest in every site's code cache still
  hashes to the installed byte-code it promises, no matter how many
  crashes and restarts the schedule injected;
* **no premature reclamation** -- the distributed GC never reclaimed
  an id some live site still reachably references (lease safety);
* **export liveness** -- after a settling run, every id a distgc site
  still pins is pinned for a reason: registered, leased, or locally
  reachable (lease liveness: no export leaks forever).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime.distgc import GcScheduler
from repro.transport.sim import SimWorld
from repro.vm.values import remote_ref_key
# Macro-run completeness is checked by the workload runner after every
# run, so it lives there; it is one of this module's checkers too.
from repro.workloads.runner import check_expected_outputs  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.failure import HeartbeatMonitor
    from repro.runtime.network import DiTyCONetwork
    from .chaos import ChaosWorld


def check_message_accounting(world: "ChaosWorld") -> list[str]:
    """Every sent packet is delivered, in flight, or attributed to a
    logged fault (chaos drop or crash drop); duplicates add copies."""
    if world.in_flight:
        # A bounded run can end mid-flight; accounting applies only
        # once the wire has drained.
        return []
    balance = world.delivery_balance()
    if balance != 0:
        return [f"message accounting broken: deliveries off by "
                f"{balance:+d} (sent={world.stats.packets} "
                f"delivered={world.deliveries} "
                f"chaos-dropped={world.chaos_dropped} "
                f"crash-dropped={world.dropped_packets} "
                f"duplicated={world.chaos_duplicated})"]
    return []


def check_no_dangling_imports(net: "DiTyCONetwork") -> list[str]:
    """A stalled import must be *unresolvable*.  Probe: force every
    stalled site to retry; if any retry resolves, the site sat stalled
    on a name that was in the name service -- a lost notification.

    The probe mutates the network (it may complete the stalled work),
    so run it last, after all observations have been taken.
    """
    world = net.world
    probes = []
    for node in world.nodes.values():
        if world.is_failed(node.ip):
            continue
        for site in node.sites.values():
            if site.vm.has_stalled():
                probes.append((site, site.stats.imports_resolved))
                site.vm.resume_stalled()
                node.on_work_available()
    if not probes:
        return []
    world.run()
    return [
        f"dangling import: site {site.site_name!r} was stalled on a "
        f"resolvable name (a name-service notification was lost)"
        for site, resolved_before in probes
        if site.stats.imports_resolved > resolved_before
    ]


def check_no_stale_code(net: "DiTyCONetwork") -> list[str]:
    """No stale code after restart (or ever): recompute the digest of
    every cached installed item and compare it to its cache key, and
    re-digest every slice of every node's code store against the key
    it is kept under.  A mismatch means a FETCH/SHIPO could be
    satisfied with byte-code that is not what the sender's offer
    described -- from a store, on every future site of that node.

    Also, liveness on clean schedules: when the wire has drained and
    the schedule never dropped a packet or crashed a node, every parked
    code offer must have completed -- a leftover entry means the
    offer/need/reply protocol lost a step on its own."""
    from repro.runtime.codecache import (
        verify_cache_integrity,
        verify_store_integrity,
    )

    world = net.world
    violations = []
    for node in world.nodes.values():
        if node.codestore is not None:
            for problem in verify_store_integrity(node.codestore):
                violations.append(f"node {node.ip}: {problem}")
        for site in node.sites.values():
            if site.codecache is None:
                continue
            for problem in verify_cache_integrity(site.codecache):
                violations.append(f"site {site.site_name!r}: {problem}")
    lossy = (getattr(world, "chaos_dropped", 0)
             or getattr(world, "dropped_packets", 0)
             or getattr(world, "crashed_ever", ()))
    if not lossy and not getattr(world, "in_flight", 0):
        for node in world.nodes.values():
            for site in node.sites.values():
                if site._pending_code:
                    violations.append(
                        f"site {site.site_name!r}: fault-free run left "
                        f"{len(site._pending_code)} parked code offer(s)")
    return violations


def _distgc_sites(net: "DiTyCONetwork") -> list:
    """Every (node, site) pair running the distributed GC."""
    return [(node, site)
            for node in net.world.nodes.values()
            for site in node.sites.values()
            if site.distgc is not None]


def has_distgc(net: "DiTyCONetwork") -> bool:
    return bool(_distgc_sites(net))


def settle_distgc(net: "DiTyCONetwork") -> None:
    """Let the lease protocol converge: schedule wake ticks over a few
    lease terms (idle nodes are otherwise never scheduled, so holders
    could not renew and owners could not sweep) and drain the world.

    SimWorld only -- wall-clock transports settle in real time.
    """
    world = net.world
    if not isinstance(world, SimWorld):  # pragma: no cover - guard
        return
    sites = [site for _node, site in _distgc_sites(net)]
    if not sites:
        return
    tick = min(min(s.distgc.config.renew_s, s.distgc.config.sweep_s)
               for s in sites)
    horizon = 3 * max(s.distgc.config.lease_s
                      + s.distgc.config.effective_grace_s for s in sites)
    GcScheduler(world, period=tick).install(horizon)
    world.run()


def check_no_premature_reclaim(net: "DiTyCONetwork") -> list[str]:
    """Lease safety: no live site reachably holds a reference to an id
    its owner already reclaimed.

    The guarantee assumes lease traffic gets through in time, so the
    check disarms itself on schedules that legitimately break it:
    dropped packets (a swallowed claim/renewal *should* expire the
    lease), and jitter/delay bounds that exceed the renewal margin.
    References touching a crashed or failed node are excluded -- its
    leases expire by design.
    """
    pairs = _distgc_sites(net)
    if not pairs:
        return []
    world = net.world
    cfg = getattr(world, "config", None)
    if cfg is not None:
        if cfg.drop_prob > 0:
            return []
        latency = cfg.jitter_s + (cfg.delay_s if cfg.delay_prob > 0 else 0.0)
        margin = min(s.distgc.config.lease_s - s.distgc.config.renew_s
                     for _n, s in pairs)
        if latency >= margin:
            return []
    if getattr(world, "chaos_dropped", 0) or getattr(world, "dropped_packets", 0):
        return []
    crashed = set(getattr(world, "crashed_ever", ()))
    owners = {(site.ip, site.site_id): site for _node, site in pairs}
    violations = []
    for node, site in pairs:
        if world.is_failed(node.ip) or node.ip in crashed:
            continue
        refs = site.vm.scan_refs(extra_roots=site._gc_extra_roots())
        for ref in refs:
            owner = owners.get((ref.ip, ref.site_id))
            if owner is None or owner.ip == site.ip and owner.site_id == site.site_id:
                continue
            if owner.ip in crashed or world.is_failed(owner.ip):
                continue
            kind, ident = remote_ref_key(ref)
            if kind == "n":
                if ident in owner._gc_tombstones or ident not in owner.vm.heap:
                    violations.append(
                        f"premature reclamation: {site.site_name!r} still "
                        f"holds {ref}, but owner {owner.site_name!r} "
                        f"reclaimed heap id {ident}")
            elif ident in owner._gc_class_tombstones:
                violations.append(
                    f"premature reclamation: {site.site_name!r} still "
                    f"holds {ref}, but owner {owner.site_name!r} "
                    f"reclaimed class id {ident}")
    return violations


def check_export_liveness(net: "DiTyCONetwork") -> list[str]:
    """Lease liveness (run after :func:`settle_distgc`): every id a
    distgc site still pins must have a live reason -- a name-service
    registration, a live lease, or local reachability.  A pinned id
    with none of these is a leak the lease protocol failed to collect.
    """
    violations = []
    for node, site in _distgc_sites(net):
        if net.world.is_failed(node.ip):
            continue
        gc = site.distgc
        leased = {ident for (k, ident) in gc.leases if k == "n"}
        registered = set(site._name_exports.values())
        reachable = site.vm.heap.trace(site.vm._gc_roots(
            site._gc_extra_roots(include_exports=False)))
        for hid in sorted(site.exported_ids):
            if hid in registered or hid in leased or hid in reachable:
                continue
            violations.append(
                f"export leak: {site.site_name!r} still pins heap id "
                f"{hid} with no registration, lease, or local reference")
        leased_classes = {ident for (k, ident) in gc.leases if k == "c"}
        registered_classes = set(site._class_export_names.values())
        for cid in sorted(site._class_exports):
            if cid in registered_classes or cid in leased_classes:
                continue
            if cid in {c for (_ip, _sid, c) in site._fetched}:
                continue
            violations.append(
                f"export leak: {site.site_name!r} still holds class "
                f"export {cid} with no registration or lease")
    return violations


def _mobility_nodes(net: "DiTyCONetwork") -> list:
    return [node for node in net.world.nodes.values()
            if getattr(node, "mobility", None) is not None]


def has_mobility(net: "DiTyCONetwork") -> bool:
    return bool(_mobility_nodes(net))


def check_no_twin_site(net: "DiTyCONetwork") -> list[str]:
    """At-most-once cutover: a site is never *running* in two places.

    Three forms of twinning are checked: two nodes hosting a site of
    the same name; a node hosting a site the name service routes to a
    different live node; and a node both hosting a site and holding it
    frozen (a restore that forgot to discard the source copy)."""
    world = net.world
    violations = []
    hosts: dict[str, list[str]] = {}
    for node in world.nodes.values():
        for site in node.sites.values():
            hosts.setdefault(site.site_name, []).append(node.ip)
    for site_name, ips in sorted(hosts.items()):
        if len(ips) > 1:
            violations.append(
                f"twin site: {site_name!r} hosted by {sorted(ips)}")
    snap = net.nameservice.snapshot()
    for site_name, ips in sorted(hosts.items()):
        rec = snap["sites"].get(site_name)
        if rec is None:
            continue
        if rec.ip not in ips and rec.ip in world.nodes \
                and not world.is_failed(rec.ip):
            violations.append(
                f"twin site: {site_name!r} runs at {sorted(ips)} but the "
                f"name service routes to live node {rec.ip}")
    for node in _mobility_nodes(net):
        for site_id, record in node.mobility.frozen.items():
            if site_id in node.sites:
                violations.append(
                    f"twin site: {record.site_name!r} both hosted and "
                    f"frozen at {node.ip}")
    return violations


def check_no_lost_site(net: "DiTyCONetwork") -> list[str]:
    """No migration loses its site: every site a migration manager
    tracks is accounted for -- an active outbound migration holds the
    frozen copy at the source, and a completed one left a tombstone
    behind and the site running at exactly the destination.

    Scoped to mobility-tracked sites only: the TyCOi legitimately
    reaps exited sites (their SiteTable rows stay), so a network-wide
    "registered but hosted nowhere" check would false-positive on
    every completed program."""
    world = net.world
    violations = []
    for node in _mobility_nodes(net):
        manager = node.mobility
        for token, record in sorted(manager.outbound.items()):
            if record.site_id not in manager.frozen:
                violations.append(
                    f"lost site: migration {token} of "
                    f"{record.site_name!r} is active at {node.ip} but "
                    f"holds no frozen state")
        for site_id, dest_ip in sorted(manager.tombstones.items()):
            if world.is_failed(dest_ip):
                continue
            dest = world.nodes.get(dest_ip)
            if dest is None:
                violations.append(
                    f"lost site: tombstone at {node.ip} forwards site "
                    f"{site_id} to unknown node {dest_ip}")
                continue
            hosted = site_id in dest.sites
            frozen_there = dest.mobility is not None \
                and site_id in dest.mobility.frozen
            forwarded_on = dest.mobility is not None \
                and site_id in dest.mobility.tombstones
            # A migrated site that exited and was reaped by the TyCOi
            # is accounted for by the destination's completion record.
            arrived = dest.mobility is not None and any(
                sid == site_id
                for _name, sid in dest.mobility.completed_in.values())
            if not (hosted or frozen_there or forwarded_on or arrived):
                violations.append(
                    f"lost site: tombstone at {node.ip} forwards site "
                    f"{site_id} to {dest_ip}, which neither hosts nor "
                    f"tracks it")
    return violations


def check_nameservice_integrity(net: "DiTyCONetwork",
                                monitor: "HeartbeatMonitor") -> list[str]:
    """After reconfiguration, no name-service row may point at a node
    the detector suspects (and that has not come back)."""
    world = net.world
    violations = []
    snap = net.nameservice.snapshot()
    for ip in monitor.suspected:
        if not world.is_failed(ip):
            continue  # restarted: entries may legitimately return
        stale = [rec.site_name for rec in snap["sites"].values()
                 if rec.ip == ip]
        if stale:
            violations.append(
                f"name service still routes to dead node {ip}: "
                f"sites {sorted(stale)}")
    return violations
