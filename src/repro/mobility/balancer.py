"""A metrics-driven load balancer over live migration.

The balancer periodically samples per-site load (instruction deltas
since the last sample plus current run-queue and mailbox depths --
exactly the quantities the metrics registry exposes as
``repro_vm_instructions_total`` and ``repro_vm_runqueue_depth``),
aggregates them per node, and asks a policy whether to move a site.
When the policy says yes, the hottest migratable site of the hottest
node is live-migrated to the coldest node.

The policy is pluggable; :class:`ThresholdPolicy` implements
threshold + hysteresis: a node must be *absolutely* busy
(:data:`HOT_LOAD`) and *relatively* overloaded (:data:`IMBALANCE`
times the coldest node), and after any migration the balancer holds
off for :data:`COOLDOWN_TICKS` samples so a decision can settle before
the next one is made on post-move numbers.

Every decision is emitted as one ``balance`` event on the node's
observability bus (site, both loads and the policy's reason), so the
flight recorder shows what the balancer did right before any
invariant violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Minimum load (instructions this sample + queue depths) before a
#: node counts as hot at all.  Read per decision; tests monkeypatch it.
HOT_LOAD = 512.0
#: The hottest node must carry at least this many times the coldest
#: node's load (+1 smoothing so an idle cold node works).
IMBALANCE = 2.0
#: Samples to sit out after a migration (hysteresis).
COOLDOWN_TICKS = 2


@dataclass(frozen=True, slots=True)
class NodeLoad:
    """One node's sampled load: instruction delta + queue depths."""

    ip: str
    load: float
    #: (load, site_name) per migratable site, hottest first.
    sites: tuple[tuple[float, str], ...]


@dataclass(frozen=True, slots=True)
class BalanceDecision:
    """One migration the balancer ordered (or declined to order)."""

    tick: int
    site_name: str
    src_ip: str
    dest_ip: str
    src_load: float
    dest_load: float
    #: Why the policy moved: the trigger that fired (the
    #: ``reason`` label of ``repro_balancer_decisions_total``).
    reason: str = "imbalance"


@dataclass(frozen=True, slots=True)
class ThresholdPolicy:
    """Threshold + hysteresis migration policy (:data:`HOT_LOAD`,
    :data:`IMBALANCE`, :data:`COOLDOWN_TICKS`)."""

    #: Site names the balancer must never move (e.g. a site whose
    #: output is tapped by a collector).
    pinned: frozenset = frozenset()

    def decide(self, loads: list[NodeLoad], tick: int,
               last_move_tick: int) -> Optional[BalanceDecision]:
        """Pick a migration, or None.  ``loads`` must be sorted by ip
        (determinism); ties break toward the lexically first node."""
        if len(loads) < 2:
            return None
        if last_move_tick >= 0 and tick - last_move_tick <= COOLDOWN_TICKS:
            return None
        hottest = max(loads, key=lambda n: n.load)
        coldest = min(loads, key=lambda n: n.load)
        if hottest.ip == coldest.ip or hottest.load < HOT_LOAD:
            return None
        if hottest.load < IMBALANCE * (coldest.load + 1.0):
            return None
        for site_load, site_name in hottest.sites:
            if site_name in self.pinned:
                continue
            return BalanceDecision(tick=tick, site_name=site_name,
                                   src_ip=hottest.ip, dest_ip=coldest.ip,
                                   src_load=hottest.load,
                                   dest_load=coldest.load)
        return None


class LoadBalancer:
    """Samples a network's load and migrates hot sites.

    Works on any world: :meth:`install` plants :meth:`rebalance` on
    the world's timer (:meth:`~repro.transport.base.World.schedule_at`),
    virtual seconds on the simulator and monotonic ones on sockets.
    """

    def __init__(self, net, policy: Optional[ThresholdPolicy] = None,
                 registry=None) -> None:
        self.net = net
        self.policy = policy or ThresholdPolicy()
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`: every
        #: ordered migration bumps
        #: ``repro_balancer_decisions_total{src,dst,reason}``.
        self.registry = registry
        self.decisions: list[BalanceDecision] = []
        self.ticks = 0
        self._last_move_tick = -1
        #: site id -> instruction total at the previous sample, for the
        #: sites still registered (a relaunch under a reaped site's
        #: name gets a new id, so it starts from zero).
        self._last_instructions: dict[int, int] = {}

    # -- sampling ------------------------------------------------------------

    def sample(self) -> list[NodeLoad]:
        """Per-node load, sorted by ip.  A site's load is its
        instruction delta since the last sample plus its run-queue and
        mailbox depths (work done + work waiting)."""
        # A site in flight between two nodes keeps its baseline (it is
        # still registered); a reaped one's goes.
        registered = {rec.site_id for rec in
                      self.net.nameservice.snapshot()["sites"].values()}
        last = {site_id: total
                for site_id, total in self._last_instructions.items()
                if site_id in registered}
        loads = []
        for ip in sorted(self.net.world.nodes):
            node = self.net.world.nodes[ip]
            site_loads = []
            for site in node.sites.values():
                total = site.vm.stats.instructions
                delta = total - last.get(site.site_id, 0)
                last[site.site_id] = total
                site_loads.append((float(delta + len(site.vm.runqueue)
                                         + len(site.incoming)
                                         + len(site.outgoing)),
                                   site.site_name))
            site_loads.sort(key=lambda pair: (-pair[0], pair[1]))
            loads.append(NodeLoad(ip=ip,
                                  load=sum(l for l, _ in site_loads),
                                  sites=tuple(site_loads)))
        self._last_instructions = last
        return loads

    # -- the control loop body -----------------------------------------------

    def rebalance(self) -> Optional[BalanceDecision]:
        """One sample + policy evaluation; migrates when told to."""
        self.ticks += 1
        loads = self.sample()
        decision = self.policy.decide(loads, self.ticks,
                                      self._last_move_tick)
        if decision is None:
            return None
        # A migration may already hold this site frozen, or the site
        # may have exited since sampling; re-check before acting.
        src_node = self.net.world.nodes.get(decision.src_ip)
        if src_node is None or decision.site_name not in src_node.sites_by_name:
            return None
        self._last_move_tick = self.ticks
        self.decisions.append(decision)
        # The policy's trigger rides along, so traces and metrics
        # answer "why did it move".
        src_node.trace("balance", src=decision.src_ip, dst=decision.dest_ip,
                       note=(f"{decision.site_name} load "
                             f"{decision.src_load:.0f}->"
                             f"{decision.dest_load:.0f} {decision.reason}"))
        if self.registry is not None:
            self.registry.counter(
                "repro_balancer_decisions_total",
                "Migrations ordered by the load balancer.",
                ("src", "dst", "reason")).labels(
                    decision.src_ip, decision.dest_ip,
                    decision.reason).inc()
        self.net.migrate(decision.site_name, decision.dest_ip)
        return decision

    # -- driver --------------------------------------------------------------

    def install(self, interval: float, until: float) -> None:
        """Run :meth:`rebalance` on the world's timer every ``interval``
        seconds from now until time ``until``.  Each tick is planned
        from the last one's planned time (on the simulator that is the
        time it ran), so a late wall-clock tick does not drop the rest."""
        world = self.net.world

        def fire(at: float) -> None:
            self.rebalance()
            nxt = at + interval
            if nxt <= until:
                world.schedule_at(nxt, lambda: fire(nxt))

        first = world.time + interval
        world.schedule_at(first, lambda: fire(first))
