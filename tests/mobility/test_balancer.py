"""Load balancer tests: the ThresholdPolicy decision table and the
LoadBalancer driving real migrations on the simulator.
"""

from repro.mobility.balancer import (
    BalanceDecision,
    LoadBalancer,
    NodeLoad,
    ThresholdPolicy,
)
from repro.runtime import DiTyCONetwork
from repro.testkit import invariants as inv


def node(ip, load, *sites):
    return NodeLoad(ip=ip, load=load, sites=tuple(sites))


class TestThresholdPolicy:
    def decide(self, loads, tick=10, last_move=-1, **kw):
        return ThresholdPolicy(**kw).decide(loads, tick, last_move)

    def test_moves_hottest_site_to_coldest_node(self):
        d = self.decide([
            node("a", 1000.0, (800.0, "hot"), (200.0, "mild")),
            node("b", 10.0, (10.0, "cool")),
            node("c", 50.0, (50.0, "tepid")),
        ])
        assert d == BalanceDecision(tick=10, site_name="hot", src_ip="a",
                                    dest_ip="b", src_load=1000.0,
                                    dest_load=10.0)

    def test_below_hot_load_stays_put(self):
        assert self.decide([node("a", 100.0, (100.0, "s")),
                            node("b", 0.0)]) is None

    def test_imbalance_ratio_required(self):
        # 1000 vs 600: busy but balanced (ratio < 2).
        assert self.decide([node("a", 1000.0, (1000.0, "s")),
                            node("b", 600.0, (600.0, "t"))]) is None

    def test_cooldown_suppresses_back_to_back_moves(self):
        loads = [node("a", 1000.0, (1000.0, "s")), node("b", 0.0)]
        assert self.decide(loads, tick=5, last_move=4) is None
        assert self.decide(loads, tick=6, last_move=4) is None
        assert self.decide(loads, tick=7, last_move=4) is not None

    def test_pinned_sites_are_skipped(self):
        d = self.decide([
            node("a", 1000.0, (900.0, "pinned-one"), (100.0, "movable")),
            node("b", 0.0),
        ], pinned=frozenset({"pinned-one"}))
        assert d is not None and d.site_name == "movable"

    def test_all_sites_pinned_means_no_move(self):
        assert self.decide([node("a", 1000.0, (1000.0, "s")),
                            node("b", 0.0)],
                           pinned=frozenset({"s"})) is None

    def test_single_node_never_moves(self):
        assert self.decide([node("a", 9999.0, (9999.0, "s"))]) is None


class _Sink:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def hot_cold_net(rounds=40):
    """n1 runs a self-messaging hot loop plus an idle n2: the textbook
    imbalance.  The looper counts down so the run terminates."""
    net = DiTyCONetwork()
    net.add_nodes(["n1", "n2"])
    net.launch("n1", "hotsite", (
        "def Loop(ch, out) = ch?(n) = "
        "if n == 0 then out![n] else (ch![n - 1] | Loop[ch, out]) "
        f"in new ch (ch![{rounds}] | Loop[ch, print])"))
    return net


class TestLoadBalancer:
    def test_balancer_migrates_hot_site(self):
        net = hot_cold_net()
        sink = _Sink()
        net.world.obs.subscribe(sink)
        balancer = LoadBalancer(net, ThresholdPolicy(hot_load=4.0,
                                                     imbalance=2.0))
        balancer.install_sim(interval=2e-5, until=2e-3)
        net.run()
        assert len(balancer.decisions) >= 1
        first = balancer.decisions[0]
        assert first.site_name == "hotsite"
        assert (first.src_ip, first.dest_ip) == ("n1", "n2")
        # The run finished correctly on its final home (the load
        # follows the site, so it may bounce once cooldown expires).
        assert net.site("hotsite").ip == balancer.decisions[-1].dest_ip
        assert net.site("hotsite").output == [0]
        assert net.is_quiescent()
        assert inv.check_no_twin_site(net) + inv.check_no_lost_site(net) == []
        # The decision surfaced on the bus for the flight recorder.
        balances = [e for e in sink.events if e.kind == "balance"]
        assert len(balances) == len(balancer.decisions)
        assert "hotsite" in balances[0].note

    def test_quiet_network_never_migrates(self):
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "quiet", "print![1]")
        balancer = LoadBalancer(net)  # default thresholds: high
        balancer.install_sim(interval=2e-5, until=5e-4)
        net.run()
        assert balancer.decisions == []
        assert balancer.ticks > 0
        assert net.site("quiet").ip == "n1"

    def test_instruction_delta_not_total(self):
        """A site that was busy once but went idle must cool off:
        load is the per-sample delta, not the lifetime counter."""
        net = hot_cold_net(rounds=10)
        balancer = LoadBalancer(net, ThresholdPolicy(hot_load=1e9))
        net.run()                      # workload fully done
        first = balancer.sample()
        again = balancer.sample()
        n1_first = next(n for n in first if n.ip == "n1")
        n1_again = next(n for n in again if n.ip == "n1")
        assert n1_first.load > 0.0     # lifetime instructions show once
        assert n1_again.load == 0.0    # then the delta goes to zero

    def test_tick_rechecks_site_still_hosted(self):
        """If the hot site vanishes between sample and act (reaped,
        or already migrating), the tick declines instead of raising."""
        net = hot_cold_net()
        balancer = LoadBalancer(net, ThresholdPolicy(hot_load=0.0,
                                                     imbalance=0.0))
        net.run()
        balancer.sample()              # seed the deltas
        node1 = net.node("n1")
        site = node1.sites_by_name["hotsite"]
        # Simulate a racing freeze: the site leaves the pool but the
        # sampled loads still name it.
        sample = balancer.sample
        loads = sample()

        def stale_sample():
            return loads

        balancer.sample = stale_sample
        node1.remove_site(site)
        assert balancer.tick() is None
        assert balancer.decisions == []


class TestDecisionObservability:
    """PR9: every ordered migration is first-class on the obs plane --
    a ``balance_decide`` event carrying the policy's trigger and a
    ``repro_balancer_decisions_total{src,dst,reason}`` counter."""

    def _balanced_run(self, registry=None):
        net = hot_cold_net()
        sink = _Sink()
        net.world.obs.subscribe(sink)
        balancer = LoadBalancer(net, ThresholdPolicy(hot_load=4.0,
                                                     imbalance=2.0),
                                registry=registry)
        balancer.install_sim(interval=2e-5, until=2e-3)
        net.run()
        assert balancer.decisions
        return balancer, sink

    def test_balance_decide_event_rides_with_the_legacy_balance(self):
        balancer, sink = self._balanced_run()
        decides = [e for e in sink.events if e.kind == "balance_decide"]
        legacy = [e for e in sink.events if e.kind == "balance"]
        assert len(decides) == len(legacy) == len(balancer.decisions)
        first = balancer.decisions[0]
        assert decides[0].src == first.src_ip
        assert decides[0].dst == first.dest_ip
        assert decides[0].note == f"{first.site_name} {first.reason}"

    def test_decisions_counter_carries_src_dst_reason(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        balancer, _ = self._balanced_run(registry=registry)
        first = balancer.decisions[0]
        assert first.reason == "imbalance"
        text = registry.render()
        assert (f'repro_balancer_decisions_total{{src="{first.src_ip}",'
                f'dst="{first.dest_ip}",reason="imbalance"}}') in text

    def test_no_registry_means_no_counter_and_no_crash(self):
        balancer, _ = self._balanced_run(registry=None)
        assert balancer.registry is None
