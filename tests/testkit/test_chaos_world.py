"""Tests for the seeded chaos world: determinism, fault injection,
crash/restart, the delivery-accounting ledger and the fault log."""

import pytest

from repro.obs import TraceCollector
from repro.runtime import DiTyCONetwork
from repro.testkit import (ChaosConfig, ChaosWorld, CrashEvent, FaultLog,
                           run_scenario)
from repro.transport import SimWorld

from .corpus import CORPUS
from .scenarios import SCENARIOS, echo, pump


def run_once(seed, config, scenario=echo, sink=None):
    world = ChaosWorld(seed=seed, config=config)
    if sink is not None:
        world.obs.subscribe(sink)
    net = DiTyCONetwork(world=world)
    scenario(net)
    net.run(max_time=5.0)
    return world, net


def fingerprint(seed, config):
    """Everything observable about a run, for determinism comparison
    (the last entry is the text of every event it published)."""
    sink = TraceCollector()
    world, net = run_once(seed, config, sink=sink)
    return (
        net.time,
        net.outputs(),
        world.stats.packets,
        world.deliveries,
        world.chaos_dropped,
        world.chaos_duplicated,
        world.chaos_delayed,
        "\n".join(str(e) for e in sink.events),
    )


class TestDeterminism:
    CONFIGS = [
        ChaosConfig(),
        ChaosConfig(jitter_s=1e-4),
        ChaosConfig(drop_prob=0.5),
        ChaosConfig(dup_prob=0.5),
        ChaosConfig(delay_prob=0.5, delay_s=1e-3),
        ChaosConfig(jitter_s=1e-4, drop_prob=0.3, dup_prob=0.3,
                    delay_prob=0.3, delay_s=1e-3,
                    crashes=(CrashEvent("n1", at=2e-4),)),
    ]

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=lambda c: c.describe())
    def test_same_seed_same_run(self, config):
        a = fingerprint(7, config)
        b = fingerprint(7, config)
        assert a == b

    def test_different_seed_changes_schedule(self):
        config = ChaosConfig(drop_prob=0.5, jitter_s=1e-4)
        logs = {fingerprint(seed, config)[-1] for seed in range(8)}
        assert len(logs) > 1

    def test_zero_config_matches_plain_simworld(self):
        """With no faults configured, ChaosWorld is byte-for-byte the
        deterministic simulator (the rng is never consulted)."""
        world, net = run_once(123, ChaosConfig(), scenario=pump)
        plain = SimWorld()
        plain_net = DiTyCONetwork(world=plain)
        pump(plain_net)
        plain_net.run(max_time=5.0)
        assert net.time == plain_net.time
        assert net.outputs() == plain_net.outputs()
        assert world.stats.packets == plain.stats.packets


class TestFaultInjection:
    def test_drop_loses_messages(self):
        config = ChaosConfig(drop_prob=1.0)
        world, net = run_once(1, config)
        assert world.deliveries == 0
        assert world.chaos_dropped == world.stats.packets > 0
        assert net.site("client").output == []
        assert "drop" in world.faults.format()

    def test_dup_delivers_twice(self):
        config = ChaosConfig(dup_prob=1.0)
        world, net = run_once(1, config)
        assert world.chaos_duplicated == world.stats.packets > 0
        assert world.deliveries == world.stats.packets * 2

    def test_dup_preserves_race_free_answer(self):
        """Duplicated packets re-deliver a message to a consumed
        reply channel; the linear client must still print once."""
        world, net = run_once(1, ChaosConfig(dup_prob=1.0))
        assert net.site("client").output == [7]

    def test_delay_still_delivers(self):
        config = ChaosConfig(delay_prob=1.0, delay_s=1e-2)
        world, net = run_once(1, config)
        assert world.chaos_delayed > 0
        assert net.site("client").output == [7]
        # The extra latency is visible on the virtual clock.
        base_world, base_net = run_once(1, ChaosConfig())
        assert net.time > base_net.time

    def test_jitter_preserves_answer(self):
        for seed in range(5):
            world, net = run_once(seed, ChaosConfig(jitter_s=1e-3),
                                  scenario=pump)
            outs = sorted(v for out in net.outputs().values() for v in out)
            assert outs == [0, 1, 2, 3]

    def test_rng_decisions_are_seed_local(self):
        """Two different seeds under drop_prob=0.5 eventually disagree
        on at least one admit decision."""
        decisions = {run_once(seed, ChaosConfig(drop_prob=0.5))[0].chaos_dropped
                     for seed in range(8)}
        assert len(decisions) > 1


class TestCrashRestart:
    def test_scheduled_crash_stops_node(self):
        config = ChaosConfig(crashes=(CrashEvent("n1", at=0.0),))
        world, net = run_once(1, config)
        assert world.is_failed("n1")
        assert "n1" in world.crashed_ever
        assert net.site("client").output == []

    def test_restart_heals(self):
        config = ChaosConfig(
            crashes=(CrashEvent("n1", at=0.0, restart_at=1e-3),))
        world, net = run_once(1, config)
        assert not world.is_failed("n1")
        assert "n1" in world.restarted
        assert "restart" in world.faults.format()

    def test_restart_before_crash_rejected(self):
        with pytest.raises(ValueError):
            CrashEvent("n1", at=1.0, restart_at=0.5)

    def test_restart_unknown_node_rejected(self):
        world = ChaosWorld()
        with pytest.raises(LookupError):
            world.restart_node("ghost")

    def test_double_crash_is_idempotent(self):
        world, net = run_once(1, ChaosConfig())
        world.fail_node("n1")
        world.fail_node("n1")
        assert world.is_failed("n1")
        assert world.faults.format().count("crash") == 1


class TestAccounting:
    @pytest.mark.parametrize("config", TestDeterminism.CONFIGS,
                             ids=lambda c: c.describe())
    def test_ledger_balances(self, config):
        for seed in range(5):
            world, net = run_once(seed, config)
            assert world.in_flight == 0
            assert world.delivery_balance() == 0

    def test_ledger_balances_many_clients(self):
        config = ChaosConfig(jitter_s=1e-4, drop_prob=0.3, dup_prob=0.3,
                             delay_prob=0.3, delay_s=1e-3)
        for seed in range(5):
            world, net = run_once(seed, config, scenario=pump)
            assert world.in_flight == 0
            assert world.delivery_balance() == 0

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(drop_prob=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(jitter_s=-1.0)


class TestFaultLog:
    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_is_the_fault_subsequence_of_the_bus(self, entry):
        """``ChaosRun.fault_log`` is nothing but the fault kinds of the
        one event stream, bus sequence numbers included: a second sink
        on the same run filters down to the identical text, and a
        replay reproduces it byte for byte."""
        def replay():
            collector = TraceCollector()

            def observed(net):
                net.world.obs.subscribe(collector)
                SCENARIOS[entry.scenario](net)

            run = run_scenario(observed, entry.seed, entry.config)
            return run.fault_log, "\n".join(
                str(e) for e in collector.events if e.kind in FaultLog.KINDS)

        log, filtered = replay()
        assert log == filtered
        assert replay() == (log, filtered)
