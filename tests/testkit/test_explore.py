"""Tests for the schedule explorer and the invariant checkers."""

import pytest

from repro.runtime import DiTyCONetwork, HeartbeatMonitor
from repro.testkit import (
    ChaosConfig,
    ChaosWorld,
    CrashEvent,
    check_message_accounting,
    check_nameservice_integrity,
    check_no_dangling_imports,
    explore,
    run_scenario,
)

from .scenarios import echo, lease_churn, pump


class TestExplore:
    def test_loss_free_sweep_is_confluent(self):
        """Jitter and delay may reorder every delivery, but a race-free
        program's observable answer must not change (invariant 1)."""
        config = ChaosConfig(jitter_s=1e-3, delay_prob=0.5, delay_s=1e-2)
        report = explore(pump, range(10), config)
        assert report.ok(), report.summary()
        assert not report.divergent
        for run in report.runs:
            assert run.quiescent

    def test_drop_sweep_finds_divergent_schedules(self):
        """The acceptance scenario: a seeded message-drop sweep must
        surface schedules where the answer diverges from the fault-free
        baseline, each one flagged with its drop event and carrying a
        one-line repro command."""
        config = ChaosConfig(drop_prob=0.5)
        report = explore(echo, range(10), config)
        assert report.divergent, report.summary()
        for run in report.divergent:
            # The checker attributes the loss to an explicit fault...
            assert run.chaos_dropped > 0
            assert "drop" in run.fault_log
            # ...the ledger still balances (no *silent* loss)...
            assert not run.violations
            # ...and the schedule is replayable from one line.
            assert f"--seed {run.seed}" in run.repro("echo.tycosh")
            assert "--drop 0.5" in run.repro("echo.tycosh")
        assert "divergent" in report.summary()

    def test_divergent_schedule_replays_identically(self):
        config = ChaosConfig(drop_prob=0.5)
        report = explore(echo, range(10), config)
        found = report.divergent[0]
        replay = run_scenario(echo, found.seed, config)
        assert replay.outputs == found.outputs
        assert replay.fault_log == found.fault_log

    def test_crash_with_monitor_keeps_nameservice_clean(self):
        config = ChaosConfig(crashes=(CrashEvent("n1", at=2e-3),))
        report = explore(echo, range(5), config, monitor=True)
        assert report.ok(), report.summary()

    def test_termination_never_fires_early_under_chaos(self):
        """Runs cut off by ``max_time`` while delayed packets are still
        on the wire must not read quiescent: a run is over only when
        nothing is left to deliver."""
        config = ChaosConfig(jitter_s=1e-3, delay_prob=0.5, delay_s=5e-3)
        cut = 0
        for seed in range(5):
            run = run_scenario(pump, seed, config, max_time=2e-3)
            on_wire = (run.packets + run.chaos_duplicated - run.deliveries
                       - run.chaos_dropped - run.crash_dropped)
            if on_wire:
                cut += 1
                assert not run.quiescent, seed
        assert cut

    def test_lease_churn_sweep_no_premature_reclaim(self):
        """The distgc acceptance sweep: ten seeds of delivery jitter
        over the lease-churn scenario, with the no-premature-reclaim
        and export-liveness invariants armed after every run."""
        config = ChaosConfig(jitter_s=1e-5)
        report = explore(lease_churn, range(10), config)
        assert report.ok(), report.summary()

    def test_lease_churn_crash_sweep_holds_invariants(self):
        """Crashing the owner mid-run (the corpus entries' family of
        schedules) must never break lease safety across seeds."""
        config = ChaosConfig(
            crashes=(CrashEvent("n1", at=7.45e-4, restart_at=7.7e-4),))
        report = explore(lease_churn, range(5), config)
        assert report.ok(), report.summary()

    def test_summary_mentions_every_seed(self):
        report = explore(echo, range(3), ChaosConfig())
        text = report.summary()
        for seed in range(3):
            assert f"seed {seed}:" in text


class TestMessageAccounting:
    def test_catches_silent_loss(self):
        """A transport that loses a packet without logging a fault is
        exactly what the ledger invariant exists to catch."""

        class LeakyWorld(ChaosWorld):
            def _admit_packet(self, src_ip, dst_ip, data):
                return 0  # vanish, and tell no one

        world = LeakyWorld(seed=1)
        net = DiTyCONetwork(world=world)
        echo(net)
        net.run(max_time=5.0)
        violations = check_message_accounting(world)
        assert violations
        assert "silent" in violations[0] or "accounting" in violations[0]

    def test_clean_run_balances(self):
        world = ChaosWorld(seed=1, config=ChaosConfig(dup_prob=0.5))
        net = DiTyCONetwork(world=world)
        pump(net)
        net.run(max_time=5.0)
        assert check_message_accounting(world) == []


class TestDanglingImports:
    def test_catches_lost_notification(self):
        """Export a name while notifications are suppressed: the
        stalled importer never retries -- a dangle the probe detects."""
        world = ChaosWorld(seed=1)
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2"])
        net.launch("n2", "client",
                   "import svc from server in svc![1]")
        net.run(max_time=1.0)
        assert net.site("client").vm.has_stalled()
        # Launch the real server with notifications suppressed: the
        # export lands in the tables but the stalled client never
        # hears about it (a simulated lost notification).
        ns = net.nameservice
        ns._notify = lambda: None
        net.launch("n1", "server", "export new svc svc?(w) = print![w]")
        net.run(max_time=1.0)
        assert net.site("client").vm.has_stalled()
        assert ns.lookup_name("server", "svc") is not None
        violations = check_no_dangling_imports(net)
        assert violations
        assert "dangling import" in violations[0]

    def test_healthy_stall_is_not_a_dangle(self):
        """An import of a name that really does not exist must stay a
        plain (recoverable) stall."""
        world = ChaosWorld(seed=1)
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2"])
        net.launch("n2", "client",
                   "import svc from nowhere in svc![1]")
        net.run(max_time=1.0)
        assert check_no_dangling_imports(net) == []
        assert net.site("client").vm.has_stalled()


class TestNameServiceIntegrity:
    def _crashed_monitored_net(self):
        world = ChaosWorld(seed=1)
        net = DiTyCONetwork(world=world)
        echo(net)
        monitor = HeartbeatMonitor(world, net.nameservice,
                                   period=1e-3, timeout=3.5e-3)
        monitor.install(horizon=0.02)
        world.schedule_at(2e-3, lambda: world.fail_node("n1"))
        net.run()
        return world, net, monitor

    def test_reconfigured_tables_pass(self):
        world, net, monitor = self._crashed_monitored_net()
        assert "n1" in monitor.suspected
        assert check_nameservice_integrity(net, monitor) == []

    def test_stale_entry_is_caught(self):
        world, net, monitor = self._crashed_monitored_net()
        # Sneak the dead node's record back in (a reconfiguration bug).
        from repro.runtime.nameservice import SiteRecord

        net.nameservice._sites["server"] = SiteRecord("server", 1, "n1")
        violations = check_nameservice_integrity(net, monitor)
        assert violations
        assert "dead node n1" in violations[0]


class TestTerminationInvariant:
    """A run is over when its world is quiescent: nothing runnable,
    parked, or on the wire."""

    def test_quiescent_run_passes(self):
        world = ChaosWorld(seed=1)
        net = DiTyCONetwork(world=world)
        pump(net)
        net.run()
        assert net.is_quiescent()
        assert world.in_flight == 0
        assert check_message_accounting(world) == []

    def test_in_flight_packets_block_detection(self):
        """A bounded run stops with the request still on the (slow)
        wire and every node idle: the world must not call that
        quiescent."""
        config = ChaosConfig(delay_prob=1.0, delay_s=1.0)
        world = ChaosWorld(seed=1, config=config)
        net = DiTyCONetwork(world=world)
        echo(net)
        net.run(max_time=1e-4)
        assert world.in_flight == 1
        assert all(not node.has_work() for node in world.nodes.values())
        assert not net.is_quiescent()
        net.run()
        assert world.in_flight == 0
        assert net.is_quiescent()
