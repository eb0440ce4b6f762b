"""Macro chaos replay: the chat fabric under seeded faults.

``install_scenario`` plants a whole workload (fabric + open-loop
arrival schedule) on a :class:`ChaosWorld`; the per-run invariants
(message accounting, no dangling imports, no stale code) must hold
under drops, duplicates and jitter, and the same ``(spec, chaos
seed)`` pair must replay to identical canonical outputs and fault
logs.  A fault-free schedule must additionally complete
every operation with exactly the expected effects.
"""

import pytest

from repro.testkit.chaos import ChaosConfig
from repro.testkit.explore import run_scenario
from repro.testkit.invariants import check_expected_outputs
from repro.workloads import WorkloadSpec, expected_outputs, install_scenario

SPEC = WorkloadSpec("pubsub", seed=5, ops=12, rate_per_s=1000.0,
                    nodes=3, topics=2, subscribers=2)

FAULTY = ChaosConfig(drop_prob=0.05, dup_prob=0.02, jitter_s=0.001)

SEEDS = (1, 2, 3)


def scenario(net) -> None:
    install_scenario(net, SPEC)


class TestChaosReplay:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_invariants_hold_under_faults(self, seed):
        run = run_scenario(scenario, seed=seed, config=FAULTY)
        assert run.violations == [], run.flight_dump

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_replays_identically(self, seed):
        a = run_scenario(scenario, seed=seed, config=FAULTY)
        b = run_scenario(scenario, seed=seed, config=FAULTY)
        assert a.canonical_outputs() == b.canonical_outputs()
        assert a.fault_log == b.fault_log
        assert a.elapsed == b.elapsed

    def test_different_seeds_schedule_different_faults(self):
        logs = {run_scenario(scenario, seed=s, config=FAULTY).fault_log
                for s in SEEDS}
        assert len(logs) > 1


class TestFaultFree:
    def test_clean_schedule_completes_every_operation(self):
        run = run_scenario(scenario, seed=9)
        assert run.violations == []
        assert run.quiescent
        want = {site: tuple(sorted(map(str, values)))
                for site, values in expected_outputs(SPEC).items()}
        got = {site: values for site, values in run.canonical_outputs().items()
               if site in want}
        assert got == want


class TestExpectedOutputsChecker:
    """The invariant helper itself, on a live network."""

    def _net(self):
        from repro.runtime import DiTyCONetwork

        net = DiTyCONetwork()
        net.add_node("n1")
        net.launch("n1", "s", "(print![1] | print![2])")
        net.run()
        return net

    def test_matching_multiset_passes_any_order(self):
        net = self._net()
        assert check_expected_outputs(net, {"s": (2, 1)}) == []

    def test_missing_value_reported(self):
        net = self._net()
        [violation] = check_expected_outputs(net, {"s": (1, 2, 3)})
        assert "missing" in violation and "[3]" in violation

    def test_unexpected_value_reported(self):
        net = self._net()
        [violation] = check_expected_outputs(net, {"s": (1,)})
        assert "unexpected" in violation

    def test_absent_site_reported(self):
        net = self._net()
        [violation] = check_expected_outputs(net, {"ghost": (1,)})
        assert "ghost" in violation and "does not exist" in violation
