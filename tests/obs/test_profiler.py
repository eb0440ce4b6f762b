"""The sampling profiler: determinism and schedule neutrality.

The contract (docs/OBSERVABILITY.md): in ``instructions`` mode the
profile is a pure function of ``(program, seed, stride)`` -- repeated
runs produce byte-identical collapsed output -- and attaching the
profiler must not change the run itself (outputs, instruction counts
and virtual time all match an unprofiled run bit-for-bit).
"""

import pytest

from repro.obs import VMProfiler
from repro.runtime import DiTyCONetwork

from tests.testkit import scenarios
from tests.vm.arms import each_arm


def _run(profile: bool, stride: int = 16):
    net = DiTyCONetwork()
    prof = None
    if profile:
        prof = VMProfiler(stride=stride)
        prof.install_network(net)
    scenarios.pump(net, clients=4)
    net.run(1.0)
    digest = {
        "outputs": {s.site_name: tuple(s.output)
                    for node in net.world.nodes.values()
                    for s in node.sites.values()},
        "instructions": {s.site_name: s.vm.stats.instructions
                         for node in net.world.nodes.values()
                         for s in node.sites.values()},
        "time": net.time,
    }
    return prof, digest


class TestDeterminism:
    def test_same_program_seed_stride_same_bytes(self):
        p1, _ = _run(True, stride=16)
        p2, _ = _run(True, stride=16)
        assert p1.samples > 0
        assert p1.collapsed() == p2.collapsed()

    def test_collapsed_lines_are_sorted_flamegraph_frames(self):
        prof, _ = _run(True, stride=16)
        lines = prof.collapsed().splitlines()
        assert lines == sorted(lines)
        for line in lines:
            frame, count = line.rsplit(" ", 1)
            assert len(frame.split(";")) == 3   # site;block;kind
            assert int(count) > 0

    def test_attribution_is_engine_independent(self, monkeypatch):
        # The profiler cuts the loop the VM runs anyway -- generated
        # code, HALT chaining included, closures or the interpreter --
        # just before each sample point and runs the sampled
        # instruction alone: whichever
        # tier a block runs on, every (site, block, handler-kind) frame
        # and count matches the reference loop byte for byte.
        monkeypatch.setenv("REPRO_VM_ENGINE", "slow")
        p_ref, d_ref = _run(True, stride=16)
        assert p_ref.samples > 0
        monkeypatch.setenv("REPRO_VM_ENGINE", "compiled")
        for arm in each_arm(monkeypatch):
            prof, digest = _run(True, stride=16)
            assert prof.collapsed() == p_ref.collapsed(), arm
            assert digest == d_ref, arm


class TestScheduleNeutrality:
    def test_profiled_run_is_bit_identical_to_unprofiled(self):
        _, with_prof = _run(True, stride=8)
        _, without = _run(False)
        assert with_prof == without


class TestOutputs:
    def test_to_registry_emits_sample_counters(self):
        from repro.obs import MetricsRegistry

        prof, _ = _run(True, stride=16)
        reg = MetricsRegistry()
        prof.to_registry(reg)
        text = reg.render()
        assert "repro_profile_samples_total{" in text
        total = sum(prof.counts.values())
        assert total == prof.samples

    def test_future_sites_inherit_the_profiler(self):
        net = DiTyCONetwork()
        prof = VMProfiler(stride=4)
        prof.install_network(net)
        net.add_node("late")          # node added after install
        net.launch("late", "main", "print![1 + 2]")
        net.run(1.0)
        assert net.world.nodes["late"].sites
        site = next(iter(net.world.nodes["late"].sites.values()))
        assert site.vm.profiler is prof


class TestValidation:
    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            VMProfiler(stride=0)
