"""The SLO watchdog: spec parsing, breach detection, side effects."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.bus import EventBus
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SLOError, SLORule, SLOSpec, SLOWatchdog
from repro.workloads import run_workload
from repro.workloads.spec import WorkloadSpec


def _registry(latencies_us=(100.0,), workload="wl", op="put"):
    reg = MetricsRegistry()
    hist = reg.histogram("repro_workload_latency_seconds", "h",
                         ("workload", "op"))
    for us in latencies_us:
        hist.labels(workload, op).observe(us * 1e-6)
    return reg


class TestSpecParsing:
    def test_round_trip(self):
        spec = SLOSpec.from_json(
            '{"rules": [{"op": "put", "percentile": 90.0,'
            ' "max_latency_us": 5.0},'
            ' {"min_throughput_ops_per_s": 10.0}]}')
        assert len(spec.rules) == 2
        assert SLOSpec.from_json(spec.to_json()) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(SLOError, match="unknown key"):
            SLOSpec.from_dict({"rules": [{"max_latency_ms": 1.0}]})

    def test_rule_needs_a_threshold(self):
        with pytest.raises(SLOError, match="needs"):
            SLORule(op="put")

    def test_percentile_bounds(self):
        with pytest.raises(SLOError, match="percentile"):
            SLORule(percentile=101.0, max_latency_us=1.0)

    def test_top_level_shape(self):
        with pytest.raises(SLOError):
            SLOSpec.from_dict({"rule": []})
        for rules in (5, None, {"op": "*"}):
            with pytest.raises(SLOError, match="rules"):
                SLOSpec.from_dict({"rules": rules})
        with pytest.raises(SLOError, match="bad SLO JSON"):
            SLOSpec.from_json("{nope")


class TestLatencyRules:
    def test_ceiling_held(self):
        spec = SLOSpec((SLORule(op="put", max_latency_us=1000.0),))
        dog = SLOWatchdog(spec, _registry((100.0,)), "wl")
        assert dog.check() == []
        assert dog.ok()

    def test_ceiling_breached_once(self):
        spec = SLOSpec((SLORule(op="put", max_latency_us=50.0),))
        dog = SLOWatchdog(spec, _registry((100.0,)), "wl")
        fresh = dog.check()
        assert len(fresh) == 1
        assert "breached" in fresh[0].message
        # A tripped rule stays tripped: no duplicate breach entries.
        assert dog.check() == []
        assert len(dog.breaches) == 1

    def test_star_op_pools_all_series(self):
        reg = _registry((10.0,), op="put")
        reg.histogram("repro_workload_latency_seconds", "h",
                      ("workload", "op")).labels("wl", "get").observe(900e-6)
        spec = SLOSpec((SLORule(op="*", percentile=99.0,
                                max_latency_us=500.0),))
        dog = SLOWatchdog(spec, reg, "wl")
        assert len(dog.check()) == 1      # the pooled p99 sees the 900us op

    def test_missing_series_is_not_a_breach(self):
        spec = SLOSpec((SLORule(op="absent", max_latency_us=1.0),))
        dog = SLOWatchdog(spec, _registry(), "wl")
        assert dog.check() == []


class TestThroughputRules:
    SPEC = SLOSpec((SLORule(min_throughput_ops_per_s=100.0),))

    def test_only_judged_on_the_final_check(self):
        dog = SLOWatchdog(self.SPEC, _registry(), "wl")
        assert dog.check(completed=1, elapsed_s=1.0) == []
        assert len(dog.check(completed=1, elapsed_s=1.0, final=True)) == 1

    def test_floor_held(self):
        dog = SLOWatchdog(self.SPEC, _registry(), "wl")
        assert dog.check(completed=1000, elapsed_s=1.0, final=True) == []


class TestSideEffects:
    def _breach(self, bus=None, recorder=None):
        spec = SLOSpec((SLORule(op="put", max_latency_us=1.0),))
        reg = _registry((100.0,))
        dog = SLOWatchdog(spec, reg, "wl", bus=bus, recorder=recorder,
                          repro="repro-line")
        dog.check()
        return dog, reg

    def test_breach_counter_bumped(self):
        dog, reg = self._breach()
        assert 'repro_slo_breaches_total{workload="wl",op="put"} 1' \
            in reg.render()

    def test_breach_event_emitted_on_active_bus(self):
        bus = EventBus()
        seen = []
        bus.subscribe(type("Sink", (), {"on_event":
                                        lambda self, ev: seen.append(ev)})())
        dog, _ = self._breach(bus=bus)
        assert [ev.kind for ev in seen] == ["slo_breach"]
        assert "breached" in seen[0].note

    def test_first_breach_captures_flight_dump_with_repro(self):
        rec = FlightRecorder()
        bus = EventBus()
        bus.subscribe(rec)
        dog, _ = self._breach(bus=bus, recorder=rec)
        assert "slo breach:" in dog.flight_dump
        assert "repro: repro-line" in dog.flight_dump


class TestRunnerIntegration:
    SPEC = WorkloadSpec("pubsub", ops=12, seed=5)

    def test_impossible_ceiling_breaches_and_dumps(self):
        slo = SLOSpec((SLORule(op="*", percentile=50.0,
                               max_latency_us=1e-3),))
        report = run_workload(self.SPEC, slo=slo)
        assert report.violations == []
        assert report.slo_breaches
        assert "flight recorder dump: slo breach" in report.flight_dump
        assert "repro workload pubsub --seed 5" in report.flight_dump
        assert report.summary()["slo_breaches"] == report.slo_breaches

    def test_generous_objectives_hold(self):
        slo = SLOSpec((SLORule(op="*", max_latency_us=1e9),
                       SLORule(min_throughput_ops_per_s=1e-3)))
        report = run_workload(self.SPEC, slo=slo)
        assert report.slo_breaches == []
        assert report.flight_dump == ""

    def test_no_spec_means_no_breach_list(self):
        assert run_workload(self.SPEC).slo_breaches is None

    def test_slo_run_is_deterministic(self):
        slo = SLOSpec((SLORule(op="*", percentile=50.0,
                               max_latency_us=1e-3),))
        a = run_workload(self.SPEC, slo=slo)
        b = run_workload(self.SPEC, slo=slo)
        assert a.slo_breaches == b.slo_breaches
        assert a.summary() == b.summary()
