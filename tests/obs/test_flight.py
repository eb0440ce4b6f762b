"""Flight recorder rings and the chaos-harness auto-dump."""

from repro.obs import FlightRecorder, flight
from repro.obs.events import ObsEvent
from repro.testkit import ChaosConfig, CrashEvent, run_scenario

from tests.testkit.scenarios import applet


def _ev(seq, kind, node="n1", time=0.0):
    return ObsEvent(seq=seq, time=time, kind=kind, node=node)


class TestFlightRecorder:
    def test_rings_are_per_node(self):
        rec = FlightRecorder()
        rec.on_event(_ev(1, "send", node="n1"))
        rec.on_event(_ev(2, "send", node="n2"))
        rec.on_event(_ev(3, "crash", node=""))  # world-level event
        assert [e.seq for e in rec.recent("n1")] == [1]
        assert [e.seq for e in rec.recent("n2")] == [2]
        assert [e.seq for e in rec.recent()] == [3]

    def test_ring_bounds_and_counts_evictions(self, monkeypatch):
        monkeypatch.setattr(flight, "DEFAULT_CAPACITY", 2)
        rec = FlightRecorder()
        for i in range(5):
            rec.on_event(_ev(i + 1, "send"))
        assert [e.seq for e in rec.recent("n1")] == [4, 5]
        dump = rec.dump("why")
        assert "3 older event(s) evicted" in dump

    def test_dump_renders_reason_repro_and_rings(self):
        rec = FlightRecorder()
        rec.on_event(_ev(1, "send", node="n2"))
        rec.on_event(_ev(2, "crash", node="n1"))
        dump = rec.dump("node crash: n1", repro="python -m repro chaos ...")
        assert dump.startswith("=== flight recorder dump: node crash: n1 ===")
        assert "repro: python -m repro chaos ..." in dump
        # Rings render sorted by node, last-events headers included.
        assert dump.index("--- node n1:") < dump.index("--- node n2:")
        assert rec.dumps == [("node crash: n1", dump)]


class TestConfigurableCapacity:
    def test_default(self):
        assert FlightRecorder().capacity == flight.DEFAULT_CAPACITY == 256

    def test_small_ring_evicts_and_counts(self, monkeypatch):
        monkeypatch.setattr(flight, "DEFAULT_CAPACITY", 2)
        rec = FlightRecorder()
        for i in range(7):
            rec.on_event(_ev(i + 1, "send"))
        assert [e.seq for e in rec.recent("n1")] == [6, 7]
        assert "5 older event(s) evicted" in rec.dump("cap test")

    def test_chaos_run_honours_the_capacity(self, monkeypatch):
        monkeypatch.setattr(flight, "DEFAULT_CAPACITY", 1)
        config = ChaosConfig(
            crashes=(CrashEvent("n2", at=3.2e-5, restart_at=1e-3),))
        run = run_scenario(applet, seed=7, config=config)
        # One-slot rings: every node section reports exactly one event.
        assert "last 1 event(s)" in run.flight_dump
        assert "older event(s) evicted" in run.flight_dump


class TestChaosAutoDump:
    CRASH = ChaosConfig(crashes=(CrashEvent("n2", at=3.2e-5, restart_at=1e-3),))

    def test_clean_run_has_no_dump(self):
        run = run_scenario(applet, seed=0)
        assert run.flight_dump == ""
        assert run.trace_json == ""

    def test_crash_triggers_dump_with_repro_line(self):
        run = run_scenario(applet, seed=7, config=self.CRASH)
        assert run.violations == []
        assert "flight recorder dump: node crash: n2" in run.flight_dump
        assert "repro: PYTHONPATH=src python -m repro chaos --seed 7" \
            in run.flight_dump
        # The ring caught the injected fault events themselves.
        assert "crash" in run.flight_dump
        assert "restart" in run.flight_dump

    def test_tracing_fills_trace_json(self):
        run = run_scenario(applet, seed=0, tracing=True)
        assert run.trace_json.startswith('{"displayTimeUnit"')
        assert '"name":"fetch-req"' in run.trace_json

    def test_metrics_registry_rides_along(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        run_scenario(applet, seed=0, metrics=reg)
        text = reg.render()
        assert 'repro_events_total{cat="transport",kind="deliver"}' in text
        # End-of-run world snapshot: per-site gauges present.
        assert 'repro_vm_instructions_total{node="n1",site="server"}' in text
