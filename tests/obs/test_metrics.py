"""Metrics registry semantics: instruments, cardinality cap, exposition."""

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.events import ObsEvent
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsError


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        c = Counter()
        with pytest.raises(MetricsError):
            c.inc(-1)
        assert c.value == 0.0

    def test_gauge_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13

    def test_histogram_cumulative_buckets(self):
        h = Histogram(buckets=(10.0, 100.0))
        for v in (5, 50, 500):
            h.observe(v)
        assert h.bucket_values() == [
            (10.0, 1), (100.0, 2), (float("inf"), 3)]
        assert h.sum == 555
        assert h.count == 3

    def test_histogram_sorts_buckets(self):
        h = Histogram(buckets=(100.0, 10.0))
        assert h.buckets == (10.0, 100.0)


class TestRegistry:
    def test_factories_are_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "Help.", ("k",))
        b = reg.counter("x_total", "Help.", ("k",))
        a.labels("v").inc()
        b.labels("v").inc()
        assert 'x_total{k="v"} 2' in reg.render()

    def test_reregistration_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(MetricsError):
            reg.gauge("x_total")

    def test_reregistration_label_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels=("a",))
        with pytest.raises(MetricsError):
            reg.counter("x_total", labels=("a", "b"))

    def test_wrong_label_count_raises(self):
        reg = MetricsRegistry()
        handle = reg.counter("x_total", labels=("a", "b"))
        with pytest.raises(MetricsError):
            handle.labels("only-one")

    def test_labelled_metric_rejects_bare_use(self):
        reg = MetricsRegistry()
        handle = reg.counter("x_total", labels=("a",))
        with pytest.raises(MetricsError):
            handle.inc()

    def test_cardinality_cap_drops_excess_series(self):
        reg = MetricsRegistry(max_series=2)
        handle = reg.counter("x_total", labels=("k",))
        handle.labels("a").inc()
        handle.labels("b").inc()
        # Beyond the cap: silently a no-op instrument, but counted.
        handle.labels("c").inc()
        handle.labels("d").inc()
        # Existing series still work at the cap.
        handle.labels("a").inc()
        assert reg.dropped_series() == 2
        text = reg.render()
        assert 'x_total{k="a"} 2' in text
        assert 'x_total{k="b"} 1' in text
        assert 'k="c"' not in text
        assert "repro_metrics_dropped_series_total 2" in text

    def test_render_sorted_and_deterministic(self):
        def build():
            reg = MetricsRegistry()
            g = reg.gauge("z_depth", "Z.", ("n",))
            g.labels("b").set(2)
            g.labels("a").set(1)
            reg.counter("a_total", "A.").inc()
            return reg.render()

        text = build()
        assert text == build()
        # Families sorted by name, series sorted by label values.
        assert text.index("a_total") < text.index("z_depth")
        assert text.index('n="a"') < text.index('n="b"')
        assert text.endswith("\n")

    def test_render_histogram_exposition(self):
        reg = MetricsRegistry()
        reg.histogram("h_bytes", "H.", buckets=(10.0,)).observe(4)
        text = reg.render()
        assert 'h_bytes_bucket{le="10"} 1' in text
        assert 'h_bytes_bucket{le="+Inf"} 1' in text
        assert "h_bytes_sum 4" in text
        assert "h_bytes_count 1" in text

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.gauge("g", labels=("k",)).labels('say "hi"\n').set(1)
        assert r'g{k="say \"hi\"\n"} 1' in reg.render()


class TestEventSink:
    def test_on_event_counts_by_category_and_kind(self):
        reg = MetricsRegistry()
        reg.on_event(ObsEvent(seq=1, time=0.0, kind="heap"))
        reg.on_event(ObsEvent(seq=2, time=0.0, kind="heap"))
        reg.on_event(ObsEvent(seq=3, time=0.0, kind="shipm"))
        text = reg.render()
        assert 'repro_events_total{cat="vm",kind="heap"} 2' in text
        assert 'repro_events_total{cat="net",kind="shipm"} 1' in text

    def test_on_event_sizes_transport_frames(self):
        reg = MetricsRegistry()
        small = DEFAULT_BUCKETS[0]
        reg.on_event(ObsEvent(seq=1, time=0.0, kind="send", size=int(small)))
        reg.on_event(ObsEvent(seq=2, time=0.0, kind="heap", size=999999))
        text = reg.render()
        rendered = int(small)
        assert (f'repro_transport_frame_bytes_bucket{{kind="send",'
                f'le="{rendered}"}} 1') in text
        # Non-transport kinds do not feed the histogram.
        assert 'kind="heap",le=' not in text


class TestNodeCaches:
    def test_world_metrics_show_launch_cache_and_code_store(self, monkeypatch):
        # What a node remembers between sites is per-node state: the
        # hit ratios PERF.md's launch-path and code-movement sections
        # rest on must be readable from `--metrics -`.
        from repro.obs import world_metrics
        from repro.runtime import DiTyCONetwork
        from repro.workloads import WorkloadSpec, run_workload, runner

        nets = []

        class Net(DiTyCONetwork):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                nets.append(self)

        monkeypatch.setattr(runner, "DiTyCONetwork", Net)
        registry = MetricsRegistry()
        run_workload(WorkloadSpec("mapreduce", seed=7, ops=40),
                     registry=registry)
        (net,) = nets
        snapshot = world_metrics(net.world, registry).snapshot()

        def series(name):
            family = snapshot[name]
            assert family["labels"] == ["node"]
            return {ip: value for (ip,), value in family["series"]}

        hits = series("repro_launch_cache_hits_total")
        misses = series("repro_launch_cache_misses_total")
        slices = series("repro_code_store_slices")
        assert set(hits) == set(misses) == set(slices) == set(net.world.nodes)
        for ip, node in net.world.nodes.items():
            assert hits[ip] + misses[ip] == node.tycoi.submissions > 0
        assert sum(hits.values()) > 30
        # The master's node kept the slice it served, each worker node
        # the one it downloaded: MapTask, once per node.
        assert slices == {ip: 1 for ip in net.world.nodes}
        for name in ("repro_launch_cache_untemplatable_total",
                     "repro_launch_cache_evictions_total",
                     "repro_code_store_evictions_total"):
            assert set(series(name).values()) == {0}
        text = registry.render()
        assert 'repro_launch_cache_hits_total{node="' in text
        assert 'repro_code_store_slices{node="' in text
