"""Exposition-format conformance for the metrics renderer.

The merged cluster exposition is diffed byte-for-byte across scrapes,
so every formatting corner -- label escaping, ``+Inf`` buckets,
non-finite and negative-zero values, family ordering -- is pinned
here, plus the snapshot/merge path the cluster plane rides on.
"""

import math

from repro.obs.metrics import (DEFAULT_BUCKETS, MetricsRegistry,
                               merge_snapshots)


class TestLabelEscaping:
    def test_backslash_quote_and_newline_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "h", ("path",)).labels('a\\b"c\nd').inc()
        line = [l for l in reg.render().splitlines()
                if l.startswith("c_total{")][0]
        assert line == 'c_total{path="a\\\\b\\"c\\nd"} 1'

    def test_escaping_round_trip_is_unambiguous(self):
        reg = MetricsRegistry()
        handle = reg.counter("c_total", "h", ("v",))
        handle.labels("a\\nb").inc()       # literal backslash-n
        handle.labels("a\nb").inc(2)       # real newline
        lines = [l for l in reg.render().splitlines()
                 if l.startswith("c_total{")]
        assert 'c_total{v="a\\\\nb"} 1' in lines
        assert 'c_total{v="a\\nb"} 2' in lines


class TestValueFormatting:
    def _gauge_line(self, value):
        reg = MetricsRegistry()
        reg.gauge("g", "h").set(value)
        return [l for l in reg.render().splitlines()
                if l.startswith("g ")][0]

    def test_nan(self):
        assert self._gauge_line(math.nan) == "g NaN"

    def test_infinities(self):
        assert self._gauge_line(math.inf) == "g +Inf"
        assert self._gauge_line(-math.inf) == "g -Inf"

    def test_negative_zero_keeps_its_sign(self):
        assert self._gauge_line(-0.0) == "g -0"
        assert self._gauge_line(0.0) == "g 0"

    def test_integral_floats_render_without_fraction(self):
        assert self._gauge_line(42.0) == "g 42"
        assert self._gauge_line(-7.0) == "g -7"

    def test_non_integral_floats_keep_full_precision(self):
        assert self._gauge_line(0.1) == "g 0.1"
        assert self._gauge_line(1e-6) == "g 1e-06"


class TestHistogramRendering:
    def test_plus_inf_bucket_is_rendered_last_and_counts_everything(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "h", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        lines = [l for l in reg.render().splitlines()
                 if l.startswith("lat_bucket")]
        assert lines == ['lat_bucket{le="1"} 1',
                         'lat_bucket{le="2"} 2',
                         'lat_bucket{le="+Inf"} 3']

    def test_sum_and_count_follow_the_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "h", buckets=(1.0,))
        h.observe(0.25)
        text = reg.render()
        assert "lat_sum 0.25" in text
        assert "lat_count 1" in text


class TestDeterministicOrdering:
    def test_families_render_sorted_regardless_of_registration_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("z_total", "h").inc()
        a.gauge("a_gauge", "h").set(1)
        b.gauge("a_gauge", "h").set(1)
        b.counter("z_total", "h").inc()
        assert a.render() == b.render()
        text = a.render()
        assert text.index("a_gauge") < text.index("z_total")

    def test_series_render_sorted_by_label_values(self):
        reg = MetricsRegistry()
        handle = reg.counter("c_total", "h", ("k",))
        for k in ("zz", "aa", "mm"):
            handle.labels(k).inc()
        lines = [l for l in reg.render().splitlines()
                 if l.startswith("c_total{")]
        assert lines == ['c_total{k="aa"} 1', 'c_total{k="mm"} 1',
                         'c_total{k="zz"} 1']


class TestSnapshotAndMerge:
    def _snap(self, node_value=3.0):
        reg = MetricsRegistry()
        reg.counter("ops_total", "h", ("op",)).labels("put").inc(node_value)
        reg.histogram("lat", "h", buckets=(1.0, 2.0)).observe(0.5)
        reg.gauge("repro_vm_runqueue_depth", "h",
                  ("node", "site")).labels("n1", "s").set(7)
        return reg.snapshot()

    def test_snapshot_round_trips_through_wire(self):
        from repro.runtime import wire

        snap = self._snap()
        assert wire.decode(wire.encode(snap)) == snap

    def test_empty_histogram_min_max_become_none(self):
        reg = MetricsRegistry()
        reg.histogram("lat", "h").labels()  # no labels() on handle
        reg.histogram("lat2", "h", ("k",)).labels("a")  # series, no samples
        snap = reg.snapshot()
        state = dict(snap["lat2"]["series"])[("a",)]
        assert state["min"] is None and state["max"] is None

    def test_merge_prepends_node_label_and_keeps_nodes_apart(self):
        merged = merge_snapshots({"n1": self._snap(3.0),
                                  "n2": self._snap(5.0)})
        text = merged.render()
        assert 'ops_total{node="n1",op="put"} 3' in text
        assert 'ops_total{node="n2",op="put"} 5' in text

    def test_merge_leaves_already_node_labelled_families_alone(self):
        merged = merge_snapshots({"n1": self._snap()})
        text = merged.render()
        # world_metrics-style gauges already carry node -- no double label.
        assert 'repro_vm_runqueue_depth{node="n1",site="s"} 7' in text

    def test_merge_accumulates_histograms(self):
        merged = merge_snapshots({"n1": self._snap(), "n2": self._snap()})
        fam = merged._families["lat"]
        inst = fam.series[("n1",)]
        assert inst.count == 1 and inst.min == 0.5
        assert DEFAULT_BUCKETS != fam.buckets  # custom buckets survived

    def test_merge_is_deterministic(self):
        snaps = {"n2": self._snap(5.0), "n1": self._snap(3.0)}
        assert merge_snapshots(snaps).render() \
            == merge_snapshots(dict(sorted(snaps.items()))).render()
