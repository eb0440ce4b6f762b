"""Cross-process trace stitching: codecs and determinism.

Two contracts pinned here:

* the event codec a daemon's ``trace`` control command uses round-trips
  exactly: ``event_to_dict``, the control record codec
  (``wire.encode`` / ``wire.decode``), ``event_from_dict``;
* stitching is deterministic -- the same streams always merge to the
  same bytes, and partitioning a single simulated world's events by
  node and re-stitching (``relabel=False``) reproduces the original
  stream byte-for-byte, pinned against the committed golden trace.
"""

import json
from pathlib import Path

from repro.obs import (TraceCollector, chrome_trace_json, event_from_dict,
                       event_to_dict, stitch_events, stitch_trace_json,
                       validate_trace)
from repro.obs.events import ObsEvent
from repro.runtime import DiTyCONetwork, wire
from repro.testkit import ChaosConfig, ChaosWorld, CrashEvent

from tests.testkit.scenarios import applet

GOLDEN = Path(__file__).parent / "golden" / "applet-crash-mid-fetch.trace.json"

#: The frozen corpus schedule pinned by tests/obs/test_golden_trace.py.
SEED = 7
CONFIG = ChaosConfig(crashes=(CrashEvent("n2", at=3.2e-5, restart_at=1e-3),))


def _traced_events():
    """The golden schedule's full event stream, collected directly."""
    world = ChaosWorld(seed=SEED, config=CONFIG)
    world.obs.tracing = True
    collector = TraceCollector()
    world.obs.subscribe(collector)
    net = DiTyCONetwork(world=world)
    applet(net)
    net.run(5.0)
    return list(collector.events)


def _ev(seq, time, kind="send", node="n1", span=0):
    return ObsEvent(seq=seq, time=time, kind=kind, node=node,
                    src="n1", dst="n2", size=4, span=span, note="x")


def _round_trip(events):
    """Exactly what `trace` replies with and ClusterScraper rebuilds."""
    record = wire.encode([event_to_dict(ev) for ev in events])
    return [event_from_dict(d) for d in wire.decode(record)]


class TestControlCodec:
    def test_round_trip_preserves_every_field(self):
        events = [_ev(1, 0.0), _ev(2, 1e-6, kind="deliver", node="", span=3)]
        assert _round_trip(events) == events

    def test_real_run_round_trips(self):
        events = _traced_events()
        assert {ev.node for ev in events} > {""}
        assert any(ev.span for ev in events)
        assert _round_trip(events) == events


class TestStitchDeterminism:
    def test_stitch_twice_same_bytes(self):
        streams = {"n1": [_ev(1, 0.0)], "n2": [_ev(1, 0.0, node="n2")]}
        assert stitch_trace_json(streams) == stitch_trace_json(streams)

    def test_node_label_breaks_cross_stream_ties(self):
        # Same (time, seq) from two daemons: order must be by node.
        streams = {"b": [_ev(5, 1.0, node="b")], "a": [_ev(5, 1.0, node="a")]}
        merged = stitch_events(streams)
        assert [e.node for e in merged] == ["a", "b"]

    def test_relabel_stamps_world_events_with_the_stream_label(self):
        streams = {"n9": [_ev(1, 0.0, kind="crash", node="")]}
        assert stitch_events(streams, relabel=True)[0].node == "n9"
        assert stitch_events(streams, relabel=False)[0].node == ""


class TestGoldenRestitch:
    def test_partition_by_node_restitches_to_the_golden_bytes(self):
        events = _traced_events()
        assert chrome_trace_json(events) == GOLDEN.read_text()
        streams: dict[str, list[ObsEvent]] = {}
        for ev in events:
            streams.setdefault(ev.node or "", []).append(ev)
        assert len(streams) > 1
        assert stitch_trace_json(streams, relabel=False) \
            == GOLDEN.read_text()

    def test_restitched_trace_validates(self):
        events = _traced_events()
        streams = {"n1": [e for e in events if e.node == "n1"],
                   "rest": [e for e in events if e.node != "n1"]}
        doc = json.loads(stitch_trace_json(streams, relabel=False))
        assert validate_trace(doc) == []
