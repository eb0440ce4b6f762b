"""Chrome-trace export and schema validation."""

import json

from repro.obs import (TraceCollector, chrome_trace, chrome_trace_json,
                       load_trace_schema, validate_trace)
from repro.obs.events import ObsEvent


def _ev(seq, kind, node="n1", src="s1", time=0.0, span=0, **kw):
    return ObsEvent(seq=seq, time=time, kind=kind, node=node, src=src,
                    span=span, **kw)


class TestCollector:
    def test_remembers_everything_in_order(self):
        c = TraceCollector()
        for i in range(3):
            c.on_event(_ev(i + 1, "send"))
        assert [e.seq for e in c.events] == [1, 2, 3]
        assert len(c) == 3


class TestChromeTrace:
    def test_instant_event_shape(self):
        doc = chrome_trace([_ev(1, "heap", time=2e-6, size=3, note="m")])
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        ev = instants[0]
        assert ev["name"] == "heap"
        assert ev["cat"] == "vm"
        assert ev["s"] == "t"
        assert ev["ts"] == 2.0  # seconds -> microseconds
        assert ev["args"]["seq"] == 1
        assert ev["args"]["note"] == "m"
        assert doc["displayTimeUnit"] == "ms"

    def test_process_and_thread_metadata_first_appearance_order(self):
        doc = chrome_trace([
            _ev(1, "send", node="n2", src="client"),
            _ev(2, "deliver", node="n1", src="server"),
            _ev(3, "heap", node="n2", src="client"),
        ])
        meta = [(e["name"], e["args"]["name"])
                for e in doc["traceEvents"] if e["ph"] == "M"]
        # n2 appears first so it gets pid 1; no duplicate rows for the
        # third event reusing n2/client.
        assert meta == [("process_name", "n2"), ("thread_name", "client"),
                        ("process_name", "n1"), ("thread_name", "server")]
        pids = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert pids == {"n2": 1, "n1": 2}

    def test_world_events_land_on_world_process(self):
        doc = chrome_trace([_ev(1, "crash", node="", src="n1")])
        names = [e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert names == ["world"]

    def test_flow_events_stitch_spans(self):
        doc = chrome_trace([
            _ev(1, "send", span=4),
            _ev(2, "deliver", span=4),
            _ev(3, "heap"),  # span 0: no flow event
        ])
        flows = [e for e in doc["traceEvents"] if e.get("cat") == "flow"]
        assert [(f["ph"], f["id"]) for f in flows] == [("s", 4), ("t", 4)]
        assert all(f["name"] == "span-4" for f in flows)

    def test_json_is_deterministic_and_compact(self):
        events = [_ev(1, "send", span=1), _ev(2, "deliver", span=1)]
        a = chrome_trace_json(events)
        b = chrome_trace_json(list(events))
        assert a == b
        assert a.endswith("\n")
        assert ": " not in a  # fixed separators, no pretty-printing
        json.loads(a)  # round-trips


class TestSchemaValidation:
    def test_real_export_validates(self):
        doc = chrome_trace([_ev(1, "send", span=1), _ev(2, "heap")])
        assert validate_trace(doc) == []

    def test_schema_loads_from_docs(self):
        schema = load_trace_schema()
        assert schema["type"] == "object"
        assert "traceEvents" in schema["required"]

    def test_missing_required_key_reported(self):
        errors = validate_trace({})
        assert any("traceEvents" in e for e in errors)

    def test_wrong_type_reported(self):
        errors = validate_trace({"traceEvents": "nope"})
        assert any("expected array" in e for e in errors)

    def test_bad_phase_enum_reported(self):
        doc = chrome_trace([_ev(1, "send")])
        doc["traceEvents"][-1]["ph"] = "Z"
        assert any("'Z'" in e for e in validate_trace(doc))

    def test_unknown_kind_pinned_by_taxonomy(self):
        doc = chrome_trace([_ev(1, "not-a-kind")])
        errors = validate_trace(doc)
        assert any("unknown event kind 'not-a-kind'" in e for e in errors)
