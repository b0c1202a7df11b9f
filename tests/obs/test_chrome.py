"""Chrome trace export, validation, and the simulator bridge."""

import json

import pytest

from repro.obs import (
    TraceValidationError,
    chrome_trace,
    span_index,
    trace_problems,
    utilization_events,
    validate_trace_file,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer
from repro.sim.stats import UtilizationTrace


def _tracer_with_spans():
    tracer = Tracer()
    with tracer.span("outer", "t"):
        with tracer.span("inner", "t"):
            pass
    return tracer


class TestChromeTrace:
    def test_structure_and_metadata_first(self):
        trace = chrome_trace(_tracer_with_spans(), process_name="unit")
        events = trace["traceEvents"]
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["name"] == "unit"
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"]["producer"] == "repro.obs"
        assert trace["otherData"]["dropped_events"] == 0
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"outer", "inner"}

    def test_events_sorted_by_ts_within_pid(self):
        tracer = Tracer()
        # Spans close inner-first, so raw record order is ts-descending.
        with tracer.span("a", "t"):
            with tracer.span("b", "t"):
                pass
        events = [e for e in chrome_trace(tracer)["traceEvents"]
                  if e["ph"] != "M"]
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        assert trace_problems(chrome_trace(tracer)) == []

    def test_extra_events_merge(self):
        extra = [{"name": "busy", "ph": "X", "ts": 1.0, "dur": 2.0,
                  "pid": 7, "tid": 0, "args": {}}]
        trace = chrome_trace(_tracer_with_spans(), extra_events=extra)
        assert any(e.get("pid") == 7 for e in trace["traceEvents"])
        assert trace_problems(trace) == []

    def test_write_and_validate_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        written = write_chrome_trace(str(path), _tracer_with_spans())
        loaded = validate_trace_file(str(path))
        assert loaded == json.loads(json.dumps(written))

    def test_span_index(self):
        tracer = _tracer_with_spans()
        trace = chrome_trace(tracer)
        index = span_index(trace)
        assert len(index) == 2
        inner = next(e for e in trace["traceEvents"]
                     if e.get("name") == "inner")
        assert index[inner["args"]["parent_id"]]["name"] == "outer"


class TestValidation:
    def test_empty_trace_is_invalid(self):
        assert trace_problems({"traceEvents": []})
        assert trace_problems({}) == \
            ["top-level object has no traceEvents list"]

    def test_metadata_only_trace_is_invalid(self):
        meta = {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                "ts": 0, "args": {"name": "x"}}
        assert trace_problems({"traceEvents": [meta]})

    def test_array_form_accepted(self):
        events = [{"name": "a", "ph": "X", "ts": 0, "dur": 1,
                   "pid": 0, "tid": 0}]
        assert trace_problems(events) == []

    def test_backwards_ts_within_tid_flagged(self):
        events = [
            {"name": "a", "ph": "X", "ts": 10, "dur": 1, "pid": 0, "tid": 0},
            {"name": "b", "ph": "X", "ts": 5, "dur": 1, "pid": 0, "tid": 0},
        ]
        problems = trace_problems(events)
        assert any("goes backwards" in p for p in problems)

    def test_backwards_ts_on_other_tid_ok(self):
        events = [
            {"name": "a", "ph": "X", "ts": 10, "dur": 1, "pid": 0, "tid": 0},
            {"name": "b", "ph": "X", "ts": 5, "dur": 1, "pid": 0, "tid": 1},
        ]
        assert trace_problems(events) == []

    def test_bad_phase_missing_dur_negative_ts(self):
        events = [
            {"name": "a", "ph": "Z", "ts": 0},
            {"name": "b", "ph": "X", "ts": 0},
            {"name": "c", "ph": "X", "ts": -1, "dur": 1},
            {"ph": "X", "ts": 0, "dur": 1},
        ]
        problems = trace_problems(events)
        assert len(problems) >= 4

    def test_validate_file_raises_on_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(TraceValidationError):
            validate_trace_file(str(path))
        path.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(TraceValidationError):
            validate_trace_file(str(path))


class TestUtilizationBridge:
    def test_busy_intervals_become_complete_events(self):
        util = UtilizationTrace(2, name="SUs")
        util.add(0, 100)
        util.add(10, 30)
        events = utilization_events(util, pid=5, us_per_cycle=0.5)
        meta = [e for e in events if e["ph"] == "M"]
        busy = [e for e in events if e["ph"] == "X"]
        assert meta[0]["args"]["name"] == "sim:SUs"
        assert len(busy) == 2
        assert all(e["pid"] == 5 for e in events)
        first = min(busy, key=lambda e: e["ts"])
        assert first["ts"] == 0.0
        assert first["dur"] == pytest.approx(50.0)
        assert first["args"]["end_cycle"] == 100

    def test_rows_never_overlap(self):
        util = UtilizationTrace(2, name="EUs")
        # Overlapping intervals recorded out of end-cycle order.
        util.add(0, 50)
        util.add(5, 20)
        events = [e for e in utilization_events(util) if e["ph"] == "X"]
        rows = {}
        for event in events:
            rows.setdefault(event["tid"], []).append(
                (event["ts"], event["ts"] + event["dur"]))
        for spans in rows.values():
            spans.sort()
            for (s1, e1), (s2, _) in zip(spans, spans[1:]):
                assert s2 >= e1

    def test_validates_inside_a_chrome_trace(self):
        util = UtilizationTrace(1, name="SUs")
        util.add(3, 9)
        trace = chrome_trace(Tracer(),
                             extra_events=utilization_events(util, pid=2))
        assert trace_problems(trace) == []

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            utilization_events(UtilizationTrace(1), us_per_cycle=0)
