"""Tests for the trace/metric exporters (JSONL, Chrome trace, report)."""

import json

from repro.obs.export import (
    chrome_trace_events,
    render_run_report,
    trace_to_jsonl_lines,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.sim.trace import TraceEntry, Tracer

#: Keys the trace_event format requires on every event.
CHROME_REQUIRED_KEYS = {"name", "ph", "ts", "pid", "tid"}


def small_trace() -> Tracer:
    tracer = Tracer()
    tracer.emit(0.0, "arrival", request=0)
    tracer.emit(0.0, "assign", request=0, machine=1, completion=5.0)
    tracer.emit(2.5, "arrival", request=1)
    tracer.emit(2.5, "reject", request=1)
    return tracer


class TestJsonl:
    def test_lines_round_trip(self):
        lines = list(trace_to_jsonl_lines(small_trace()))
        assert len(lines) == 4
        parsed = [json.loads(line) for line in lines]
        assert parsed[0] == {"t": 0.0, "kind": "arrival", "request": 0}
        assert parsed[1]["completion"] == 5.0

    def test_field_order_is_stable(self):
        entry = TraceEntry(time=1.0, kind="assign", detail={"b": 2, "a": 1})
        (line,) = trace_to_jsonl_lines([entry])
        assert line == '{"t":1.0,"kind":"assign","b":2,"a":1}'

    def test_write_jsonl(self, tmp_path):
        path = write_trace_jsonl(small_trace(), tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line) for line in lines)


class TestChromeTrace:
    def test_every_event_has_required_keys(self):
        for event in chrome_trace_events(small_trace()):
            assert CHROME_REQUIRED_KEYS <= set(event)

    def test_assign_becomes_duration_event_on_machine_track(self):
        events = chrome_trace_events(small_trace())
        assign = next(e for e in events if e["ph"] == "X")
        assert assign["tid"] == 2  # machine 1 → track 2 (track 0 is global)
        assert assign["dur"] == 5.0 * 1e6
        assert assign["args"]["request"] == 0

    def test_other_kinds_become_instants(self):
        events = chrome_trace_events(small_trace())
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in instants} == {"arrival", "reject"}

    def test_write_chrome_trace_document(self, tmp_path):
        path = write_chrome_trace(
            small_trace(), tmp_path / "t.json", metadata={"name": "x"}
        )
        document = json.loads(path.read_text())
        assert "traceEvents" in document
        assert document["otherData"] == {"name": "x"}
        assert len(document["traceEvents"]) == 4


class TestRunReport:
    def test_renders_metrics_and_results(self):
        manifest = {
            "name": "demo",
            "seed": 7,
            "config_hash": "ab" * 32,
            "wall_time_s": 0.125,
            "trace": {"entries": 4, "dropped": 0},
            "metrics": {
                "sched.mappings": {"type": "counter", "value": 12},
                "sched.map_latency_s.mct": {
                    "type": "histogram", "count": 12, "mean": 1e-4,
                    "p50": 9e-5, "p95": 2e-4, "p99": 3e-4,
                    "min": 5e-5, "max": 4e-4,
                },
            },
            "results": {"makespan": 100.5, "completed": 12},
        }
        report = render_run_report(manifest)
        assert "run: demo" in report
        assert "seed: 7" in report
        assert "sched.mappings" in report
        assert "histogram" in report
        assert "makespan: 100.5" in report

    def test_minimal_manifest_renders(self):
        report = render_run_report({"name": "bare", "seed": None})
        assert "run: bare" in report
