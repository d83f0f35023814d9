"""Tests for the simulation tracer."""

from repro.sim.trace import Tracer


class TestTracer:
    def test_emit_and_filter(self):
        tracer = Tracer()
        tracer.emit(1.0, "arrival", request=1)
        tracer.emit(2.0, "assign", request=1, machine=0)
        tracer.emit(3.0, "arrival", request=2)
        assert len(tracer) == 3
        arrivals = tracer.entries("arrival")
        assert [e.detail["request"] for e in arrivals] == [1, 2]

    def test_disabled_records_nothing(self):
        tracer = Tracer.disabled()
        tracer.emit(1.0, "arrival")
        assert len(tracer) == 0

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(1.0, "x")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_entries_returns_copy(self):
        tracer = Tracer()
        tracer.emit(1.0, "x")
        entries = tracer.entries()
        entries.clear()
        assert len(tracer) == 1
