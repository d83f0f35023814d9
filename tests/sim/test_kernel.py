"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import EventOrderError, SimulationError
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, None)
        sim.run()
        with pytest.raises(EventOrderError):
            sim.schedule(5.0, None)


class TestExecution:
    def test_events_fire_in_order_and_advance_clock(self):
        sim = Simulator()
        log = []
        for t in [3.0, 1.0, 2.0]:
            sim.schedule(t, lambda time, payload: log.append((time, sim.now)))
        end = sim.run()
        assert log == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        assert end == 3.0
        assert sim.processed == 3

    def test_handler_receives_time_and_payload(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda time, payload: seen.append((time, payload)), payload="x")
        sim.schedule(1.0, None)  # a marker: moves the clock, calls nothing
        sim.run()
        assert seen == [(2.0, "x")]
        assert sim.processed == 2

    def test_handlers_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(time, payload):
            fired.append(time)
            if time < 3.0:
                sim.schedule(time + 1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_stops_but_keeps_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda time, payload: fired.append(1))
        sim.schedule(10.0, lambda time, payload: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending == 1
        sim.run()
        assert fired == [1, 10]

    def test_run_until_includes_boundary_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda time, payload: fired.append(time))
        sim.run(until=5.0)
        assert fired == [5.0]

    def test_run_until_advances_idle_clock(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_event_budget_guards_runaway(self):
        sim = Simulator(max_events=10)

        def forever(time, payload):
            sim.schedule(sim.now + 1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="budget"):
            sim.run()

    def test_exhaustion_diagnostic_names_the_simulator_state(self):
        sim = Simulator(max_events=5)

        def forever(time, payload):
            sim.schedule(sim.now + 1.0, forever)
            sim.schedule(sim.now + 2.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError) as exc:
            sim.run()
        message = str(exc.value)
        assert "event budget of 5" in message
        assert "clock at" in message
        assert "pending" in message
        # The head event is named with its time and priority.
        assert "next event at" in message
        assert "GENERIC" in message

    def test_priority_ordering_at_same_instant(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda time, payload: order.append("batch"), priority=EventPriority.BATCH)
        sim.schedule(1.0, lambda time, payload: order.append("completion"), priority=EventPriority.COMPLETION)
        sim.schedule(1.0, lambda time, payload: order.append("arrival"), priority=EventPriority.ARRIVAL)
        sim.run()
        assert order == ["completion", "arrival", "batch"]
