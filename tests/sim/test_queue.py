"""Tests for the event queue and event objects."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.events import Event, EventPriority
from repro.sim.queue import EventQueue


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(time=-1.0)

    def test_fire_without_handler_is_noop(self):
        Event(time=0.0).fire()

    def test_fire_invokes_handler_with_event(self):
        seen = []
        ev = Event(time=1.0, handler=seen.append, payload="x")
        ev.fire()
        assert seen == [ev]
        assert seen[0].payload == "x"


class TestEventQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        for t in [5.0, 1.0, 3.0]:
            q.push(Event(time=t))
        assert [q.pop_due(None).time for _ in range(3)] == [1.0, 3.0, 5.0]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        q.push(Event(time=1.0, priority=EventPriority.BATCH))
        q.push(Event(time=1.0, priority=EventPriority.COMPLETION))
        q.push(Event(time=1.0, priority=EventPriority.ARRIVAL))
        got = [q.pop_due(None).priority for _ in range(3)]
        assert got == [
            EventPriority.COMPLETION,
            EventPriority.ARRIVAL,
            EventPriority.BATCH,
        ]

    def test_insertion_order_breaks_full_ties(self):
        q = EventQueue()
        first = q.push(Event(time=1.0, payload="first"))
        second = q.push(Event(time=1.0, payload="second"))
        assert q.pop_due(None) is first
        assert q.pop_due(None) is second

    def test_pop_due_empty_returns_none(self):
        assert EventQueue().pop_due(None) is None

    def test_peek_empty(self):
        assert EventQueue().peek() is None

    def test_bool_reflects_live_events(self):
        q = EventQueue()
        assert not q
        q.push(Event(time=1.0))
        assert q
        q.pop_due(None)
        assert not q

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_pop_order_is_sorted(self, times):
        """Property: popping everything yields times in sorted order."""
        q = EventQueue()
        for t in times:
            q.push(Event(time=t))
        popped = [q.pop_due(None).time for _ in range(len(times))]
        assert popped == sorted(times)
