"""Tests for the event queue and its ``(time, priority, sequence, handler,
payload)`` entries."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.events import EventPriority
from repro.sim.queue import EventQueue

GENERIC = EventPriority.GENERIC


class TestEventQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        for t in [5.0, 1.0, 3.0]:
            q.push(t, None, GENERIC, None)
        assert [q.pop_due(None)[0] for _ in range(3)] == [1.0, 3.0, 5.0]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        q.push(1.0, None, EventPriority.BATCH, None)
        q.push(1.0, None, EventPriority.COMPLETION, None)
        q.push(1.0, None, EventPriority.ARRIVAL, None)
        got = [q.pop_due(None)[1] for _ in range(3)]
        assert got == [
            EventPriority.COMPLETION,
            EventPriority.ARRIVAL,
            EventPriority.BATCH,
        ]

    def test_insertion_order_breaks_full_ties(self):
        q = EventQueue()
        q.push(1.0, None, GENERIC, "first")
        q.push(1.0, None, GENERIC, "second")
        assert q.pop_due(None) == (1.0, GENERIC, 0, None, "first")
        assert q.pop_due(None) == (1.0, GENERIC, 1, None, "second")

    def test_entry_carries_handler_and_payload(self):
        def handler(time, payload):
            pass

        q = EventQueue()
        q.push(2.0, handler, EventPriority.ARRIVAL, "x")
        assert q.peek() == (2.0, EventPriority.ARRIVAL, 0, handler, "x")
        assert q.pop_due(None) == (2.0, EventPriority.ARRIVAL, 0, handler, "x")

    def test_pop_due_empty_returns_none(self):
        assert EventQueue().pop_due(None) is None

    def test_peek_empty(self):
        assert EventQueue().peek() is None

    def test_bool_reflects_live_events(self):
        q = EventQueue()
        assert not q
        q.push(1.0, None, GENERIC, None)
        assert q
        q.pop_due(None)
        assert not q

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_pop_order_is_sorted(self, times):
        """Property: popping everything yields times in sorted order."""
        q = EventQueue()
        for t in times:
            q.push(t, None, GENERIC, None)
        popped = [q.pop_due(None)[0] for _ in range(len(times))]
        assert popped == sorted(times)
