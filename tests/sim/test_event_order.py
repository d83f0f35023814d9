"""Event order under every mix of single and bulk scheduling.

The queue keeps bulk-scheduled entries (``push_many`` /
``Simulator.schedule_many``) in a sorted stream beside its heap; these
properties pin that the two together pop exactly in ``(time, priority,
sequence)`` order, whatever the interleaving of pushes, bulk pushes, peeks
and pops up to a horizon.  The simulator hands bulk entries to their
handler in runs (``tests/sim/test_run_order.py`` checks runs against
per-event firing); here a run handler passes each entry of its run on to
the per-event handler.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EventOrderError
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator
from repro.sim.queue import EventQueue

#: Few distinct times and all priorities, so ties on time and priority are common.
TIMES = st.sampled_from((0.0, 1.0, 2.5, 2.5, 4.0, 7.0))
PRIORITIES = st.sampled_from(tuple(EventPriority))

OPS = st.one_of(
    st.tuples(st.just("push"), TIMES, PRIORITIES),
    st.tuples(st.just("push_many"), st.lists(TIMES, max_size=6), PRIORITIES),
    # Many entries clamped to one clock, as a resumed service re-schedules
    # every arrival that fell behind its checkpoint.
    st.tuples(st.just("clamped"), st.integers(1, 6), PRIORITIES),
    st.tuples(st.just("peek")),
    st.tuples(st.just("pop")),
    # ``pop_due`` with a horizon, the simulator's run-loop call.
    st.tuples(st.just("pop_due"), TIMES),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, max_size=60))
def test_interleavings_pop_in_key_order(ops):
    queue = EventQueue()
    live: dict[int, tuple[float, EventPriority, int]] = {}  # tag -> key
    clock = 0.0
    next_tag = 0
    sequence = 0

    def expect_pop(until=None):
        nonlocal clock
        entry = queue.pop_due(until)
        if not live or (until is not None and min(live.values())[0] > until):
            assert entry is None
            return
        tag = min(live, key=live.__getitem__)
        time, priority, sequence, _handler, payload = entry
        assert (time, priority, sequence) == live.pop(tag)
        assert payload == tag
        clock = time

    for op in ops:
        kind = op[0]
        if kind == "push":
            time = max(op[1], clock)
            queue.push(time, None, op[2], next_tag)
            live[next_tag] = (time, op[2], sequence)
            next_tag += 1
            sequence += 1
        elif kind in ("push_many", "clamped"):
            if kind == "clamped":
                times = [clock] * op[1]
            else:
                times = [max(t, clock) for t in op[1]]
            tags = list(range(next_tag, next_tag + len(times)))
            queue.push_many(times, None, op[2], tags)
            for offset, (tag, time) in enumerate(zip(tags, times)):
                live[tag] = (time, op[2], sequence + offset)
            next_tag += len(times)
            sequence += len(times)
        elif kind == "peek":
            head = queue.peek()
            if live:
                tag = min(live, key=live.__getitem__)
                assert head[:3] == live[tag]
                assert head[4] == tag
            else:
                assert head is None
        elif kind == "pop_due":
            expect_pop(op[1])
        else:
            expect_pop()
        assert len(queue) == len(live)
        assert bool(queue) == bool(live)
    while live:
        expect_pop()
    assert not queue
    assert queue.peek() is None


# -- the simulator: bulk scheduling fires like the one-by-one loop ------------

CHILDREN = st.lists(
    st.tuples(st.sampled_from((0.0, 0.0, 1.0, 3.5)), PRIORITIES, st.booleans()),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(
    arrivals=st.lists(st.tuples(TIMES, PRIORITIES), max_size=12),
    spawn=st.lists(CHILDREN, max_size=12),
)
def test_schedule_many_fires_like_a_schedule_loop(arrivals, spawn):
    """Handlers spawn children mid-run through ``schedule_many`` on one
    simulator and through a ``schedule`` loop on the other; both fire the
    same events at the same times in the same order."""

    def run(bulk: bool) -> list:
        sim = Simulator()
        fired = []
        tags = iter(range(10**6))

        # Each payload carries its own priority, so the fired order is
        # compared on (time, priority, tag) as the scheduling key orders it.
        def on_run(run):
            for at, payload in run:
                handler(at, payload)

        def handler(at, payload):
            tag, priority = payload
            fired.append((at, priority, tag))
            if tag >= len(spawn):
                return
            groups: dict[EventPriority, list] = {}
            for delay, child, clamp in spawn[tag]:
                time = sim.now if clamp else sim.now + delay
                groups.setdefault(child, []).append((time, (next(tags), child)))
            for child, entries in groups.items():
                if bulk:
                    sim.schedule_many(
                        [t for t, _ in entries], on_run,
                        priority=child, payloads=[load for _, load in entries],
                    )
                else:
                    for time, load in entries:
                        sim.schedule(time, handler, priority=child, payload=load)

        for time, priority in arrivals:
            load = (next(tags), priority)
            if bulk:
                sim.schedule_many([time], on_run, priority=priority, payloads=[load])
            else:
                sim.schedule(time, handler, priority=priority, payload=load)
        sim.run()
        return fired

    assert run(bulk=True) == run(bulk=False)


def test_run_horizon_leaves_later_stream_entries_queued():
    sim = Simulator()
    fired = []
    sim.schedule_many(
        [1.0, 2.0, 5.0], lambda run: fired.extend(payload for _, payload in run),
        priority=EventPriority.ARRIVAL, payloads=["a", "b", "c"],
    )
    assert sim.run(until=2.0) == 2.0
    assert fired == ["a", "b"] and sim.pending == 1
    sim.run()
    assert fired == ["a", "b", "c"]


class TestRefusals:
    def advanced(self) -> Simulator:
        sim = Simulator()
        sim.schedule(5.0, None)
        sim.run()
        return sim

    def test_past_time_is_refused_like_schedule(self):
        sim = self.advanced()
        with pytest.raises(EventOrderError):
            sim.schedule(4.0, None)
        with pytest.raises(EventOrderError):
            sim.schedule_many([6.0, 4.0], None, payloads=[0, 1])
        assert sim.pending == 0

    def test_negative_time_is_refused_like_schedule(self):
        sim = Simulator()
        with pytest.raises(EventOrderError):
            sim.schedule(-1.0, None)
        with pytest.raises(EventOrderError):
            sim.schedule_many([1.0, -1.0], None, payloads=[0, 1])
        assert sim.pending == 0

    def test_length_mismatch_enqueues_nothing(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="payloads"):
            sim.schedule_many([1.0, 2.0], None, payloads=[0])
        assert sim.pending == 0


def test_fired_entry_releases_its_payload():
    class Payload:
        pass

    queue = EventQueue()
    payload = Payload()
    ref = weakref.ref(payload)
    queue.push_many([1.0, 2.0], None, EventPriority.ARRIVAL, [payload, Payload()])
    del payload
    entry = queue.pop_due(None)
    assert entry[4] is ref()
    del entry
    gc.collect()
    assert ref() is None
    assert len(queue) == 1
