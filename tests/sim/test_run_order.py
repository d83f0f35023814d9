"""Bulk entries fire in runs exactly as per-event firing would fire them.

:meth:`Simulator.schedule_many` hands its handler a *run*: the stretch of
consecutive stream entries that still fire before the heap's head and the
horizon.  These properties check the simulator against a per-event firing
oracle written here — a plain heap that fires every entry, bulk or single,
as its own event — on random programs: mixes of single and bulk
scheduling, handlers that schedule single and bulk entries mid-run,
handlers that stop iterating early, ``None`` marker entries, ``until``
horizons and small event budgets.  Both sides must fire the same entries
in the same order, at the same clock and processed count, end each run at
the same clock with the same entries pending, raise budget exhaustion at
the same event with the same message, and meter the same ``sim.events``
and ``sim.queue_depth``.
"""

from __future__ import annotations

import gc
import heapq
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.scheduling import MctHeuristic, MinMinHeuristic, TRMScheduler
from repro.scheduling import engine as engine_module
from repro.scheduling.policy import TrustPolicy
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator
from repro.workloads.scenario import ScenarioSpec, materialize

TIMES = st.sampled_from((0.0, 1.0, 2.5, 2.5, 4.0, 7.0))
PRIORITIES = st.sampled_from(tuple(EventPriority))
#: Who handles an entry: a single-event handler, one of two run handlers
#: (the second stops iterating after two entries per call), or nobody.
SINGLE, RUN_ALL, RUN_TWO, MARKER = "single", "run-all", "run-two", "marker"
BULK_KINDS = st.sampled_from((RUN_ALL, RUN_ALL, RUN_TWO, MARKER))

#: One scheduling action: single or bulk, its delays from the clock, the
#: priority and, for bulk, who handles it.
ACTION = st.one_of(
    st.tuples(st.just(SINGLE), st.lists(TIMES, min_size=1, max_size=1), PRIORITIES),
    st.tuples(BULK_KINDS, st.lists(TIMES, max_size=6), PRIORITIES),
)


class Oracle:
    """Per-event firing: every entry is its own event on one heap."""

    def __init__(self, max_events: int, metrics: MetricsRegistry) -> None:
        self.now = 0.0
        self.processed = 0
        self.metrics = metrics
        self._heap: list = []
        self._sequence = 0
        self._max_events = max_events

    @property
    def pending(self) -> int:
        return len(self._heap)

    def push(self, time: float, priority: EventPriority, fire, tag: int) -> None:
        heapq.heappush(self._heap, (time, priority, self._sequence, fire, tag))
        self._sequence += 1

    def run(self, until: float | None = None) -> float:
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            time, _priority, _sequence, fire, tag = heapq.heappop(heap)
            self.now = time
            self.processed += 1
            if self.metrics.enabled:
                self.metrics.counter("sim.events").add()
                self.metrics.histogram("sim.queue_depth").observe(len(heap))
            if fire is not None:
                fire(time, tag)
            if self.processed > self._max_events:
                message = (
                    f"exceeded event budget of {self._max_events} events: "
                    f"clock at {self.now:g}, {len(heap)} event(s) pending"
                )
                if heap:
                    message += (
                        f", next event at {heap[0][0]:g} "
                        f"(priority {EventPriority(heap[0][1]).name})"
                    )
                raise SimulationError(message)
        if until is not None and self.now < until:
            self.now = until
        return self.now


def play(per_event: bool, program, spawn, horizons, max_events, metered):
    """Run ``program`` on the simulator or the oracle; returns everything
    observable: fired entries, per-run ends, the error and the metrics."""
    metrics = MetricsRegistry() if metered else MetricsRegistry.disabled()
    sim = (Oracle if per_event else Simulator)(max_events=max_events, metrics=metrics)
    log: list = []
    tags = iter(range(10**6))

    def fire(time: float, tag: int) -> None:
        log.append((tag, time, sim.now, sim.processed))
        if tag < len(spawn):
            for action in spawn[tag]:
                schedule(action, clamp=True)

    def run_all(run) -> None:
        for time, tag in run:
            fire(time, tag)

    def run_two(run) -> None:
        for count, (time, tag) in enumerate(run, 1):
            fire(time, tag)
            if count == 2:
                return

    handlers = {RUN_ALL: run_all, RUN_TWO: run_two, MARKER: None}

    def schedule(action, *, clamp: bool) -> None:
        kind, delays, priority = action
        times = [sim.now + d if clamp else max(d, sim.now) for d in delays]
        loads = [next(tags) for _ in times]
        if per_event:
            for time, tag in zip(times, loads):
                sim.push(time, priority, None if kind == MARKER else fire, tag)
        elif kind == SINGLE:
            sim.schedule(times[0], fire, priority=priority, payload=loads[0])
        else:
            sim.schedule_many(times, handlers[kind], priority=priority, payloads=loads)

    ends = []
    error = None
    try:
        for step, horizon in enumerate(horizons):
            for action in program[step::len(horizons)]:
                schedule(action, clamp=False)
            ends.append((sim.run(until=horizon), sim.pending, sim.processed))
    except SimulationError as exc:
        error = str(exc)
    snapshot = {
        name: entry for name, entry in metrics.snapshot().items()
        if name in ("sim.events", "sim.queue_depth")
    }
    return log, ends, error, sim.now, sim.processed, snapshot


@settings(max_examples=400, deadline=None)
@given(
    program=st.lists(ACTION, max_size=10),
    spawn=st.lists(st.lists(ACTION, max_size=2), max_size=30),
    horizons=st.lists(st.one_of(st.none(), TIMES), min_size=1, max_size=3),
    max_events=st.integers(1, 60),
    metered=st.booleans(),
)
def test_runs_fire_like_per_event_firing(program, spawn, horizons, max_events, metered):
    horizons = [*horizons, None]
    kernel = play(False, program, spawn, horizons, max_events, metered)
    oracle = play(True, program, spawn, horizons, max_events, metered)
    assert kernel == oracle


def test_run_of_consecutive_arrivals_is_one_handler_call():
    sim = Simulator()
    calls = []
    sim.schedule(2.0, None, priority=EventPriority.COMPLETION)
    sim.schedule_many(
        [0.0, 1.0, 2.0, 3.0], lambda run: calls.append([tag for _, tag in run]),
        priority=EventPriority.ARRIVAL, payloads="abcd",
    )
    sim.run()
    # The completion at 2.0 outranks the arrival at 2.0 and splits the run.
    assert calls == [["a", "b"], ["c", "d"]]
    assert sim.processed == 5


def test_event_scheduled_mid_run_ends_the_run():
    sim = Simulator()
    calls = []

    def arrivals(run) -> None:
        calls.append([])
        for time, tag in run:
            calls[-1].append(tag)
            if tag == "a":
                sim.schedule(time + 1.0, lambda t, p: calls.append("done"))

    sim.schedule_many([0.0, 0.5, 1.0, 2.0], arrivals, priority=EventPriority.ARRIVAL,
                      payloads="abcd")
    sim.run()
    # The event at 1.0 is GENERIC, so "c" (ARRIVAL at 1.0) still fires
    # before it, in the first run.
    assert calls == [["a", "b", "c"], "done", ["d"]]


def test_finished_scheduler_run_is_freed_without_the_cycle_collector(monkeypatch):
    """Nothing of a finished run — its engine, simulator or arrival runs —
    outlives it, for immediate and batch heuristics alike."""
    engines = []
    init = engine_module.SchedulingEngine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(weakref.ref(self))

    monkeypatch.setattr(engine_module.SchedulingEngine, "__init__", recording_init)
    scenario = materialize(ScenarioSpec(n_tasks=30, n_machines=3, target_load=2.0), seed=4)
    gc.collect()
    gc.disable()
    try:
        for heuristic, interval in ((MctHeuristic(), None), (MinMinHeuristic(), 100.0)):
            result = TRMScheduler(
                scenario.grid, scenario.eec, TrustPolicy.aware(), heuristic,
                batch_interval=interval,
            ).run(scenario.requests)
            assert result.n_completed == 30
        assert [ref() for ref in engines] == [None, None]
    finally:
        gc.enable()
