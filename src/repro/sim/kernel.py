"""The discrete-event simulation kernel.

A minimal, deterministic DES engine: a clock, an event queue, and a run
loop.  A handler scheduled on the kernel with :meth:`Simulator.schedule` is
called as ``handler(time, payload)`` when its event fires, and may schedule
further events (never in the past).  The kernel is deliberately free of
domain knowledge — the Grid scheduler, arrival processes and trust agents
are all plugged in as handlers.

Bulk-scheduled entries (:meth:`Simulator.schedule_many`, a run's arrivals)
fire in *runs*: when the stream's head fires next, its handler is called
once, as ``handler(run)``, and iterates ``run`` for ``(time, payload)``
pairs.  A run holds the longest stretch of consecutive stream entries of
that handler that still fire before the heap's head and ``until``; the
condition is checked again after every entry, so an event the handler
schedules mid-run (a completion, a failure, another bulk entry) ends the
run exactly where it would have fired between two single events.  Every
entry of a run moves the clock, counts as processed and against the event
budget, and is metered, just as a single event is.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterator, Sequence
from typing import Any

from repro.errors import ConfigurationError, EventOrderError, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.sim.events import EventPriority
from repro.sim.queue import EventQueue

__all__ = ["Simulator"]


class Simulator:
    """Event-driven simulation engine.

    Attributes:
        now: current simulation time; starts at 0 and only moves forward.
        processed: number of events fired so far.
        metrics: registry receiving ``sim.events`` (counter),
            ``sim.queue_depth`` (histogram, sampled after each pop) and
            ``sim.run_wall_s`` (timer over each :meth:`run`); disabled by
            default, and the per-event path branches on ``enabled`` so a
            disabled registry costs one boolean check.
    """

    def __init__(
        self,
        *,
        max_events: int = 10_000_000,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_events < 1:
            raise ConfigurationError(
                f"max_events must be positive, got {max_events!r}"
            )
        self.now: float = 0.0
        self.processed: int = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry.disabled()
        self._queue = EventQueue()
        self._max_events = max_events
        self._running = False

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        time: float,
        handler: Callable[[float, Any], None] | None,
        *,
        priority: EventPriority = EventPriority.GENERIC,
        payload: Any = None,
    ) -> None:
        """Schedule ``handler(time, payload)`` at absolute time ``time``.

        A ``None`` handler schedules a marker event: it advances the clock
        and counts as processed, but calls nothing.

        Raises:
            EventOrderError: if ``time`` lies in the simulation's past.
        """
        if time < self.now:
            raise EventOrderError(
                f"cannot schedule at {time}: clock is already at {self.now}"
            )
        self._queue.push(time, handler, priority, payload)

    def schedule_many(
        self,
        times: Sequence[float],
        handler: Callable[[Iterator[tuple[float, Any]]], None] | None,
        *,
        priority: EventPriority = EventPriority.GENERIC,
        payloads: Sequence[Any],
    ) -> None:
        """Schedule one entry per ``(times[i], payloads[i])`` pair, fired
        in runs through ``handler(run)``.

        The entries wait in a sorted stream beside the heap — the bulk path
        for a run's arrivals — and fire in the order of ``schedule`` called
        in input order: sequence numbers follow the input.  When the
        stream's head fires next, ``handler`` is called with an iterator
        over ``(time, payload)`` pairs: the longest stretch of the stream
        (of this call's entries) that still fires before every other
        pending event and the run's horizon, checked again before each
        pair.  The clock reads ``time`` while a pair is handled.  A handler
        that stops iterating early leaves the rest queued, to fire as the
        next run; the iterator is valid only during the call.

        A ``None`` handler schedules marker entries: each advances the
        clock and counts as processed, but calls nothing.  Nothing is
        enqueued when any time is refused.

        Raises:
            EventOrderError: if any time lies in the simulation's past
                (negative times included, as in :meth:`schedule`).
            ConfigurationError: if ``times`` and ``payloads`` differ in
                length.
        """
        if len(times):
            earliest = min(times)
            if earliest < self.now:
                raise EventOrderError(
                    f"cannot schedule at {earliest}: clock is already at {self.now}"
                )
        self._queue.push_many(times, handler, priority, payloads)

    # -- execution ----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of events awaiting execution."""
        return len(self._queue)

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Events scheduled exactly at ``until`` are still fired.  A single
        event moves the clock to its time and calls ``handler(time,
        payload)``; the entry is the queue's own tuple, so firing builds no
        object.  Bulk entries fire in runs (see :meth:`schedule_many`).

        Returns:
            The final simulation time.

        Raises:
            SimulationError: if the event budget ``max_events`` is exhausted
                (guards against runaway self-rescheduling handlers); raised
                after the handling of the event that exceeds it, whether
                that event is single or part of a run.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        try:
            with self.metrics.timer("sim.run_wall_s"):
                queue = self._queue
                heap = queue._heap
                stream = queue._stream
                heappop = heapq.heappop
                budget = self._max_events
                metered = self.metrics.enabled
                while True:
                    # The earlier head fires: the stream's starts a run,
                    # the heap's is a single event.
                    if stream and (not heap or stream[-1] < heap[0]):
                        if until is not None and stream[-1][0] > until:
                            break
                        time, _priority, _sequence, handler, payload = stream.pop()
                        self.now = time
                        self.processed += 1
                        if metered:
                            self._meter()
                        if handler is None:
                            pass
                        elif (
                            stream
                            and (head := stream[-1])[3] is handler
                            and not (heap and heap[0] < head)
                            and (until is None or head[0] <= until)
                        ):
                            # The next entry may join: the run goes on for
                            # as long as the check holds after each entry.
                            handler(
                                self._run(
                                    handler, until, time, payload,
                                    heap, stream, budget, metered,
                                )
                            )
                        else:
                            # Nothing the handler schedules moves the next
                            # entry ahead of what stops it, so the run is this
                            # one entry (a stream entry the handler adds
                            # fires later as a run of its own, in order).
                            handler(((time, payload),))
                    elif heap and (until is None or heap[0][0] <= until):
                        time, _priority, _sequence, handler, payload = heappop(heap)
                        self.now = time
                        self.processed += 1
                        if metered:
                            self._meter()
                        if handler is not None:
                            handler(time, payload)
                    else:
                        break
                    if self.processed > budget:
                        raise SimulationError(self._exhaustion_diagnostic())
            if until is not None and self.now < until:
                self.now = until
            return self.now
        finally:
            self._running = False

    def _run(
        self,
        handler: Callable[..., None],
        until: float | None,
        time: float,
        payload: Any,
        heap: list,
        stream: list,
        budget: int,
        metered: bool,
    ) -> Iterator[tuple[float, Any]]:
        """Yield the run that starts with the fired ``(time, payload)``,
        then pop, count and yield the stream's next entry for as long as it
        is ``handler``'s and fires before the heap's head and ``until``.

        ``heap``, ``stream``, ``budget`` and ``metered`` are the run loop's
        own locals, passed in so a short run costs no look-ups."""
        pop = stream.pop
        while True:
            yield time, payload
            if self.processed > budget:
                raise SimulationError(self._exhaustion_diagnostic())
            if not stream:
                return
            head = stream[-1]
            if (
                head[3] is not handler
                or (heap and heap[0] < head)
                or (until is not None and head[0] > until)
            ):
                return
            time, _priority, _sequence, _handler, payload = pop()
            self.now = time
            self.processed += 1
            if metered:
                self._meter()

    def _meter(self) -> None:
        """Count one fired event and sample the queue depth after its pop."""
        self.metrics.counter("sim.events").add()
        self.metrics.histogram("sim.queue_depth").observe(len(self._queue))

    def _exhaustion_diagnostic(self) -> str:
        """Describe the simulator state at event-budget exhaustion.

        Names the current clock, the queue depth and the head event so a
        runaway self-rescheduling handler (the usual culprit once failures
        and retries can re-enqueue work) is diagnosable from the message.
        """
        message = (
            f"exceeded event budget of {self._max_events} events: "
            f"clock at {self.now:g}, {len(self._queue)} event(s) pending"
        )
        head = self._queue.peek()
        if head is not None:
            message += (
                f", next event at {head[0]:g} "
                f"(priority {EventPriority(head[1]).name})"
            )
        return message
