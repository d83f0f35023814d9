"""The discrete-event simulation kernel.

A minimal, deterministic DES engine: a clock, an event queue, and a run
loop.  Handlers scheduled on the kernel receive the fired event and may
schedule further events (never in the past).  The kernel is deliberately
free of domain knowledge — the Grid scheduler, arrival processes and trust
agents are all plugged in as handlers.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import EventOrderError, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.sim.events import Event, EventPriority
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
            raise ValueError("max_events must be positive")
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
        handler: Callable[[Event], None] | None,
        *,
        priority: EventPriority = EventPriority.GENERIC,
        payload: Any = None,
    ) -> Event:
        """Schedule ``handler`` to fire at absolute time ``time``.

        Raises:
            EventOrderError: if ``time`` lies in the simulation's past.
        """
        if time < self.now:
            raise EventOrderError(
                f"cannot schedule at {time}: clock is already at {self.now}"
            )
        event = Event(time=time, priority=priority, handler=handler, payload=payload)
        return self._queue.push(event)

    def schedule_many(
        self,
        times: Sequence[float],
        handler: Callable[[Event], None] | None,
        *,
        priority: EventPriority = EventPriority.GENERIC,
        payloads: Sequence[Any],
    ) -> None:
        """Schedule ``handler`` once per ``(times[i], payloads[i])`` pair.

        Fires exactly like ``schedule(times[i], handler, priority=...,
        payload=payloads[i])`` called in input order, but the entries wait
        in a sorted stream and each becomes an :class:`Event` only when it
        fires — the bulk path for a run's arrivals.  Nothing is enqueued
        when any time is refused.

        Raises:
            EventOrderError: if any time lies in the simulation's past
                (negative times included, as in :meth:`schedule`).
            ValueError: if ``times`` and ``payloads`` differ in length.
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

    def _fire(self, event: Event) -> None:
        if event.time < self.now:  # pragma: no cover - guarded at schedule time
            raise EventOrderError(
                f"event at {event.time} fired with clock at {self.now}"
            )
        self.now = event.time
        self.processed += 1
        if self.metrics.enabled:
            self.metrics.counter("sim.events").add()
            self.metrics.histogram("sim.queue_depth").observe(len(self._queue))
        event.fire()

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Events scheduled exactly at ``until`` are still fired.

        Returns:
            The final simulation time.

        Raises:
            SimulationError: if the event budget ``max_events`` is exhausted
                (guards against runaway self-rescheduling handlers).
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        try:
            with self.metrics.timer("sim.run_wall_s"):
                pop_due = self._queue.pop_due
                while (event := pop_due(until)) is not None:
                    self._fire(event)
                    if self.processed > self._max_events:
                        raise SimulationError(self._exhaustion_diagnostic())
            if until is not None and self.now < until:
                self.now = until
            return self.now
        finally:
            self._running = False

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
                f", next event at {head.time:g} "
                f"(priority {head.priority.name})"
            )
        return message
