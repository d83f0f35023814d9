"""The discrete-event simulation kernel.

A minimal, deterministic DES engine: a clock, an event queue, and a run
loop.  A handler scheduled on the kernel is called as
``handler(time, payload)`` when its event fires, and may schedule further
events (never in the past).  The kernel is deliberately free of domain
knowledge — the Grid scheduler, arrival processes and trust agents are all
plugged in as handlers.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
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
        handler: Callable[[float, Any], None] | None,
        *,
        priority: EventPriority = EventPriority.GENERIC,
        payloads: Sequence[Any],
    ) -> None:
        """Schedule ``handler`` once per ``(times[i], payloads[i])`` pair.

        Fires exactly like ``schedule(times[i], handler, priority=...,
        payload=payloads[i])`` called in input order, but the entries wait
        in a sorted stream beside the heap — the bulk path for a run's
        arrivals.  Nothing is enqueued when any time is refused.

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

        Events scheduled exactly at ``until`` are still fired.  Each fired
        entry moves the clock to its time and calls ``handler(time,
        payload)``; the entry is the queue's own tuple, so firing builds no
        object.

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
                queue = self._queue
                pop_due = queue.pop_due
                budget = self._max_events
                metrics = self.metrics
                metered = metrics.enabled
                while (entry := pop_due(until)) is not None:
                    time, _priority, _sequence, handler, payload = entry
                    self.now = time
                    self.processed += 1
                    if metered:
                        metrics.counter("sim.events").add()
                        metrics.histogram("sim.queue_depth").observe(len(queue))
                    if handler is not None:
                        handler(time, payload)
                    if self.processed > budget:
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
                f", next event at {head[0]:g} "
                f"(priority {EventPriority(head[1]).name})"
            )
        return message
