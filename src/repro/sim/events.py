"""Event representation for the discrete-event kernel.

An :class:`Event` pairs a firing time with a handler callback.  Events are
totally ordered by ``(time, priority, sequence)`` — the sequence number is a
monotonically increasing tiebreaker assigned by the queue, so simultaneous
events fire in scheduling order and runs are fully deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Event", "EventPriority"]


class EventPriority(enum.IntEnum):
    """Relative ordering among events that share a firing time.

    Lower values fire first.  Completions are processed before arrivals at
    the same instant (a machine freed at time ``t`` is available to a
    request arriving at ``t``), and batch timers fire after arrivals so a
    request arriving exactly on the boundary joins the closing batch.

    Failure events sit between completions and arrivals: a task failure at
    time ``t`` frees its machine (and possibly re-enqueues the task) before
    any request arriving at ``t`` is mapped, mirroring the completion rule.
    Machine up/down transitions fire right after failures so state flips
    are visible to same-instant arrivals as well.
    """

    COMPLETION = 0
    FAILURE = 1
    MACHINE = 2
    ARRIVAL = 3
    BATCH = 4
    GENERIC = 5


@dataclass(order=True)
class Event:
    """A scheduled occurrence.

    Attributes:
        time: simulation time at which the event fires.
        priority: same-time ordering class.
        sequence: queue-assigned tiebreaker (insertion order).
        handler: callable invoked as ``handler(event)`` when fired.
        payload: arbitrary data for the handler.
    """

    time: float
    priority: EventPriority = field(default=EventPriority.GENERIC)
    sequence: int = field(default=0)
    handler: Callable[["Event"], None] | None = field(default=None, compare=False)
    payload: Any = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be non-negative, got {self.time}")

    def fire(self) -> None:
        """Invoke the handler (no-op for handler-less marker events)."""
        if self.handler is not None:
            self.handler(self)
