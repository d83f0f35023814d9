"""Event ordering for the discrete-event kernel.

A pending event is one ``(time, priority, sequence, handler, payload)``
entry of the :class:`~repro.sim.queue.EventQueue`.  Entries are totally
ordered by ``(time, priority, sequence)`` — the sequence number is a
monotonically increasing tiebreaker assigned by the queue, so simultaneous
events fire in scheduling order and runs are fully deterministic.  When an
entry fires, the kernel calls ``handler(time, payload)``; no event object
is built.
"""

from __future__ import annotations

import enum

__all__ = ["EventPriority"]


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
