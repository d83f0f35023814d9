"""Binary-heap event queue with a sorted bulk-arrival stream.

A thin, well-tested wrapper over :mod:`heapq` that assigns monotone sequence
numbers (deterministic tiebreaking for simultaneous events).

Heap entries are ``(time, priority, sequence, event)`` tuples, so every
heap comparison runs in C; sequence numbers are unique, so a comparison
never reaches the event itself.

Bulk-scheduled work (a run's arrivals) does not go through the heap at all:
:meth:`EventQueue.push_many` keeps it as one *stream* of
``(time, priority, sequence, handler, payload)`` tuples sorted in reverse,
beside the heap.  :meth:`EventQueue.pop_due` takes whichever head is smaller on
``(time, priority, sequence)`` and builds the stream entry's
:class:`~repro.sim.events.Event` only when it fires; ``list.pop()`` drops
the fired entry, so the stream never pins a payload that already fired.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from itertools import repeat
from typing import Any

from repro.sim.events import Event, EventPriority

__all__ = ["EventQueue"]


class EventQueue:
    """Priority queue of :class:`~repro.sim.events.Event` objects."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._stream: list[tuple[float, int, int, Any, Any]] = []
        self._next_sequence = 0

    def push(self, event: Event) -> Event:
        """Insert ``event``, assigning its tiebreaking sequence number.

        Returns the event (for chaining).
        """
        sequence = self._next_sequence
        event.sequence = sequence
        self._next_sequence = sequence + 1
        heapq.heappush(self._heap, (event.time, event.priority, sequence, event))
        return event

    def push_many(
        self,
        times: Sequence[float],
        handler: Callable[[Event], None] | None,
        priority: EventPriority,
        payloads: Sequence[Any],
    ) -> None:
        """Insert one event per ``(time, payload)`` pair, all sharing
        ``handler`` and ``priority``.

        Sequence numbers are assigned in input order, so the pop order is
        exactly that of pushing the same events one by one.  The events are
        not materialised: each becomes an :class:`Event` when it is popped
        (or peeked at), which is why no handle is returned.
        """
        n = len(times)
        if len(payloads) != n:
            raise ValueError(
                f"{n} times but {len(payloads)} payloads for push_many"
            )
        if n == 0:
            return
        start = self._next_sequence
        self._next_sequence = start + n
        stream = self._stream
        stream.extend(
            zip(times, repeat(priority), range(start, start + n), repeat(handler), payloads)
        )
        # Reverse order puts the earliest entry last, where ``list.pop()``
        # releases it in O(1); an already-sorted stream plus one sorted run
        # merges in linear time.
        stream.sort(reverse=True)

    def pop_due(self, until: float | None) -> Event | None:
        """Pop the earliest event if it fires at or before ``until``.

        Returns ``None``, popping nothing, when the queue is empty or its
        earliest event lies beyond ``until`` (``None`` means no horizon).
        """
        stream = self._stream
        heap = self._heap
        if stream and (not heap or stream[-1] < heap[0]):
            if until is not None and stream[-1][0] > until:
                return None
            return Event(*stream.pop())
        if not heap or (until is not None and heap[0][0] > until):
            return None
        return heapq.heappop(heap)[3]

    def peek(self) -> Event | None:
        """The earliest event, or ``None`` if empty.

        A stream head is returned as a fresh :class:`Event` equal to the one
        that later pops; the queue is left unchanged.
        """
        stream = self._stream
        heap = self._heap
        if stream and (not heap or stream[-1] < heap[0]):
            return Event(*stream[-1])
        return heap[0][3] if heap else None

    def __len__(self) -> int:
        """Number of pending events."""
        return len(self._heap) + len(self._stream)
