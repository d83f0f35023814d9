"""Binary-heap event queue with a sorted bulk-arrival stream.

A thin, well-tested wrapper over :mod:`heapq` that assigns monotone sequence
numbers (deterministic tiebreaking for simultaneous events) and skips
cancelled events lazily on pop — the standard priority-queue idiom that
avoids O(n) removal.

Heap entries are ``(time, priority, sequence, event)`` tuples, so every
heap comparison runs in C; sequence numbers are unique, so a comparison
never reaches the event itself.

Bulk-scheduled work (a run's arrivals) does not go through the heap at all:
:meth:`EventQueue.push_many` keeps it as one *stream* of
``(time, priority, sequence, handler, payload)`` tuples sorted in reverse,
beside the heap.  :meth:`EventQueue.pop` takes whichever head is smaller on
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
        self._live = 0

    def push(self, event: Event) -> Event:
        """Insert ``event``, assigning its tiebreaking sequence number.

        Returns the event (for chaining / later cancellation).
        """
        sequence = self._next_sequence
        event.sequence = sequence
        self._next_sequence = sequence + 1
        heapq.heappush(self._heap, (event.time, event.priority, sequence, event))
        self._live += 1
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
        self._live += n

    def _stream_first(self) -> bool:
        """Skip cancelled heap heads; True when the stream's head is next."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        stream = self._stream
        return bool(stream) and (not heap or stream[-1] < heap[0])

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            IndexError: when the queue holds no live events.
        """
        event = self.pop_due(None)
        if event is None:
            raise IndexError("pop from an empty event queue")
        return event

    def pop_due(self, until: float | None) -> Event | None:
        """Pop the earliest live event if it fires at or before ``until``.

        Returns ``None``, popping nothing, when the queue is empty or its
        earliest event lies beyond ``until`` (``None`` means no horizon).
        """
        if self._stream_first():
            entry = self._stream[-1]
            if until is not None and entry[0] > until:
                return None
            self._stream.pop()
            self._live -= 1
            return Event(*entry)
        heap = self._heap
        if not heap or (until is not None and heap[0][0] > until):
            return None
        self._live -= 1
        return heapq.heappop(heap)[3]

    def peek_time(self) -> float | None:
        """Firing time of the earliest live event, or ``None`` if empty."""
        if self._stream_first():
            return self._stream[-1][0]
        return self._heap[0][0] if self._heap else None

    def peek(self) -> Event | None:
        """The earliest live event itself, or ``None`` if empty.

        A stream head is materialised into the heap here, so the returned
        event is the one that later pops and can be cancelled.
        """
        if self._stream_first():
            entry = self._stream.pop()
            event = Event(*entry)
            heapq.heappush(self._heap, (*entry[:3], event))
            return event
        return self._heap[0][3] if self._heap else None

    def cancel(self, event: Event) -> None:
        """Cancel an event previously pushed onto this queue."""
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
