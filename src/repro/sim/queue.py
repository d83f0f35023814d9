"""Binary-heap event queue with a sorted bulk-arrival stream.

A thin, well-tested wrapper over :mod:`heapq` that assigns monotone sequence
numbers (deterministic tiebreaking for simultaneous events).

Every pending event is one ``(time, priority, sequence, handler, payload)``
tuple, wherever it waits: sequence numbers are unique, so every comparison
runs in C and never reaches the handler.  Events scheduled one at a time
(:meth:`EventQueue.push`) wait in the heap.  Bulk-scheduled work (a run's
arrivals, :meth:`EventQueue.push_many`) does not go through the heap at
all: it waits in one *stream* sorted in reverse, beside the heap, so its
earliest entry is the list's last and ``list.pop()`` takes it in O(1).
:meth:`EventQueue.pop_due` takes whichever head is smaller and returns the
entry itself, so firing an event builds no object.

The simulator fires the stream in *runs*
(:meth:`~repro.sim.kernel.Simulator.schedule_many`): it reads the two lists
directly, pops stream entries for as long as they still precede the heap's
head, and fires heap entries through :meth:`EventQueue.pop_due`.  A fired
stream entry leaves the list, so the stream never pins a payload that
already fired.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from itertools import repeat
from typing import Any

from repro.errors import ConfigurationError
from repro.sim.events import EventPriority

__all__ = ["EventQueue"]

#: A pending event: ``(time, priority, sequence, handler, payload)``.
Entry = tuple[float, EventPriority, int, Callable[[float, Any], None] | None, Any]


class EventQueue:
    """Priority queue of ``(time, priority, sequence, handler, payload)``
    event entries."""

    def __init__(self) -> None:
        # The simulator's run loop reads both lists directly (see the
        # module docstring); nothing else outside this class does.
        self._heap: list[Entry] = []
        self._stream: list[Entry] = []
        self._next_sequence = 0

    def push(
        self,
        time: float,
        handler: Callable[[float, Any], None] | None,
        priority: EventPriority,
        payload: Any,
    ) -> None:
        """Insert one event, assigning its tiebreaking sequence number."""
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        heapq.heappush(self._heap, (time, priority, sequence, handler, payload))

    def push_many(
        self,
        times: Sequence[float],
        handler: Callable[[float, Any], None] | None,
        priority: EventPriority,
        payloads: Sequence[Any],
    ) -> None:
        """Insert one event per ``(time, payload)`` pair, all sharing
        ``handler`` and ``priority``.

        Sequence numbers are assigned in input order, so the pop order is
        exactly that of pushing the same events one by one.

        Raises:
            ConfigurationError: if ``times`` and ``payloads`` differ in
                length; nothing is inserted then.
        """
        n = len(times)
        if len(payloads) != n:
            raise ConfigurationError(
                f"payloads must match times one for one: got {len(payloads)} "
                f"payloads for {n} times"
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

    def pop_due(self, until: float | None) -> Entry | None:
        """Pop the earliest entry if it fires at or before ``until``.

        Returns ``None``, popping nothing, when the queue is empty or its
        earliest entry lies beyond ``until`` (``None`` means no horizon).
        """
        stream = self._stream
        heap = self._heap
        if stream and (not heap or stream[-1] < heap[0]):
            if until is not None and stream[-1][0] > until:
                return None
            return stream.pop()
        if not heap or (until is not None and heap[0][0] > until):
            return None
        return heapq.heappop(heap)

    def peek(self) -> Entry | None:
        """The earliest entry, or ``None`` if empty; nothing is popped."""
        stream = self._stream
        heap = self._heap
        if stream and (not heap or stream[-1] < heap[0]):
            return stream[-1]
        return heap[0] if heap else None

    def __len__(self) -> int:
        """Number of pending events."""
        return len(self._heap) + len(self._stream)
