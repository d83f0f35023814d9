"""Min-min (and the shared greedy oracle for Max-min).

"Min-min begins by scheduling the tasks that change the expected machine
available time by the least amount."  (Section 4.1)

Each round computes, for every unassigned request, its best (minimum)
completion cost over all machines, then commits the request whose best
completion is smallest (Min-min) or largest (Max-min), updates the chosen
machine's availability, and repeats until the meta-request is exhausted.

:class:`MinMinHeuristic` runs this as per-machine sorted claim queues
under one heap of their candidates' keys, reading each queue through a
bounded Python-list block cursor whose refills drop committed rows.
:func:`greedy_min_completion_plan` is the scalar transcription of the
rounds above: an unregistered oracle that the equivalence suite and the
kernel bench hold the production kernels to, bit-for-bit, including the
lowest-index tie-breaks.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heapify, heapreplace

import numpy as np

from repro.grid.request import Request
from repro.scheduling.base import BatchHeuristic, PlannedAssignment, check_avail
from repro.scheduling.costs import DEFAULT_CHUNK_TASKS, CostProvider

__all__ = ["MinMinHeuristic", "greedy_min_completion_plan"]

#: Claim-queue entries :class:`MinMinHeuristic` reads into Python lists at a
#: time, per machine.  Bounded so the lists stay small at any window size:
#: a whole-queue ``.tolist()`` would cost over a GiB at 10⁶ tasks.
_BLOCK = 256


def greedy_min_completion_plan(
    requests: Sequence[Request],
    costs: CostProvider,
    avail: np.ndarray,
    *,
    prefer_max: bool,
) -> list[PlannedAssignment]:
    """The Min-min / Max-min greedy loop (reference oracle).

    O(n²m) and never optimised: :class:`MinMinHeuristic` and
    :class:`~repro.scheduling.maxmin.MaxMinHeuristic` are proven
    bit-identical to it.  Its deterministic tie-breaks are part of the
    contract: the best machine of a row is the lowest-index argmin, and
    among requests tied on the best completion the lowest original position
    wins (``remaining`` stays in ascending order, so NumPy's first-index
    argmin/argmax delivers that).

    Args:
        requests: the meta-request members.
        costs: cost provider (believed ECC rows).
        avail: effective machine availability at batch time.
        prefer_max: False for Min-min, True for Max-min.

    Returns:
        An ordered plan covering every request.
    """
    avail = check_avail(avail, costs.grid.n_machines).copy()
    if not requests:
        return []

    ecc = BatchHeuristic.mapping_matrix(requests, costs)
    remaining = list(range(len(requests)))
    plan: list[PlannedAssignment] = []

    while remaining:
        rows = ecc[remaining]                      # (k, m) believed costs
        completion = rows + avail[None, :]         # completion if mapped now
        best_machine = np.argmin(completion, axis=1)
        best_value = completion[np.arange(len(remaining)), best_machine]
        pick = int(np.argmax(best_value)) if prefer_max else int(np.argmin(best_value))
        req_pos = remaining.pop(pick)
        machine = int(best_machine[pick])
        avail[machine] = float(best_value[pick])
        plan.append(PlannedAssignment(requests[req_pos], machine, len(plan)))
    return plan


class MinMinHeuristic(BatchHeuristic):
    """Min-min as per-machine sorted claim queues under one heap of keys.

    Each machine's queue holds every row sorted by its *static*
    ``ecc[row, machine]``, so a whole queue's current completions are one
    shared ``+ avail[machine]`` away and no entry is ever re-priced when
    availability moves.  The columns are filled from the streaming
    :meth:`~repro.scheduling.costs.CostProvider.mapping_ecc_chunks`
    assembly, so no row-major ``(n, m)`` matrix exists; this is the
    10⁶-task path.

    Correctness: the global minimum completion over all (row, machine)
    pairs is attained by the winning row *on its own first-argmin
    machine*, so the lexicographic minimum over machines of (candidate
    value, candidate position, machine index) — candidate = first
    uncommitted row in static per-column order — is exactly the oracle's
    (lowest best, lowest position, first-argmin) commit.  Ties inside a
    column surface lowest-position-first via the static (value, position)
    order; ties across columns resolve by position then machine index.

    Sort: the static order comes from NumPy's default (SIMD) sort, which
    agrees with a stable sort everywhere but inside runs of equal values.
    A queue with an equal adjacent pair (ties, ``+inf`` constraint masks)
    is re-sorted on the unique integer key ``run * n + position``, where
    ``run`` numbers its runs of equal values.  The columns are then
    sorted in place, so row j of the block holds queue j's values in
    queue order and no gather reads them.  Ties are found in spans of
    :data:`~repro.scheduling.costs.DEFAULT_CHUNK_TASKS` columns' worth,
    so no ``(m, n)`` mask exists.

    Heap keys: a :mod:`heapq` heap holds one ``(value, position, machine)``
    key per queue, so each round reads the minimum in O(log m) instead of
    scanning m candidates.  A key is re-keyed only when its queue's head
    moves: after its row wins (the winning machine's availability moved
    too), or when the key reaches the top holding a row another machine
    already committed.  Such a stale key is never above its queue's true
    candidate: the static order ascends in (value, position), the queue's
    availability has not moved since it was keyed (only a win moves it,
    and a win re-keys), and adding that availability preserves the order.
    A fresh key on top is therefore the scan's minimum, tie-breaks
    included.  Like the scan, this reads the sum's order off the static
    order, so it is exact as long as adding a machine's availability
    keeps its distinct ECC values distinct.

    Block cursors: the claim loop reads each queue through a Python-list
    block of at most :data:`_BLOCK` entries (the rows in static order and
    their ECC in that column).  When the cursor runs off its end, the next
    raw block of the sorted order is read and the rows already committed
    are dropped from it in one vector op (through a NumPy view of the
    ``committed`` flags); a raw block with nothing left is skipped whole.
    A row never becomes uncommitted, so dropping it when its block is read
    equals skipping it later.  The loop then touches Python ints and
    floats only, while the blocks stay O(m · _BLOCK) at any window size.
    """

    name = "min-min"

    def plan(
        self,
        requests: Sequence[Request],
        costs: CostProvider,
        avail: np.ndarray,
    ) -> list[PlannedAssignment]:
        avail = check_avail(avail, costs.grid.n_machines)
        n = len(requests)
        if n == 0:
            return []
        m = costs.grid.n_machines
        # One (m, n) block: row j is machine j's ECC column.  The streamed
        # chunks are transposed into it, so no row-major (n, m) matrix (nor
        # the one-shot assembly intermediates) ever exists.
        cols = np.empty((m, n), dtype=np.float64)
        for start, chunk in costs.mapping_ecc_chunks(requests):
            cols[:, start : start + chunk.shape[0]] = chunk.T
        # Static (value, position) order: the default sort, then a repair
        # of each row holding an equal adjacent pair.  Sorted in place,
        # row j of ``cols`` holds queue j's values in queue order.  The
        # flat scan for equal pairs drops those that straddle two rows.
        orders = np.argsort(cols, axis=1)
        cols.sort(axis=1)
        flat = cols.reshape(-1)
        size = m * n
        span = m * DEFAULT_CHUNK_TASKS
        tied: set[int] = set()
        for lo in range(0, size - 1, span):
            hi = min(lo + span, size - 1)
            equal = flat[lo:hi] == flat[lo + 1 : hi + 1]
            if np.count_nonzero(equal):
                pairs = np.flatnonzero(equal) + lo
                tied.update((pairs[pairs % n != n - 1] // n).tolist())
        for j in tied:
            # Number the row's runs of equal values; ``run * n + position``
            # is then a unique key in (value, position) order.
            values, queue = cols[j], orders[j]
            queue[1:] += np.cumsum(values[1:] != values[:-1]) * n
            queue.sort()
            queue %= n

        # Queue j's cursor: its current block of uncommitted rows (static
        # order) and their values, where the next raw block starts in the
        # queue, and the candidate's place in the block.
        block = _BLOCK
        q_rows = orders[:, :block].tolist()
        q_vals = cols[:, :block].tolist()
        q_next = [block] * m
        q_at = [0] * m
        committed = bytearray(n)
        done = np.frombuffer(committed, dtype=bool)
        avail_f = avail.tolist()
        # Nothing is committed yet: every queue's candidate is its head.
        keys = [
            (vals[0] + a, rows[0], j)
            for j, (rows, vals, a) in enumerate(zip(q_rows, q_vals, avail_f))
        ]
        heapify(keys)

        plan: list[PlannedAssignment] = []
        append = plan.append
        new_item = tuple.__new__
        order = 0
        while True:
            value, pos, j = keys[0]
            if not committed[pos]:
                committed[pos] = 1
                avail_f[j] = value
                append(new_item(PlannedAssignment, (requests[pos], j, order)))
                order += 1
                if order == n:
                    return plan
            # Queue j's head is committed (by j just now, or earlier by
            # another machine): move its cursor to the next uncommitted
            # row.  Some row is still uncommitted, and every queue holds
            # every row, so the queue has one to give.
            rows = q_rows[j]
            at = q_at[j] + 1
            end = len(rows)
            while at < end and committed[rows[at]]:
                at += 1
            if at == end:
                # Past the block: read raw blocks until one keeps a row
                # that is still uncommitted, dropping the committed ones.
                lo = q_next[j]
                while True:
                    picked = orders[j, lo : lo + block]
                    live = ~done[picked]
                    rows = picked[live].tolist()
                    if rows:
                        break
                    lo += block
                q_rows[j] = rows
                q_vals[j] = cols[j, lo : lo + block][live].tolist()
                q_next[j] = lo + block
                at = 0
            q_at[j] = at
            heapreplace(keys, (q_vals[j][at] + avail_f[j], rows[at], j))
