"""Min-min (and the shared greedy oracle for Max-min).

"Min-min begins by scheduling the tasks that change the expected machine
available time by the least amount."  (Section 4.1)

Each round computes, for every unassigned request, its best (minimum)
completion cost over all machines, then commits the request whose best
completion is smallest (Min-min) or largest (Max-min), updates the chosen
machine's availability, and repeats until the meta-request is exhausted.

:class:`MinMinHeuristic` runs this as per-machine sorted claim queues.
:func:`greedy_min_completion_plan` is the scalar transcription of the
rounds above: an unregistered oracle that the equivalence suite and the
kernel bench hold the production kernels to, bit-for-bit, including the
lowest-index tie-breaks.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.grid.request import Request
from repro.scheduling.base import BatchHeuristic, PlannedAssignment, check_avail
from repro.scheduling.costs import CostProvider

__all__ = ["MinMinHeuristic", "greedy_min_completion_plan"]


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
        plan.append(
            PlannedAssignment(
                request=requests[req_pos], machine_index=machine, order=len(plan)
            )
        )
    return plan


class MinMinHeuristic(BatchHeuristic):
    """Min-min as per-machine sorted claim queues: O(m) per round.

    Each machine's queue holds every row sorted by its *static*
    ``ecc[row, machine]``, so a whole queue's current completions are one
    shared ``+ avail[machine]`` away and no entry is ever re-priced when
    availability moves: O(nm log n) total work.  The columns are filled
    from the streaming
    :meth:`~repro.scheduling.costs.CostProvider.mapping_ecc_chunks`
    assembly, so no row-major ``(n, m)`` matrix exists; this is the
    10⁶-task path.

    Correctness: the global minimum completion over all (row, machine)
    pairs is attained by the winning row *on its own first-argmin
    machine*, so the lexicographic minimum over machines of (candidate
    value, candidate position, machine index) — candidate = first
    uncommitted row in static per-column order — is exactly the oracle's
    (lowest best, lowest position, first-argmin) commit.  Ties inside a
    column surface lowest-position-first via the stable sort; ties across
    columns resolve by position then machine index.
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
        orders = np.argsort(cols, axis=1, kind="stable")
        # Queue j occupies flat slots [j*n, (j+1)*n) of both arrays; the
        # values stay unsorted and are read at ``j*n + row``.
        order_flat = orders.ravel()
        ecc_flat = cols.ravel()

        committed = bytearray(n)
        ptr = list(range(0, m * n, n))
        avail_f = avail.tolist()
        # Nothing is committed yet: every queue's candidate is its head.
        heads = orders[:, 0]
        cand_pos = heads.tolist()
        cand_val = (cols[np.arange(m), heads] + avail).tolist()

        plan: list[PlannedAssignment] = []
        for _ in range(n):
            win_v = 0.0
            win_p = -1
            win_j = -1
            for j in range(m):
                p = cand_pos[j]
                if p < 0:
                    continue
                v = cand_val[j]
                if win_p < 0 or v < win_v or (v == win_v and p < win_p):
                    win_v, win_p, win_j = v, p, j
            committed[win_p] = 1
            avail_f[win_j] = win_v
            plan.append(
                PlannedAssignment(
                    request=requests[win_p], machine_index=win_j, order=len(plan)
                )
            )
            for j in range(m):
                if cand_pos[j] != win_p and j != win_j:
                    continue
                # Advance queue j past committed rows and refresh its candidate.
                p = ptr[j]
                end = (j + 1) * n
                while p < end and committed[order_flat[p]]:
                    p += 1
                ptr[j] = p
                if p == end:
                    cand_pos[j] = -1
                else:
                    row = int(order_flat[p])
                    cand_pos[j] = row
                    cand_val[j] = float(ecc_flat[j * n + row]) + avail_f[j]
        return plan
