"""Production kernels for the batch mapping heuristics.

Every batch heuristic has exactly two implementations: the reference loop
in its own module (:mod:`~repro.scheduling.minmin`,
:mod:`~repro.scheduling.maxmin`, :mod:`~repro.scheduling.sufferage`),
which transcribes the paper's algorithm and is never optimised, and one
production kernel here.  The production kernel must produce plans
**bit-identical** to the reference — same assignments, same order, same
tie-breaks — and stays in the registry only while it is measurably
faster:

* :class:`FastMinMinHeuristic` — per-machine sorted claim queues over the
  streaming :meth:`~repro.scheduling.costs.CostProvider.mapping_ecc_chunks`
  assembly.  Keying each machine's queue by the *static*
  ``ecc[row, machine]`` makes a whole queue's current completions one
  shared ``+ avail[machine]`` away, so no entry is ever re-priced when
  availability moves: O(nm log n) total work, O(m) per round.  This is
  the 10⁶-task path.
* :class:`FastMaxMinHeuristic` — incremental greedy rounds: each row's
  (best machine, best completion) is kept across rounds and only the rows
  whose best sat on the committed machine are re-minimised.  Max-min does
  not decompose into per-machine queues (the max of row minima is not
  readable from column tops).
* :class:`FastSufferageHeuristic` — best/second-best completions for all
  remaining rows via one :func:`numpy.partition` over the live
  submatrix, with per-machine claim resolution done by a single lexsort
  instead of a Python loop over machines.

The references stay reachable as ``_reference_plan`` oracles, and the
equivalence suite ``tests/scheduling/test_fast_equivalence.py`` checks
every kernel against them.  Wall times are measured by
``benchmarks/bench_sched_kernel.py`` and recorded in ``BENCH_sched.json``.
The kernels register under ``"min-min-fast"`` / ``"max-min-fast"`` /
``"sufferage-fast"`` and carry ``kernel = "vectorized"``, the label of
their ``sched.map_latency_s`` histograms.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.grid.request import Request
from repro.scheduling.base import BatchHeuristic, PlannedAssignment, check_avail
from repro.scheduling.costs import CostProvider
from repro.scheduling.maxmin import MaxMinHeuristic
from repro.scheduling.minmin import MinMinHeuristic
from repro.scheduling.sufferage import SufferageHeuristic

__all__ = [
    "FastMinMinHeuristic",
    "FastMaxMinHeuristic",
    "FastSufferageHeuristic",
]


def _sorted_column_min_plan(
    requests: Sequence[Request],
    costs: CostProvider,
    avail: np.ndarray,
) -> list[PlannedAssignment]:
    """Min-min as per-machine sorted claim queues — zero re-pricing.

    Correctness: the global minimum completion over all (row, machine)
    pairs is attained by the winning row *on its own first-argmin
    machine*, so the lexicographic minimum over machines of (candidate
    value, candidate position, machine index) — candidate = first
    uncommitted row in static per-column order — is exactly the
    reference's (lowest best, lowest position, first-argmin) commit.
    Ties inside a column surface lowest-position-first via the stable
    sort; ties across columns resolve by position then machine index.
    """
    avail = check_avail(avail, costs.grid.n_machines)
    n = len(requests)
    if n == 0:
        return []
    m = costs.grid.n_machines
    # Transpose the streaming chunks into per-machine columns; no dense
    # row-major matrix (nor the one-shot assembly intermediates) exists.
    cols: list[np.ndarray] = [np.empty(n, dtype=np.float64) for _ in range(m)]
    for start, chunk in costs.mapping_ecc_chunks(requests):
        stop = start + chunk.shape[0]
        for j in range(m):
            cols[j][start:stop] = chunk[:, j]
    orders: list[np.ndarray] = []
    for j in range(m):
        idx = np.argsort(cols[j], kind="stable")
        cols[j] = cols[j][idx]
        orders.append(idx)

    committed = bytearray(n)
    ptr = [0] * m
    avail_f = [float(avail[j]) for j in range(m)]
    cand_pos = [-1] * m
    cand_val = [0.0] * m

    def reload(j: int) -> None:
        """Advance machine j past committed rows and refresh its candidate."""
        p = ptr[j]
        order = orders[j]
        while p < n and committed[order[p]]:
            p += 1
        ptr[j] = p
        if p == n:
            cand_pos[j] = -1
        else:
            cand_pos[j] = int(order[p])
            cand_val[j] = float(cols[j][p]) + avail_f[j]

    for j in range(m):
        reload(j)

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
            if cand_pos[j] == win_p or j == win_j:
                reload(j)
    return plan


def _incremental_max_plan(
    requests: Sequence[Request],
    costs: CostProvider,
    avail: np.ndarray,
) -> list[PlannedAssignment]:
    """Incremental Max-min rounds, bit-identical to the reference.

    Invariant: for every live row, the stored ``(best_machine, best_value)``
    equals a fresh first-index argmin over its current completion row.
    Committing a request only *raises* the chosen machine's availability
    (completions are strictly positive), so rows whose best sits elsewhere
    keep their argmin — only the rows pointing at the committed machine's
    column are re-minimised.  Request selection scans the live positions in
    ascending order, reproducing the reference's first-index tie-break over
    its (always ascending) ``remaining`` list.
    """
    avail = check_avail(avail, costs.grid.n_machines).copy()
    n = len(requests)
    if n == 0:
        return []

    # No completion matrix is maintained: affected rows are re-priced from
    # ``ecc`` plus the *current* avail vector, which is exactly the fresh
    # per-round completion the reference computes.  The equality scratch
    # buffer is hoisted out of the loop (the rounds are numpy-call-overhead
    # bound).
    ecc = costs.mapping_ecc_matrix(requests)
    completion = ecc + avail[None, :]
    on_machine = np.empty(n, dtype=bool)
    positions = np.arange(n)
    best_machine = completion.argmin(axis=1)
    best_value = completion[positions, best_machine]
    del completion
    # Committed rows are retired in place: the selection key is pinned to
    # -inf and the machine to -1.  No live completion is ever -inf, so
    # retired rows cannot win a pick and never match a committed column.
    plan: list[PlannedAssignment] = []

    for order in range(n):
        pick = int(best_value.argmax())
        machine = int(best_machine[pick])
        new_avail = float(best_value[pick])
        best_value[pick] = -np.inf
        best_machine[pick] = -1
        plan.append(PlannedAssignment(requests[pick], machine, order))
        if order == n - 1:
            break
        avail[machine] = new_avail
        np.equal(best_machine, machine, out=on_machine)
        affected = on_machine.nonzero()[0]
        if affected.size:
            sub = ecc.take(affected, axis=0)
            sub += avail
            refreshed = sub.argmin(axis=1)
            best_machine[affected] = refreshed
            best_value[affected] = sub[positions[: affected.size], refreshed]
    return plan


class FastMinMinHeuristic(BatchHeuristic):
    """Sorted-claim-queue Min-min: identical plans, O(m) per round."""

    name = "min-min-fast"
    kernel = "vectorized"

    def plan(
        self,
        requests: Sequence[Request],
        costs: CostProvider,
        avail: np.ndarray,
    ) -> list[PlannedAssignment]:
        return _sorted_column_min_plan(requests, costs, avail)

    @staticmethod
    def _reference_plan(requests, costs, avail) -> list[PlannedAssignment]:
        """Oracle: the reference loop this kernel must match bit-for-bit."""
        return MinMinHeuristic().plan(requests, costs, avail)


class FastMaxMinHeuristic(BatchHeuristic):
    """Incremental vectorised Max-min: only stale rows are re-minimised."""

    name = "max-min-fast"
    kernel = "vectorized"

    def plan(
        self,
        requests: Sequence[Request],
        costs: CostProvider,
        avail: np.ndarray,
    ) -> list[PlannedAssignment]:
        return _incremental_max_plan(requests, costs, avail)

    @staticmethod
    def _reference_plan(requests, costs, avail) -> list[PlannedAssignment]:
        """Oracle: the reference loop this kernel must match bit-for-bit."""
        return MaxMinHeuristic().plan(requests, costs, avail)


class FastSufferageHeuristic(BatchHeuristic):
    """Vectorised Sufferage: one partition + one lexsort per iteration."""

    name = "sufferage-fast"
    kernel = "vectorized"

    def plan(
        self,
        requests: Sequence[Request],
        costs: CostProvider,
        avail: np.ndarray,
    ) -> list[PlannedAssignment]:
        avail = check_avail(avail, costs.grid.n_machines).copy()
        n = len(requests)
        if n == 0:
            return []

        ecc = costs.mapping_ecc_matrix(requests)
        n_machines = ecc.shape[1]
        remaining = np.arange(n)
        plan: list[PlannedAssignment] = []

        while remaining.size:
            rows = ecc[remaining] + avail[None, :]
            k = rows.shape[0]
            positions = np.arange(k)
            best_machine = np.argmin(rows, axis=1)
            best = rows[positions, best_machine]
            if n_machines == 1:
                second = best
            else:
                second = np.partition(rows, 1, axis=1)[:, 1]
            with np.errstate(invalid="ignore"):
                sufferage = second - best  # NaN only for all-inf (rejected) rows

            # The reference walks positions in ascending order and replaces
            # a machine's claim only on *strictly* greater sufferage, i.e.
            # the winner is the earliest position attaining the group's
            # maximal sufferage — except that a NaN first claimant is never
            # replaced (NaN comparisons are False), so it wins outright.
            suff_key = np.where(np.isnan(sufferage), -np.inf, sufferage)
            by_suff = np.lexsort((positions, -suff_key, best_machine))
            by_pos = np.lexsort((positions, best_machine))
            group_start = np.ones(k, dtype=bool)
            group_start[1:] = best_machine[by_suff[1:]] != best_machine[by_suff[:-1]]
            winners = by_suff[group_start]
            group_start[1:] = best_machine[by_pos[1:]] != best_machine[by_pos[:-1]]
            first_claimants = by_pos[group_start]
            winners = np.where(
                np.isnan(sufferage[first_claimants]), first_claimants, winners
            )

            # Both lexsorts group machines in ascending order, so committing
            # winners in array order reproduces the reference's
            # sorted-by-machine commit order.
            for winner in winners:
                machine = int(best_machine[winner])
                avail[machine] = float(best[winner])
                plan.append(
                    PlannedAssignment(
                        request=requests[int(remaining[winner])],
                        machine_index=machine,
                        order=len(plan),
                    )
                )
            taken = np.zeros(k, dtype=bool)
            taken[winners] = True
            remaining = remaining[~taken]
        return plan

    @staticmethod
    def _reference_plan(requests, costs, avail) -> list[PlannedAssignment]:
        """Oracle: the reference loop this kernel must match bit-for-bit."""
        return SufferageHeuristic().plan(requests, costs, avail)
