"""Sufferage batch heuristic.

"Better mappings can be generated by assigning a machine to a task that
would 'suffer' most in terms of expected completion time if that particular
machine is not assigned to it."  (Section 4.1)

The iteration structure follows [10] and the paper's own description: within
one iteration the algorithm walks the unassigned requests; each request
tentatively claims its best machine; if the machine is already claimed, the
request with the larger *sufferage* (second-best completion minus best
completion) keeps the claim and the loser "will not be considered again for
execution until the next iteration".  All surviving claims are then
committed, machine availabilities updated, and a new iteration begins.

:class:`SufferageHeuristic` runs each iteration as one partition and two
lexsorts.  :func:`sufferage_reference_plan` is the scalar walk above: an
unregistered oracle that the equivalence suite and the kernel bench hold
the kernel to, bit-for-bit — in particular its never-displaced NaN first
claimant (NaN comparisons are False).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.grid.request import Request
from repro.scheduling.base import BatchHeuristic, PlannedAssignment, check_avail
from repro.scheduling.costs import CostProvider

__all__ = ["SufferageHeuristic", "sufferage_reference_plan"]


def _best_two(completion_row: np.ndarray) -> tuple[int, float, float]:
    """Best machine, best completion, second-best completion for one row.

    Tie-breaks are pinned (and frozen by the golden tie-break tests): the
    best machine is the *lowest-index* argmin, and the second-best value is
    the second order statistic of the row — so two machines tied at the
    minimum give a sufferage of zero.  With a single machine the second-best
    equals the best (sufferage 0).
    """
    if completion_row.shape[0] == 1:
        value = float(completion_row[0])
        return 0, value, value
    machine = int(np.argmin(completion_row))
    second = float(np.partition(completion_row, 1)[1])
    return machine, float(completion_row[machine]), second


def sufferage_reference_plan(
    requests: Sequence[Request],
    costs: CostProvider,
    avail: np.ndarray,
) -> list[PlannedAssignment]:
    """Iterative tentative-claim Sufferage mapping (reference oracle).

    Never optimised: :class:`SufferageHeuristic` is proven bit-identical to
    it.  Its deterministic tie-breaks are part of the contract: requests
    are visited in ascending position order, a claim is only replaced by a
    *strictly* larger sufferage, and surviving claims are committed in
    ascending machine order.
    """
    avail = check_avail(avail, costs.grid.n_machines).copy()
    if not requests:
        return []

    ecc = BatchHeuristic.mapping_matrix(requests, costs)
    remaining = set(range(len(requests)))
    plan: list[PlannedAssignment] = []

    while remaining:
        # machine -> (request position, sufferage, best completion)
        claims: dict[int, tuple[int, float, float]] = {}
        for pos in sorted(remaining):
            completion = ecc[pos] + avail
            machine, best, second = _best_two(completion)
            sufferage = second - best
            holder = claims.get(machine)
            if holder is None or sufferage > holder[1]:
                claims[machine] = (pos, sufferage, best)

        for machine, (pos, _suff, best) in sorted(claims.items()):
            avail[machine] = best
            remaining.discard(pos)
            plan.append(PlannedAssignment(requests[pos], machine, len(plan)))
    return plan


class SufferageHeuristic(BatchHeuristic):
    """Sufferage with one partition and one lexsort per iteration.

    Best and second-best completions for all remaining rows come from one
    :func:`numpy.partition` over the live submatrix, and per-machine claim
    resolution is a single lexsort instead of a Python walk over rows.
    """

    name = "sufferage"

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

            # The oracle walks positions in ascending order and replaces a
            # machine's claim only on *strictly* greater sufferage, i.e. the
            # winner is the earliest position attaining the group's maximal
            # sufferage — except that a NaN first claimant is never replaced
            # (NaN comparisons are False), so it wins outright.
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
            # winners in array order reproduces the oracle's
            # sorted-by-machine commit order.
            for winner in winners:
                machine = int(best_machine[winner])
                avail[machine] = float(best[winner])
                plan.append(
                    PlannedAssignment(
                        requests[int(remaining[winner])], machine, len(plan)
                    )
                )
            taken = np.zeros(k, dtype=bool)
            taken[winners] = True
            remaining = remaining[~taken]
        return plan
