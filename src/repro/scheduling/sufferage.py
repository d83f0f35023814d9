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

This scalar walk is the frozen oracle for the production kernel
(:class:`~repro.scheduling.fast.FastSufferageHeuristic`) — in particular
its never-displaced NaN first claimant (NaN comparisons are False) is
behaviour the kernel must reproduce.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.grid.request import Request
from repro.scheduling.base import BatchHeuristic, PlannedAssignment, check_avail
from repro.scheduling.costs import CostProvider

__all__ = ["SufferageHeuristic"]


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


class SufferageHeuristic(BatchHeuristic):
    """Iterative tentative-claim Sufferage mapping (reference kernel).

    This is the *reference oracle* the production kernel
    :class:`~repro.scheduling.fast.FastSufferageHeuristic` is proven
    bit-identical to.  Its deterministic tie-breaks are part of the
    contract: requests are visited in ascending position order, a claim is
    only replaced by a *strictly* larger sufferage, and surviving claims
    are committed in ascending machine order.
    """

    name = "sufferage"

    def plan(
        self,
        requests: Sequence[Request],
        costs: CostProvider,
        avail: np.ndarray,
    ) -> list[PlannedAssignment]:
        avail = check_avail(avail, costs.grid.n_machines).copy()
        if not requests:
            return []

        ecc = self.mapping_matrix(requests, costs)
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
                plan.append(
                    PlannedAssignment(
                        request=requests[pos], machine_index=machine, order=len(plan)
                    )
                )
        return plan
