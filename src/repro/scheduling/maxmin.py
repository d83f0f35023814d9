"""Max-min baseline from [10].

Identical machinery to Min-min, but each round commits the request whose
*best* completion cost is *largest* — run the long tasks early so short ones
can fill the gaps.  Often better than Min-min when a few tasks dominate the
workload, worse on uniform ones; Duplex runs both and keeps the winner.

:class:`MaxMinHeuristic` runs the rounds incrementally; its oracle is the
scalar loop :func:`~repro.scheduling.minmin.greedy_min_completion_plan`
with ``prefer_max=True``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.grid.request import Request
from repro.scheduling.base import BatchHeuristic, PlannedAssignment, check_avail
from repro.scheduling.costs import CostProvider

__all__ = ["MaxMinHeuristic"]


class MaxMinHeuristic(BatchHeuristic):
    """Commit, each round, the request with the largest best-completion.

    Incremental rounds: each row's (best machine, best completion) is kept
    across rounds and only the rows whose best sat on the committed machine
    are re-minimised.  Max-min does not decompose into per-machine claim
    queues like Min-min (the max of row minima is not readable from column
    tops).

    Invariant: for every live row, the stored ``(best_machine, best_value)``
    equals a fresh first-index argmin over its current completion row.
    Committing a request only *raises* the chosen machine's availability
    (completions are strictly positive), so rows whose best sits elsewhere
    keep their argmin.  Request selection scans the live positions in
    ascending order, reproducing the oracle's first-index tie-break over
    its (always ascending) ``remaining`` list.
    """

    name = "max-min"

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

        # No completion matrix is maintained: affected rows are re-priced
        # from ``ecc`` plus the *current* avail vector, which is exactly the
        # fresh per-round completion the oracle computes.  The equality
        # scratch buffer is hoisted out of the loop (the rounds are
        # numpy-call-overhead bound).
        ecc = costs.mapping_ecc_matrix(requests)
        completion = ecc + avail[None, :]
        on_machine = np.empty(n, dtype=bool)
        positions = np.arange(n)
        best_machine = completion.argmin(axis=1)
        best_value = completion[positions, best_machine]
        del completion
        # Committed rows are retired in place: the selection key is pinned
        # to -inf and the machine to -1.  No live completion is ever -inf,
        # so retired rows cannot win a pick and never match a committed
        # column.
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
