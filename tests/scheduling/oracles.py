"""The scalar oracle loops, keyed by the registry name they check.

Every registered batch heuristic runs its production kernel; the O(n²m)
transcriptions of the paper's loops stay in ``src/`` as plain functions.
This module pairs them with registry names, wraps them as
:class:`BatchHeuristic` objects where a test needs one (a full scheduler
run), and builds Duplex from them.
"""

from functools import partial

import numpy as np

from repro.scheduling.base import BatchHeuristic
from repro.scheduling.minmin import greedy_min_completion_plan
from repro.scheduling.sufferage import sufferage_reference_plan

ORACLE_PLANS = {
    "min-min": partial(greedy_min_completion_plan, prefer_max=False),
    "max-min": partial(greedy_min_completion_plan, prefer_max=True),
    "sufferage": sufferage_reference_plan,
}


class OracleHeuristic(BatchHeuristic):
    """A registry name's oracle loop behind the batch-heuristic interface."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._plan = ORACLE_PLANS[name]

    def plan(self, requests, costs, avail):
        return self._plan(requests, costs, avail)


def duplex_oracle_plan(requests, costs, avail):
    """Duplex from the two oracle loops, with a row-by-row believed makespan."""

    def believed_makespan(plan):
        alphas = np.array(avail, dtype=np.float64, copy=True)
        for item in plan:
            row = costs.mapping_ecc_row(item.request)
            alphas[item.machine_index] += float(row[item.machine_index])
        return float(alphas.max())

    plan_min = ORACLE_PLANS["min-min"](requests, costs, avail)
    plan_max = ORACLE_PLANS["max-min"](requests, costs, avail)
    if believed_makespan(plan_min) <= believed_makespan(plan_max):
        return plan_min
    return plan_max


def realized_ecc_row_oracle(costs, request):
    """Per-row realised cost of ``request`` on every machine.

    The row-by-row form of :meth:`CostProvider.realized_costs`: a request
    mapped under degraded pricing pays the blanket trust-unaware cost,
    every other request pays the policy's realised cost over its
    ground-truth TC row.
    """
    eec = costs.eec_row(request)
    if request.index in costs.degraded_requests:
        return eec + costs.policy.esc_unaware(eec)
    return costs.policy.realized_ecc(eec, costs.trust_cost_row(request))
