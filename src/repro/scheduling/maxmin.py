"""Max-min baseline from [10].

Identical machinery to Min-min, but each round commits the request whose
*best* completion cost is *largest* — run the long tasks early so short ones
can fill the gaps.  Often better than Min-min when a few tasks dominate the
workload, worse on uniform ones; Duplex runs both and keeps the winner.

This scalar loop is the frozen oracle for the production kernel
(:class:`~repro.scheduling.fast.FastMaxMinHeuristic`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.grid.request import Request
from repro.scheduling.base import BatchHeuristic, PlannedAssignment
from repro.scheduling.costs import CostProvider
from repro.scheduling.minmin import greedy_min_completion_plan

__all__ = ["MaxMinHeuristic"]


class MaxMinHeuristic(BatchHeuristic):
    """Commit, each round, the request with the largest best-completion."""

    name = "max-min"

    def plan(
        self,
        requests: Sequence[Request],
        costs: CostProvider,
        avail: np.ndarray,
    ) -> list[PlannedAssignment]:
        return greedy_min_completion_plan(requests, costs, avail, prefer_max=True)
