"""Duplex baseline from [10].

Runs Min-min and Max-min (their production kernels) on the same
meta-request and keeps whichever plan achieves the smaller believed
makespan — cheap insurance against the cases where either greedy direction
degenerates.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.grid.request import Request
from repro.scheduling.base import BatchHeuristic, PlannedAssignment, check_avail
from repro.scheduling.costs import CostProvider
from repro.scheduling.maxmin import MaxMinHeuristic
from repro.scheduling.minmin import MinMinHeuristic

__all__ = ["DuplexHeuristic"]


class DuplexHeuristic(BatchHeuristic):
    """Best-of(Min-min, Max-min) by believed makespan."""

    name = "duplex"

    def __init__(self) -> None:
        self._minmin = MinMinHeuristic()
        self._maxmin = MaxMinHeuristic()

    def plan(
        self,
        requests: Sequence[Request],
        costs: CostProvider,
        avail: np.ndarray,
    ) -> list[PlannedAssignment]:
        avail = check_avail(avail, costs.grid.n_machines)
        plan_min = self._minmin.plan(requests, costs, avail)
        plan_max = self._maxmin.plan(requests, costs, avail)
        ecc = costs.mapping_ecc_matrix(requests)
        position = {request.index: pos for pos, request in enumerate(requests)}
        if self._believed_makespan(plan_min, ecc, position, avail) <= (
            self._believed_makespan(plan_max, ecc, position, avail)
        ):
            return plan_min
        return plan_max

    @staticmethod
    def _believed_makespan(
        plan: list[PlannedAssignment],
        ecc: np.ndarray,
        position: dict[int, int],
        avail: np.ndarray,
    ) -> float:
        alphas = np.array(avail, dtype=np.float64, copy=True)
        rows = [position[item.request.index] for item in plan]
        machines = [item.machine_index for item in plan]
        # Unbuffered, in plan order: the same float sums as booking the
        # plan one assignment at a time.
        np.add.at(alphas, machines, ecc[rows, machines])
        return float(alphas.max()) if alphas.size else 0.0
