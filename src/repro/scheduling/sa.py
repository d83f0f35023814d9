"""Switching algorithm (SA) baseline from [10].

Alternates between MET (good task-machine affinity, poor balance) and MCT
(good balance) based on the observed *load-balance index*

    ``r = min(avail) / max(avail)  ∈ [0, 1]``

When the system is well balanced (``r`` rises past :data:`BALANCE_HIGH`),
SA switches to MET to exploit affinity; when imbalance grows (``r`` falls
below :data:`BALANCE_LOW`), it switches back to MCT to restore balance.
"""

from __future__ import annotations

import numpy as np

from repro.grid.request import Request
from repro.scheduling.base import ImmediateHeuristic, check_avail
from repro.scheduling.costs import CostProvider
from repro.scheduling.mct import MctHeuristic
from repro.scheduling.met import MetHeuristic

__all__ = ["SwitchingHeuristic"]

#: Load-balance index below which SA switches to MCT.
BALANCE_LOW = 0.6
#: Load-balance index above which SA switches to MET.
BALANCE_HIGH = 0.9


class SwitchingHeuristic(ImmediateHeuristic):
    """MET/MCT switcher driven by the load-balance index."""

    name = "sa"

    def __init__(self) -> None:
        self._mct = MctHeuristic()
        self._met = MetHeuristic()
        self._using_met = False

    def choose(self, request: Request, costs: CostProvider, avail: np.ndarray) -> int:
        avail = check_avail(avail, costs.grid.n_machines)
        max_avail = float(avail.max())
        ratio = 1.0 if max_avail == 0.0 else float(avail.min()) / max_avail
        if self._using_met and ratio < BALANCE_LOW:
            self._using_met = False
        elif not self._using_met and ratio > BALANCE_HIGH:
            self._using_met = True
        active = self._met if self._using_met else self._mct
        return active.choose(request, costs, avail)
