"""Heuristic interfaces and assignment records.

Two mapping modes, following [10] and Section 4.1:

* **immediate (on-line) mode** — each request is mapped the moment it
  arrives; the heuristic sees one request and the machines' effective
  availability vector and picks a machine (:class:`ImmediateHeuristic`);
* **batch mode** — requests collected over an interval form a meta-request
  that is mapped as a whole; the heuristic returns an *ordered plan*
  (:class:`BatchHeuristic`), which the scheduler then executes.

Heuristics reason over the costs the scheduler *believes*
(:meth:`CostProvider.mapping_ecc_row`); realised execution is the
scheduler's job, keeping the belief/reality distinction of Section 5.3 in
exactly one place.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import NoFeasibleMachineError
from repro.grid.request import Request
from repro.scheduling.costs import CostProvider

__all__ = ["PlannedAssignment", "ImmediateHeuristic", "BatchHeuristic", "check_avail"]


@dataclass(frozen=True, slots=True)
class PlannedAssignment:
    """One request→machine decision inside a batch plan.

    Attributes:
        request: the mapped request.
        machine_index: the chosen machine.
        order: position in the plan's execution order (0-based); the
            scheduler books work in this order so the heuristic's internal
            availability model and the realised one stay aligned.
    """

    request: Request
    machine_index: int
    order: int


def check_avail(avail: np.ndarray, n_machines: int) -> np.ndarray:
    """Validate an availability vector (shape, non-negativity)."""
    avail = np.asarray(avail, dtype=np.float64)
    if avail.shape != (n_machines,):
        raise NoFeasibleMachineError(
            f"availability vector has shape {avail.shape}, expected ({n_machines},)"
        )
    if n_machines == 0:
        raise NoFeasibleMachineError("no machines to map onto")
    if (avail < 0).any():
        raise NoFeasibleMachineError("availability times must be non-negative")
    return avail


class ImmediateHeuristic(ABC):
    """On-line mapping: one request, one decision."""

    #: Short registry name, e.g. ``"mct"``.
    name: str = "immediate"

    @abstractmethod
    def choose(
        self, request: Request, costs: CostProvider, avail: np.ndarray
    ) -> int:
        """Pick the machine for ``request``.

        Args:
            request: the arriving request.
            costs: the cost provider (mapping rows reflect the trust policy).
            avail: effective availability per machine —
                ``max(α_i, arrival time)`` precomputed by the scheduler.

        Returns:
            The chosen machine index.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class BatchHeuristic(ABC):
    """Batch mapping: a meta-request in, an ordered plan out."""

    #: Short registry name, e.g. ``"min-min"``.
    name: str = "batch"

    @abstractmethod
    def plan(
        self,
        requests: Sequence[Request],
        costs: CostProvider,
        avail: np.ndarray,
    ) -> list[PlannedAssignment]:
        """Map every request of the meta-request.

        Args:
            requests: the batch members (all already arrived).
            costs: the cost provider.
            avail: effective availability per machine at batch-formation
                time — ``max(α_i, now)``.

        Returns:
            A plan covering *all* requests, ordered by assignment decision.
        """

    @staticmethod
    def mapping_matrix(
        requests: Sequence[Request], costs: CostProvider
    ) -> np.ndarray:
        """Stack the believed ECC rows of ``requests`` into a matrix.

        Rows follow the order of ``requests``; columns are machines.  This
        is the *reference* row-by-row assembly, kept as the oracle the
        vectorised :meth:`CostProvider.mapping_ecc_matrix` is equivalence-
        tested against and used by the scalar oracle loops; the registered
        heuristics call the batched path instead.
        """
        if not requests:
            return np.zeros((0, costs.grid.n_machines), dtype=np.float64)
        return np.stack([costs.mapping_ecc_row(r) for r in requests])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
