"""Expected-execution-cost (EEC) matrix generation.

:func:`range_based_matrix` is the method of the paper's reference [10]:
``EEC[i, j] = U(1, φ_task)_i × U(1, φ_machine)_{ij}`` where the first
factor is drawn once per task and the second per entry, then restructured
for the requested consistency.  This is what the Table 4–9 reproductions
use.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.consistency import Consistency, apply_consistency
from repro.workloads.heterogeneity import Heterogeneity

__all__ = ["range_based_matrix"]


def _check_dims(n_tasks: int, n_machines: int) -> None:
    if n_tasks < 1 or n_machines < 1:
        raise WorkloadError(
            f"matrix dimensions must be positive, got {n_tasks}x{n_machines}"
        )


def range_based_matrix(
    n_tasks: int,
    n_machines: int,
    heterogeneity: Heterogeneity,
    rng: np.random.Generator,
    *,
    consistency: Consistency = Consistency.INCONSISTENT,
) -> np.ndarray:
    """Generate an EEC matrix with the range-based method of [10].

    Args:
        n_tasks: number of rows.
        n_machines: number of columns.
        heterogeneity: the (task, machine) range pair.
        rng: random stream.
        consistency: structural class applied after generation.

    Returns:
        A strictly positive ``(n_tasks, n_machines)`` float array.
    """
    _check_dims(n_tasks, n_machines)
    task_factor = rng.uniform(1.0, heterogeneity.task_range, size=(n_tasks, 1))
    entry_factor = rng.uniform(
        1.0, heterogeneity.machine_range, size=(n_tasks, n_machines)
    )
    return apply_consistency(task_factor * entry_factor, consistency)

