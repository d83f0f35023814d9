"""Heterogeneity classes for expected-execution-cost matrices.

Section 5.3 characterises an ECC matrix by the variation along its rows
(*machine heterogeneity*) and columns (*task heterogeneity*), and evaluates
on the *LoLo* class (low task, low machine heterogeneity) in consistent and
inconsistent flavours.

The generation recipe follows the paper's reference [10] (Maheswaran et al.,
JPDC 1999): an EEC entry is the product of a per-task uniform draw from
``[1, φ_task]`` and a per-entry uniform draw from ``[1, φ_machine]``, with
``φ`` = 100 / 3000 for low / high task heterogeneity and 10 / 1000 for low /
high machine heterogeneity.  All four combinations are provided so sweeps
beyond the paper's LoLo are possible.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Heterogeneity", "LOLO", "LOHI", "HILO", "HIHI", "BY_NAME"]

_TASK_LOW = 100.0
_TASK_HIGH = 3000.0
_MACHINE_LOW = 10.0
_MACHINE_HIGH = 1000.0


@dataclass(frozen=True, slots=True)
class Heterogeneity:
    """One heterogeneity class.

    Attributes:
        name: canonical name, e.g. ``"LoLo"``.
        task_range: upper bound ``φ_task`` of the per-task uniform draw.
        machine_range: upper bound ``φ_machine`` of the per-entry draw.
    """

    name: str
    task_range: float
    machine_range: float

    def __post_init__(self) -> None:
        if self.task_range < 1 or self.machine_range < 1:
            raise ValueError("heterogeneity ranges must be >= 1")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


#: Low task, low machine heterogeneity — the class evaluated in the paper.
LOLO = Heterogeneity("LoLo", _TASK_LOW, _MACHINE_LOW)
#: Low task, high machine heterogeneity.
LOHI = Heterogeneity("LoHi", _TASK_LOW, _MACHINE_HIGH)
#: High task, low machine heterogeneity.
HILO = Heterogeneity("HiLo", _TASK_HIGH, _MACHINE_LOW)
#: High task, high machine heterogeneity.
HIHI = Heterogeneity("HiHi", _TASK_HIGH, _MACHINE_HIGH)

BY_NAME: dict[str, Heterogeneity] = {
    h.name.lower(): h for h in (LOLO, LOHI, HILO, HIHI)
}
