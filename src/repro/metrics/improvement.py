"""Improvement computation — the last column of Tables 4–9.

The paper reports the relative reduction in average completion time gained
by making the heuristic trust-aware:

    ``improvement = (CT_unaware − CT_aware) / CT_unaware``
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.scheduling.result import ScheduleResult

__all__ = ["improvement_fraction", "PairedComparison"]


def improvement_fraction(unaware_value: float, aware_value: float) -> float:
    """Relative reduction of ``aware_value`` against ``unaware_value``.

    Positive when the trust-aware run is better (smaller).

    Raises:
        ConfigurationError: if the baseline is not positive.
    """
    if unaware_value <= 0:
        raise ConfigurationError(
            f"unaware_value (the baseline) must be positive, got {unaware_value!r}"
        )
    return (unaware_value - aware_value) / unaware_value


@dataclass(frozen=True)
class PairedComparison:
    """A trust-aware vs trust-unaware pair on the same workload.

    Attributes:
        aware: result of the trust-aware run.
        unaware: result of the trust-unaware run on the identical scenario.
    """

    aware: ScheduleResult
    unaware: ScheduleResult

    def __post_init__(self) -> None:
        if self.aware.heuristic != self.unaware.heuristic:
            raise ConfigurationError(
                "aware and unaware runs must use the same heuristic, got "
                f"{self.aware.heuristic!r} vs {self.unaware.heuristic!r}"
            )
        if len(self.aware.records) != len(self.unaware.records):
            raise ConfigurationError(
                "aware and unaware runs must cover the same request set, got "
                f"{len(self.aware.records)} vs {len(self.unaware.records)} records"
            )

    @property
    def completion_improvement(self) -> float:
        """Improvement in average completion time (the paper's column)."""
        return improvement_fraction(
            self.unaware.average_completion_time,
            self.aware.average_completion_time,
        )
