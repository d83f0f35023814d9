"""Arrival processes.

The paper's simulations model request arrivals "using a Poisson random
process" — i.e. exponentially distributed inter-arrival times.  The
:class:`PoissonProcess` here produces that stream; :class:`BatchArrivalProcess`
(all at once) exists for tests and ablations.

Arrival processes are plain iterators over arrival *times*; wiring them to
kernel events is the scheduler driver's job.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "BatchArrivalProcess",
]


class ArrivalProcess(ABC):
    """Generates a non-decreasing sequence of arrival times."""

    @abstractmethod
    def times(self, count: int) -> np.ndarray:
        """Return the first ``count`` arrival times as a float array.

        Times are non-negative and non-decreasing.

        Raises:
            ConfigurationError: if ``count`` is negative.
        """

    @staticmethod
    def _check_count(count: int) -> int:
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count!r}")
        return count


@dataclass
class PoissonProcess(ArrivalProcess):
    """Poisson arrivals with the given rate (requests per time unit).

    Attributes:
        rate: arrival intensity λ; mean inter-arrival time is ``1 / rate``.
        rng: the random stream to draw from.
        start: offset added to every arrival time (default 0).
    """

    rate: float
    rng: np.random.Generator
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate!r}")
        if self.start < 0:
            raise ConfigurationError(f"start must be non-negative, got {self.start!r}")

    def times(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        gaps = self.rng.exponential(scale=1.0 / self.rate, size=count)
        return self.start + np.cumsum(gaps)


@dataclass
class BatchArrivalProcess(ArrivalProcess):
    """All requests arrive simultaneously at ``at`` (a pure batch workload)."""

    at: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError(f"at must be non-negative, got {self.at!r}")

    def times(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        return np.full(count, self.at, dtype=np.float64)
