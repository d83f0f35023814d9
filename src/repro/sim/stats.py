"""Online statistics accumulator.

A single-pass, numerically stable (Welford) accumulator used by the
experiment runner and the calibration study, so long simulations never
need to retain per-sample arrays unless a caller asks for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["RunningStats"]


@dataclass
class RunningStats:
    """Welford accumulator for count / mean / variance / extrema."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the statistics."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def extend(self, values) -> None:
        """Fold an iterable of samples."""
        for v in values:
            self.add(float(v))

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0 for fewer than two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def stderr(self) -> float:
        """Standard error of the mean; 0 for fewer than two samples."""
        if self.count < 2:
            return 0.0
        return self.stddev / math.sqrt(self.count)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI around the mean (default 95%)."""
        half = z * self.stderr
        return (self.mean - half, self.mean + half)
