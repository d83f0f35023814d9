"""Ground-truth domain behaviour models.

The trust machinery *estimates* how trustworthy a domain is; to exercise it
(in simulations, examples and tests) something must define how domains
*actually* behave.  A :class:`BehaviorProfile` is that ground truth: a
time-varying distribution over transaction satisfaction for one domain.

Profiles are deliberately dynamic — the paper's definition of trust insists
the firm belief "is not a fixed value ... but rather it is subject to the
entity's behavior ... at a given time" — so besides stationary reliable and
flaky profiles there are degrading and oscillating ones, which let tests
check that decayed, evolving trust actually tracks behaviour changes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BehaviorProfile",
    "StationaryBehavior",
    "DegradingBehavior",
    "OscillatingBehavior",
    "FlipBehavior",
    "BehaviorModel",
]


class BehaviorProfile(ABC):
    """Ground-truth satisfaction distribution of one domain."""

    @abstractmethod
    def mean_at(self, time: float) -> float:
        """Expected satisfaction of a transaction completed at ``time``."""

    #: Standard deviation of the satisfaction noise around the mean.
    noise: float = 0.08

    def sample(self, time: float, rng: np.random.Generator) -> float:
        """Draw one satisfaction observation in ``[0, 1]``."""
        value = float(rng.normal(self.mean_at(time), self.noise))
        # Scalar clip: equal to ``np.clip(value, 0.0, 1.0)``, NaN included
        # (``max``/``min`` keep their first argument when comparisons fail).
        return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class StationaryBehavior(BehaviorProfile):
    """Constant-mean behaviour (a reliably good or reliably bad domain).

    Attributes:
        mean: expected satisfaction, in ``[0, 1]``.
        noise: observation noise standard deviation.
    """

    mean: float
    noise: float = 0.08

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError("mean must lie in [0, 1]")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")

    def mean_at(self, time: float) -> float:
        return self.mean


@dataclass(frozen=True)
class DegradingBehavior(BehaviorProfile):
    """Behaviour that decays linearly from ``start`` to ``floor``.

    Models a domain that was once trustworthy going bad (compromise,
    overload, neglect) — the scenario that motivates trust *decay*.

    Attributes:
        start: mean satisfaction at time 0.
        floor: mean satisfaction after ``horizon``.
        horizon: time over which the degradation happens.
    """

    start: float
    floor: float
    horizon: float
    noise: float = 0.08

    def __post_init__(self) -> None:
        for label, v in (("start", self.start), ("floor", self.floor)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{label} must lie in [0, 1]")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    def mean_at(self, time: float) -> float:
        frac = min(max(time, 0.0) / self.horizon, 1.0)
        return self.start + (self.floor - self.start) * frac


@dataclass(frozen=True)
class OscillatingBehavior(BehaviorProfile):
    """Behaviour oscillating sinusoidally between good and bad phases.

    Attributes:
        low: trough mean satisfaction.
        high: peak mean satisfaction.
        period: oscillation period.
    """

    low: float
    high: float
    period: float
    noise: float = 0.08

    def __post_init__(self) -> None:
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise ValueError("need 0 <= low <= high <= 1")
        if self.period <= 0:
            raise ValueError("period must be positive")

    def mean_at(self, time: float) -> float:
        mid = (self.high + self.low) / 2.0
        amp = (self.high - self.low) / 2.0
        return mid + amp * math.sin(2.0 * math.pi * time / self.period)


@dataclass(frozen=True)
class FlipBehavior(BehaviorProfile):
    """Behaviour that switches abruptly at ``flip_time``.

    The classic betrayal scenario: build a good reputation, then defect.

    Attributes:
        before: mean satisfaction before the flip.
        after: mean satisfaction after the flip.
        flip_time: when the switch happens.
    """

    before: float
    after: float
    flip_time: float
    noise: float = 0.08

    def __post_init__(self) -> None:
        for label, v in (("before", self.before), ("after", self.after)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{label} must lie in [0, 1]")
        if self.flip_time < 0:
            raise ValueError("flip_time must be non-negative")

    def mean_at(self, time: float) -> float:
        return self.before if time < self.flip_time else self.after


@dataclass
class BehaviorModel:
    """Ground truth for a whole Grid: one profile per resource domain.

    Attributes:
        profiles: profile per RD index (dense list).
        default: profile for RDs without an explicit entry.
    """

    profiles: dict[int, BehaviorProfile]
    default: BehaviorProfile = StationaryBehavior(mean=0.8)

    def profile_for(self, rd_index: int) -> BehaviorProfile:
        """The profile governing resource domain ``rd_index``."""
        return self.profiles.get(rd_index, self.default)

    def sample(
        self, rd_index: int, time: float, rng: np.random.Generator
    ) -> float:
        """Draw a satisfaction observation for a transaction on ``rd_index``."""
        return self.profile_for(rd_index).sample(time, rng)

    @classmethod
    def uniform(cls, mean: float = 0.8) -> "BehaviorModel":
        """Every domain behaves identically (stationary ``mean``)."""
        return cls(profiles={}, default=StationaryBehavior(mean=mean))
