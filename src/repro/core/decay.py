"""Trust decay functions (the paper's ``Υ(t - t_xy, c)``).

Trust information ages: an experience from five years ago says less about an
entity's present behaviour than one from yesterday (Section 2.2).  The paper
models this with a decay function ``Υ`` applied multiplicatively to stored
trust levels; it does not commit to a particular functional form, so this
module provides a small family of well-behaved decays sharing one protocol:

* each decay maps an *age* (elapsed time since the last transaction, ``>= 0``)
  to a multiplier in ``[floor, 1]``;
* age ``0`` maps to ``1`` (fresh information is taken at face value);
* the multiplier is non-increasing in age (older is never more credible).

Decays may be context-dependent in the paper's formulation; here a different
decay instance can simply be attached per context.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

__all__ = [
    "DecayFunction",
    "NoDecay",
    "ExponentialDecay",
    "LinearDecay",
    "StepDecay",
    "HalfLifeDecay",
]


class DecayFunction(ABC):
    """Protocol for trust decay: callable age -> multiplier in ``[0, 1]``."""

    @abstractmethod
    def __call__(self, age: float) -> float:
        """Return the decay multiplier for information ``age`` time units old.

        Raises:
            ValueError: if ``age`` is negative (information from the future)
                or NaN.
        """

    @staticmethod
    def _check_age(age: float) -> float:
        age = float(age)
        if not age >= 0:
            raise ValueError(f"age must be non-negative, got {age}")
        return age


@dataclass(frozen=True, slots=True)
class NoDecay(DecayFunction):
    """Identity decay: trust never ages (useful as a control in ablations)."""

    def __call__(self, age: float) -> float:
        # Υ ≡ 1 is the default decay, called once per opinion in Ω: only an
        # age that is not ``>= 0`` (negative or NaN) pays for the check.
        if not age >= 0:
            self._check_age(age)
        return 1.0


@dataclass(frozen=True, slots=True)
class ExponentialDecay(DecayFunction):
    """``Υ(age) = floor + (1 - floor) * exp(-rate * age)``.

    Attributes:
        rate: decay rate per time unit; larger forgets faster.
        floor: residual credibility retained forever (default 0).
    """

    rate: float
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("decay rate must be non-negative")
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError("floor must lie in [0, 1]")

    def __call__(self, age: float) -> float:
        age = self._check_age(age)
        return self.floor + (1.0 - self.floor) * math.exp(-self.rate * age)


@dataclass(frozen=True, slots=True)
class LinearDecay(DecayFunction):
    """Linear ramp from 1 at age 0 down to ``floor`` at ``horizon``.

    Attributes:
        horizon: age at which credibility reaches the floor.
        floor: minimum multiplier (default 0).
    """

    horizon: float
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError("floor must lie in [0, 1]")

    def __call__(self, age: float) -> float:
        age = self._check_age(age)
        return 1.0 - (1.0 - self.floor) * min(age / self.horizon, 1.0)


@dataclass(frozen=True, slots=True)
class StepDecay(DecayFunction):
    """Full credibility within ``fresh_for`` time units, ``stale_value`` after.

    Models systems that treat trust data as either *current* or *stale*.
    """

    fresh_for: float
    stale_value: float = 0.5

    def __post_init__(self) -> None:
        if self.fresh_for < 0:
            raise ValueError("fresh_for must be non-negative")
        if not 0.0 <= self.stale_value <= 1.0:
            raise ValueError("stale_value must lie in [0, 1]")

    def __call__(self, age: float) -> float:
        age = self._check_age(age)
        return 1.0 if age <= self.fresh_for else float(self.stale_value)


class HalfLifeDecay(ExponentialDecay):
    """Exponential decay parameterised by its half-life instead of a rate."""

    def __init__(self, half_life: float, floor: float = 0.0) -> None:
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        super().__init__(rate=math.log(2.0) / half_life, floor=floor)

    @property
    def half_life(self) -> float:
        """The age at which (floor-adjusted) credibility halves."""
        return math.log(2.0) / self.rate
