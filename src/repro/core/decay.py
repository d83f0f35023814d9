"""Trust decay functions (the paper's ``Υ(t - t_xy, c)``).

Trust information ages: an experience from five years ago says less about an
entity's present behaviour than one from yesterday (Section 2.2).  The paper
models this with a decay function ``Υ`` applied multiplicatively to stored
trust levels; it does not commit to a particular functional form, so this
module provides the identity and an exponential decay sharing one protocol:

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

from repro.errors import ConfigurationError

__all__ = [
    "DecayFunction",
    "NoDecay",
    "ExponentialDecay",
]


class DecayFunction(ABC):
    """Protocol for trust decay: callable age -> multiplier in ``[0, 1]``."""

    @abstractmethod
    def __call__(self, age: float) -> float:
        """Return the decay multiplier for information ``age`` time units old.

        Raises:
            ConfigurationError: if ``age`` is negative (information from
                the future) or NaN.
        """

    @staticmethod
    def _check_age(age: float) -> float:
        age = float(age)
        if not age >= 0:
            raise ConfigurationError(f"age must be non-negative, got {age!r}")
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
            raise ConfigurationError(
                f"decay rate must be non-negative, got {self.rate!r}"
            )
        if not 0.0 <= self.floor <= 1.0:
            raise ConfigurationError(f"floor must lie in [0, 1], got {self.floor!r}")

    def __call__(self, age: float) -> float:
        age = self._check_age(age)
        return self.floor + (1.0 - self.floor) * math.exp(-self.rate * age)

