"""Calibration analysis: why the frozen configuration is what it is.

DESIGN.md §2 claims the paper's printed 50 % blanket surcharge cannot
produce its reported 35–40 % improvements.  This module carries the actual
argument as code:

* the **analytic cap**: in steady saturation the average completion time is
  proportional to the mean realised service cost, so the improvement is
  bounded by the service-multiplier ratio.  The trust-aware multiplier is
  at least 1 (TC ≥ 0), hence

      ``improvement ≤ 1 − 1 / (1 + unaware_fraction)``

  — with the printed 0.5 that is a hard ≈ 33 % ceiling *attained only at
  TC ≡ 0*, and the realistic ceiling with a measured mean chosen TC is
  lower still (:func:`improvement_cap`), which doubles as a first-order
  prediction, so the frozen configuration's numbers can be sanity-checked
  against theory.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.scheduling.policy import TRUST_WEIGHT

__all__ = [
    "aware_multiplier",
    "unaware_multiplier",
    "improvement_cap",
]


def aware_multiplier(mean_tc: float, tc_weight: float = TRUST_WEIGHT) -> float:
    """Mean service multiplier paid by the trust-aware deployment."""
    if mean_tc < 0:
        raise ConfigurationError(f"mean_tc must be non-negative, got {mean_tc!r}")
    return 1.0 + mean_tc * tc_weight / 100.0


def unaware_multiplier(unaware_fraction: float) -> float:
    """Service multiplier paid by the blanket-security deployment."""
    if unaware_fraction < 0:
        raise ConfigurationError(
            f"unaware_fraction must be non-negative, got {unaware_fraction!r}"
        )
    return 1.0 + unaware_fraction


def improvement_cap(
    unaware_fraction: float, mean_chosen_tc: float = 0.0, tc_weight: float = TRUST_WEIGHT
) -> float:
    """Upper bound on the saturation-regime improvement.

    With mean chosen TC of 0 this is the absolute ceiling
    ``1 − 1/(1 + fraction)``; with a realistic chosen TC it is the
    service-ratio prediction.
    """
    return 1.0 - aware_multiplier(mean_chosen_tc, tc_weight) / unaware_multiplier(
        unaware_fraction
    )
