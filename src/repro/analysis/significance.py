"""Statistical significance of paired improvements.

The paper reports bare averages; a production harness should say whether a
measured improvement could be replication noise.  :func:`paired_t_test`
operates on *paired* per-replication differences (the aware and unaware
runs of a replication share their scenario, so pairing removes the
between-scenario variance).  It is the classic paired t, implemented
directly: the exact t CDF via the regularised incomplete beta from
:mod:`scipy.special` when available, with a normal-approximation fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PairedTestResult", "paired_t_test"]


@dataclass(frozen=True)
class PairedTestResult:
    """Outcome of a paired t-test.

    Attributes:
        mean_difference: mean of (baseline − treatment) differences.
        t_statistic: the paired t statistic.
        degrees_of_freedom: ``n − 1``.
        p_value: two-sided p-value.
    """

    mean_difference: float
    t_statistic: float
    degrees_of_freedom: int
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the difference is significant at level ``alpha``."""
        return self.p_value < alpha


def _student_t_sf(t: float, df: int) -> float:
    """One-sided survival function of Student's t.

    Uses the exact identity with the regularised incomplete beta when scipy
    is importable, else a Welch–normal approximation (adequate for df ≳ 10).
    """
    t = abs(t)
    try:  # pragma: no cover - exercised when scipy present
        from scipy.special import betainc

        x = df / (df + t * t)
        return 0.5 * float(betainc(df / 2.0, 0.5, x))
    except ImportError:  # pragma: no cover - fallback path
        # Normal approximation with a mild df correction.
        z = t * (1.0 - 1.0 / (4.0 * df)) / math.sqrt(1.0 + t * t / (2.0 * df))
        return 0.5 * math.erfc(z / math.sqrt(2.0))


def paired_t_test(baseline, treatment) -> PairedTestResult:
    """Two-sided paired t-test for ``baseline − treatment``.

    Args:
        baseline: per-replication values of the baseline (e.g. unaware
            average completion times).
        treatment: per-replication values of the treatment, same order.

    Raises:
        ValueError: on length mismatch or fewer than two pairs.
    """
    a = np.asarray(baseline, dtype=np.float64)
    b = np.asarray(treatment, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("baseline and treatment must be equal-length 1-D sequences")
    n = a.size
    if n < 2:
        raise ValueError("need at least two pairs")
    diff = a - b
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        p = 0.0 if mean != 0.0 else 1.0
        t = math.inf if mean != 0.0 else 0.0
        return PairedTestResult(mean, t, df, p)
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * _student_t_sf(t, df)
    return PairedTestResult(mean, t, df, min(p, 1.0))

