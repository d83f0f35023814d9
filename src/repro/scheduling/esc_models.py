"""Pluggable expected-security-cost (ESC) models.

The paper charges a *linear* supplement — ``ESC = EEC × TC × 15 / 100`` —
and admits the weight is "arbitrarily chosen".  The security package's
mechanism ladder (:mod:`repro.security.overhead`) gives a measured,
non-linear alternative.  This module makes the choice pluggable: an
:class:`EscModel` maps (EEC row, TC row) to an ESC row, and
:class:`~repro.scheduling.policy.TrustPolicy` accepts any of them for the
trust-aware side.

* :class:`LinearEsc` — the paper's formula (default).
* :class:`LadderEsc` — overhead fractions from a mechanism ladder,
  i.e. the security cost actually implied by the Section-5.1 measurements.
* :class:`TableEsc` — arbitrary per-TC fractions (for ablations).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.ets import TC_MAX

__all__ = ["EscModel", "LinearEsc", "LadderEsc", "TableEsc"]


class EscModel(ABC):
    """Maps execution cost and trust cost to expected security cost."""

    @abstractmethod
    def fractions(self, tc: np.ndarray) -> np.ndarray:
        """Overhead fraction per trust cost (vectorised)."""

    def esc(self, eec: np.ndarray, tc: np.ndarray) -> np.ndarray:
        """Expected security cost row: ``EEC × fraction(TC)``."""
        return self.esc_of(
            np.asarray(eec, dtype=np.float64), np.asarray(tc, dtype=np.float64)
        )

    def esc_of(self, eec: np.ndarray, tc: np.ndarray) -> np.ndarray:
        """:meth:`esc` of rows the caller already holds as float64 arrays."""
        if eec.shape != tc.shape:
            raise ValueError(
                f"EEC and TC rows must have equal shape, got {eec.shape} vs {tc.shape}"
            )
        return eec * self.fractions(tc)


@dataclass(frozen=True)
class LinearEsc(EscModel):
    """The paper's linear model: ``fraction = TC × weight / 100``.

    Attributes:
        weight: percent of EEC charged per missing trust level (paper: 15).
    """

    weight: float = 15.0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("weight must be non-negative")

    def fractions(self, tc: np.ndarray) -> np.ndarray:
        tc = np.asarray(tc, dtype=np.float64)
        if (tc < 0).any():
            raise ValueError("trust costs must be non-negative")
        return tc * self.weight / 100.0


@dataclass(frozen=True)
class TableEsc(EscModel):
    """Arbitrary per-TC overhead fractions.

    Attributes:
        table: fraction for each integer trust cost ``0..6``; non-integer
            TCs are linearly interpolated.
    """

    table: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.table) != TC_MAX + 1:
            raise ValueError(f"table needs {TC_MAX + 1} entries (TC 0..{TC_MAX})")
        if any(v < 0 for v in self.table):
            raise ValueError("fractions must be non-negative")

    def fractions(self, tc: np.ndarray) -> np.ndarray:
        tc = np.asarray(tc, dtype=np.float64)
        if np.any((tc < 0) | (tc > TC_MAX)):
            raise ValueError(f"trust costs must lie in [0, {TC_MAX}]")
        grid = np.arange(TC_MAX + 1, dtype=np.float64)
        return np.interp(tc, grid, np.asarray(self.table, dtype=np.float64))


class LadderEsc(TableEsc):
    """Fractions taken from a :class:`~repro.security.overhead.SupplementLadder`.

    The default ladder is calibrated to the paper's own Section-5.1
    measurements, so this model answers "what if the scheduler charged the
    *measured* mechanism costs instead of the linear 15 %/level?".
    """

    def __init__(self, ladder=None) -> None:
        from repro.security.overhead import DEFAULT_LADDER

        ladder = ladder if ladder is not None else DEFAULT_LADDER
        super().__init__(table=tuple(float(v) for v in ladder.overheads()))
