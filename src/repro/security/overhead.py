"""From trust supplements to security cost: grounding the paper's 15 %/level.

Section 4.1 charges ``ESC = EEC × (TC × 15) / 100`` — each missing trust
level costs 15 % of the task's execution time in supplemental security.
This module grounds that linear model in the measured mechanisms of
Section 5.1: each supplement level engages an increasingly expensive ladder
of mechanisms (integrity checking → encryption of I/O → sandboxed
execution → full isolation), whose costs come from the transfer and sandbox
models.

:class:`SupplementLadder` maps a trust cost ``TC ∈ [0, 6]`` to a relative
overhead via a mechanism ladder; :func:`calibrate_weight` fits the best
linear per-level weight to a ladder, letting benchmarks show the paper's
``15`` is the right order of magnitude for a plausible ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ets import TC_MAX, TC_MIN
from repro.errors import ConfigurationError

__all__ = ["Mechanism", "SupplementLadder", "DEFAULT_LADDER", "calibrate_weight", "linear_supplement_fraction"]


@dataclass(frozen=True, slots=True)
class Mechanism:
    """One security mechanism and its relative runtime overhead.

    Attributes:
        name: mechanism label.
        overhead_fraction: extra runtime as a fraction of base runtime
            (e.g. 0.33 for MD5 under MiSFIT).
    """

    name: str
    overhead_fraction: float

    def __post_init__(self) -> None:
        if self.overhead_fraction < 0:
            raise ConfigurationError(
                f"overhead_fraction of mechanism {self.name!r} must be "
                f"non-negative, got {self.overhead_fraction!r}"
            )


@dataclass(frozen=True)
class SupplementLadder:
    """Cumulative mechanism ladder indexed by trust cost.

    ``levels[k]`` is the tuple of mechanisms engaged at supplement level
    ``k + 1``; the overhead at trust cost ``tc`` is the sum over all
    mechanisms engaged at levels ``1..tc`` (mechanisms stack).

    Attributes:
        levels: one mechanism tuple per supplement level (length 6).
    """

    levels: tuple[tuple[Mechanism, ...], ...]

    def __post_init__(self) -> None:
        if len(self.levels) != TC_MAX:
            raise ConfigurationError(
                f"levels: a ladder needs exactly {TC_MAX} levels, "
                f"got {len(self.levels)}"
            )

    def overhead(self, tc: int) -> float:
        """Total overhead fraction at trust cost ``tc``."""
        if not TC_MIN <= tc <= TC_MAX:
            raise ConfigurationError(
                f"tc: trust cost must lie in [{TC_MIN}, {TC_MAX}], got {tc!r}"
            )
        return sum(
            m.overhead_fraction for level in self.levels[:tc] for m in level
        )

    def overheads(self) -> np.ndarray:
        """Overhead fraction for every trust cost 0..6."""
        return np.array([self.overhead(tc) for tc in range(TC_MAX + 1)])


#: A plausible ladder built from the paper's own Section-5.1 measurements:
#: checksumming, then wire encryption (the steady-state scp overhead on a
#: fast LAN is ~15 % of a compute-bound task's runtime when I/O is a
#: fraction of total time), then MD5-class SFI, then log-disk-class SFI,
#: then full memory-guarded sandboxing, then strict isolation.
DEFAULT_LADDER = SupplementLadder(
    levels=(
        (Mechanism("integrity checksums", 0.08),),
        (Mechanism("wire encryption (scp-class)", 0.14),),
        (Mechanism("SFI, compute-bound (MD5-class)", 0.15),),
        (Mechanism("SFI, I/O-bound (log-disk-class)", 0.17),),
        (Mechanism("memory-guarded sandbox", 0.21),),
        (Mechanism("strict isolation + audit", 0.20),),
    )
)


def linear_supplement_fraction(tc: float, weight: float = 15.0) -> float:
    """The paper's linear model: overhead fraction ``tc × weight / 100``."""
    if tc < 0:
        raise ConfigurationError(f"tc: trust cost must be non-negative, got {tc!r}")
    if weight < 0:
        raise ConfigurationError(f"weight must be non-negative, got {weight!r}")
    return tc * weight / 100.0


def calibrate_weight(ladder: SupplementLadder) -> float:
    """Least-squares per-level weight (in %) approximating ``ladder``.

    Fits ``overhead(tc) ≈ tc × w / 100`` through the origin over
    ``tc = 0..6``; the default ladder yields a weight close to the paper's
    arbitrarily chosen 15.
    """
    tcs = np.arange(TC_MAX + 1, dtype=np.float64)
    y = ladder.overheads()
    denom = float(np.dot(tcs, tcs))
    return 100.0 * float(np.dot(tcs, y)) / denom
