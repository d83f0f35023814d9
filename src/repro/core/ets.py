"""Expected trust supplement (ETS) — Table 1 of the paper.

When a client and a resource negotiate an activity, the *offered trust level*
(OTL) of the pairing is compared against the *required trust level* (RTL).
If the offer meets or exceeds the requirement no extra security machinery is
needed; otherwise the shortfall ``RTL - OTL`` must be supplemented with
explicit mechanisms (sandboxing, encryption, ...), whose magnitude the paper
calls the *expected trust supplement*:

    ``ETS(RTL, OTL) = max(RTL - OTL, 0)``            for RTL in A..E
    ``ETS(F,   OTL) = F  (numerically 6)``           always

The special ``F`` row lets a domain *force* full supplemental security by
raising its requirement to ``F``, a level no offer can satisfy.  The numeric
ETS value is the paper's *trust cost* (TC), which feeds the expected security
cost of a mapping (see :mod:`repro.scheduling.costs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.levels import MAX_OFFERED_LEVEL, TrustLevel, offered_levels, required_levels
from repro.errors import ConfigurationError

__all__ = ["expected_trust_supplement", "trust_cost", "EtsTable", "TC_MIN", "TC_MAX"]

TC_MIN = 0
TC_MAX = int(TrustLevel.F)


def expected_trust_supplement(
    rtl: TrustLevel | int | str,
    otl: TrustLevel | int | str,
    *,
    f_forces_max: bool = True,
) -> int:
    """Return the expected trust supplement for a (RTL, OTL) pair.

    Args:
        rtl: required trust level (``A``..``F``).
        otl: offered trust level (``A``..``E``).
        f_forces_max: whether ``RTL = F`` forces the maximum supplement
            regardless of the offer (Table 1's special row).  The paper's
            *model* includes the override; its *simulation* results are only
            reproducible with plain ``max(RTL − OTL, 0)`` for the F row, so
            scenario materialisation disables it (see DESIGN.md).

    Returns:
        The integer trust cost ``TC`` in ``[0, 6]``.

    Raises:
        ConfigurationError: if ``otl`` is ``F`` (not a legal offer) or either
            value is not a trust level.
    """
    rtl = TrustLevel.from_value(rtl)
    otl = TrustLevel.from_value(otl)
    if not otl.is_offerable:
        raise ConfigurationError(
            f"otl: an offered trust level cannot be F (offers span A..E), got {otl.name}"
        )
    if f_forces_max and rtl is TrustLevel.F:
        return int(TrustLevel.F)
    return max(int(rtl) - int(otl), 0)


#: Alias matching the paper's "trust cost" (TC) terminology.
trust_cost = expected_trust_supplement


@dataclass(frozen=True)
class EtsTable:
    """Materialised Table 1: ETS for every (RTL, OTL) combination.

    The table is exposed as a dense :class:`numpy.ndarray` for vectorised
    lookups during scheduling (``matrix[rtl - 1, otl - 1]``) and provides a
    paper-style renderer for the benchmark that regenerates Table 1.

    Attributes:
        f_forces_max: whether the ``RTL = F`` row forces the maximum
            supplement (Table 1's special row; see
            :func:`expected_trust_supplement` for when to disable it).
    """

    f_forces_max: bool = True
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _build_matrix(self.f_forces_max))

    def lookup(self, rtl: TrustLevel | int | str, otl: TrustLevel | int | str) -> int:
        """Table lookup; semantics identical to :func:`expected_trust_supplement`."""
        rtl = TrustLevel.from_value(rtl)
        otl = TrustLevel.from_value(otl)
        if not otl.is_offerable:
            raise ConfigurationError(
                f"otl: an offered trust level cannot be F (offers span A..E), got {otl.name}"
            )
        return int(self.matrix[int(rtl) - 1, int(otl) - 1])

    def lookup_many(self, rtls: np.ndarray, otls: np.ndarray) -> np.ndarray:
        """Vectorised lookup for integer arrays of RTL and OTL values (1-based)."""
        rtls = np.asarray(rtls, dtype=np.int64)
        otls = np.asarray(otls, dtype=np.int64)
        if rtls.size and (rtls.min() < 1 or rtls.max() > 6):
            raise ConfigurationError(
                "rtls: RTL values must lie in [1, 6], got values in "
                f"[{rtls.min()}, {rtls.max()}]"
            )
        if otls.size and (otls.min() < 1 or otls.max() > 5):
            raise ConfigurationError(
                "otls: OTL values must lie in [1, 5], got values in "
                f"[{otls.min()}, {otls.max()}]"
            )
        return self.matrix[rtls - 1, otls - 1]

    @property
    def mean_trust_cost(self) -> float:
        """Mean TC over the whole table (the paper quotes an average of 3)."""
        return float(self.matrix.mean())

    def render(self) -> str:
        """Render the table in the layout of the paper's Table 1."""
        header = ["requested TL"] + [level.name for level in offered_levels()]
        rows: list[list[str]] = []
        for rtl in required_levels():
            cells: list[str] = [rtl.name]
            for otl in offered_levels():
                value = self.lookup(rtl, otl)
                if rtl is TrustLevel.F and self.f_forces_max:
                    cells.append("F")
                elif value == 0:
                    cells.append("0")
                else:
                    cells.append(f"{rtl.name} - {TrustLevel(int(rtl) - value).name}")
            rows.append(cells)
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        lines = [" | ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines.append("-+-".join("-" * w for w in widths))
        for cells in rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)


def _build_matrix(f_forces_max: bool = True) -> np.ndarray:
    """Build the dense 6x5 ETS matrix (rows RTL A..F, columns OTL A..E)."""
    n_rtl = int(TrustLevel.F)
    n_otl = int(MAX_OFFERED_LEVEL)
    matrix = np.zeros((n_rtl, n_otl), dtype=np.int64)
    for rtl in range(1, n_rtl + 1):
        for otl in range(1, n_otl + 1):
            if f_forces_max and rtl == int(TrustLevel.F):
                matrix[rtl - 1, otl - 1] = int(TrustLevel.F)
            else:
                matrix[rtl - 1, otl - 1] = max(rtl - otl, 0)
    matrix.setflags(write=False)
    return matrix
