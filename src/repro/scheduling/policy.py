"""Trust policy: how security cost enters mapping and execution.

Section 4.1 gives two expected-security-cost (ESC) formulas:

* trust-aware RMS:   ``ESC = EEC × (TC × 15) / 100`` — pay only the
  supplement the trust relationship actually requires (TC = ETS ∈ [0, 6],
  average 3, so on average 45 % of EEC);
* trust-unaware RMS: ``ESC = EEC × 50 / 100`` — blanket conservative
  security (the paper's "be conservative and implement [...] on all
  elements" deployment).

Section 5.3 adds that for the unaware runs the security overhead is
*excluded from mapping* but *included in the reported completion time*.
Two readings of "the security overhead" are possible, so both are
implemented (see DESIGN.md):

* :attr:`SecurityAccounting.CONSERVATIVE_FLAT` (default) — an unaware
  deployment physically applies blanket security, so the realised cost is
  the flat 50 % surcharge;
* :attr:`SecurityAccounting.PAIR_REALIZED` — the physical security cost is
  always the pair-specific supplement ``0.15·TC·EEC``; the unaware mapper
  simply cannot see it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from repro.errors import ConfigurationError
from repro.scheduling.esc_models import EscModel, LinearEsc

__all__ = ["SecurityAccounting", "TrustPolicy", "TRUST_WEIGHT", "UNAWARE_FRACTION"]

#: The paper's (arbitrarily chosen) weight applied to the trust cost.
TRUST_WEIGHT = 15.0
#: The paper's blanket security surcharge for trust-unaware deployments.
UNAWARE_FRACTION = 0.5


class SecurityAccounting(enum.Enum):
    """What security cost is *physically paid* by a trust-unaware deployment."""

    CONSERVATIVE_FLAT = "conservative-flat"
    PAIR_REALIZED = "pair-realized"


@dataclass(frozen=True)
class TrustPolicy:
    """The RMS's stance on trust plus the accounting convention.

    Attributes:
        trust_aware: whether the scheduler sees trust costs while mapping.
        accounting: which security cost the unaware deployment pays.
        tc_weight: weight on TC in the aware ESC formula (paper: 15); used
            when no explicit ``esc_model`` is supplied.
        unaware_fraction: blanket surcharge of the unaware formula (paper: 0.5).
        esc_model: optional trust-aware ESC model replacing the linear
            formula (e.g. :class:`~repro.scheduling.esc_models.LadderEsc`
            to charge the measured mechanism costs instead).
    """

    trust_aware: bool
    accounting: SecurityAccounting = SecurityAccounting.CONSERVATIVE_FLAT
    tc_weight: float = TRUST_WEIGHT
    unaware_fraction: float = UNAWARE_FRACTION
    esc_model: EscModel | None = None

    def __post_init__(self) -> None:
        if self.tc_weight < 0:
            raise ConfigurationError("tc_weight must be non-negative")
        if self.unaware_fraction < 0:
            raise ConfigurationError("unaware_fraction must be non-negative")
        # Resolved once: ESC is evaluated per mapping row and per commit.
        object.__setattr__(
            self,
            "_aware_model",
            self.esc_model if self.esc_model is not None else LinearEsc(self.tc_weight),
        )

    def __getstate__(self) -> dict:
        # Pickle the fields only; the resolved model is derived from them.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    @property
    def aware_model(self) -> EscModel:
        """The effective trust-aware ESC model."""
        return self._aware_model

    # -- ESC formulas -------------------------------------------------------

    def esc_aware(self, eec: np.ndarray, tc: np.ndarray) -> np.ndarray:
        """Trust-aware expected security cost (default: ``EEC × TC × w / 100``)."""
        return self._aware_model.esc(eec, tc)

    def esc_unaware(self, eec: np.ndarray) -> np.ndarray:
        """Trust-unaware expected security cost: ``EEC × fraction``."""
        return eec * self.unaware_fraction

    # -- costs the scheduler believes / the system pays ----------------------

    def mapping_ecc(self, eec: np.ndarray, tc: np.ndarray) -> np.ndarray:
        """Expected completion cost used for *mapping decisions*.

        The aware RMS sees ``EEC + ESC_aware``; the unaware RMS builds its
        ECC table with the blanket formula, ``EEC + ESC_unaware``.
        """
        eec = np.asarray(eec, dtype=np.float64)
        if self.trust_aware:
            tc = np.asarray(tc, dtype=np.float64)
            return eec + self._aware_model.esc_of(eec, tc)
        return eec + self.esc_unaware(eec)

    def realized_ecc(self, eec: np.ndarray, tc: np.ndarray) -> np.ndarray:
        """Completion cost the system *actually pays* for an assignment.

        A trust-aware deployment always pays only the needed supplement.
        A trust-unaware deployment pays according to the accounting mode.
        """
        eec = np.asarray(eec, dtype=np.float64)
        if (
            not self.trust_aware
            and self.accounting is SecurityAccounting.CONSERVATIVE_FLAT
        ):
            return eec + self.esc_unaware(eec)
        tc = np.asarray(tc, dtype=np.float64)
        return eec + self._aware_model.esc_of(eec, tc)

    @property
    def label(self) -> str:
        """Short label for reports, e.g. ``"trust-aware"``."""
        return "trust-aware" if self.trust_aware else "trust-unaware"

    @classmethod
    def aware(cls, **kwargs) -> "TrustPolicy":
        """The trust-aware policy (paper defaults)."""
        return cls(trust_aware=True, **kwargs)

    @classmethod
    def unaware(cls, **kwargs) -> "TrustPolicy":
        """The trust-unaware policy (paper defaults)."""
        return cls(trust_aware=False, **kwargs)
