"""Direct trust ``Θ(x, y, t, c)``.

Section 2.2 defines the direct component of trust as the stored direct-trust
table entry, discounted by the decay function evaluated at the age of the
last transaction between the two entities:

    ``Θ(x, y, t, c) = DTT(x, y, c) × Υ(t - t_xy, c)``

When ``x`` has no history with ``y`` in context ``c``, the direct component
is taken as a caller-supplied prior (default 0: no basis for direct trust).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.context import TrustContext
from repro.core.decay import DecayFunction, NoDecay
from repro.core.tables import EntityId, TrustTable
from repro.errors import ConfigurationError

__all__ = ["DirectTrust"]


@dataclass
class DirectTrust:
    """Evaluator for the direct-trust component ``Θ``.

    Attributes:
        table: the direct-trust table (DTT).
        decay: decay function ``Υ`` applied to entry age.  Per-context decays
            can be installed via :meth:`set_context_decay`.
        unknown_prior: value returned when no direct history exists.
    """

    table: TrustTable
    decay: DecayFunction = field(default_factory=NoDecay)
    unknown_prior: float = 0.0
    _context_decay: dict[TrustContext, DecayFunction] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.unknown_prior <= 1.0:
            raise ConfigurationError(
                f"unknown_prior must lie in [0, 1], got {self.unknown_prior!r}"
            )

    def set_context_decay(self, context: TrustContext, decay: DecayFunction) -> None:
        """Install a context-specific decay, overriding the default for it."""
        self._context_decay[context] = decay

    def decay_for(self, context: TrustContext) -> DecayFunction:
        """The decay function that applies to ``context``."""
        # Most engines install no per-context decay: skip hashing the
        # context then (this runs on every evaluation).
        overrides = self._context_decay
        return overrides.get(context, self.decay) if overrides else self.decay

    def evaluate(
        self, truster: EntityId, trustee: EntityId, context: TrustContext, now: float
    ) -> float:
        """Compute ``Θ(truster, trustee, now, context)`` in ``[0, 1]``.

        Raises:
            ConfigurationError: if ``now`` predates the recorded last
                transaction (the clock ran backwards).
        """
        rec = self.table.get(truster, trustee, context)
        if rec is None:
            return self.unknown_prior
        age = now - rec.last_transaction
        if age < 0:
            raise ConfigurationError(
                f"now={now!r} precedes last transaction at {rec.last_transaction!r}"
            )
        return rec.value * self.decay_for(context)(age)
