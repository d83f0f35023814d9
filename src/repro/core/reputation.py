"""Reputation ``Ω(y, t, c)``.

Section 2.2 defines reputation as the average over all third parties ``z``
(``z ≠ x``) of their stored trust about ``y``, each opinion discounted by its
age and by the recommender trust factor:

    ``Ω(y, t, c) = Σ_z RTT(z, y, c) × R(z, y) × Υ(t - t_zy, c)  /  |{z}|``

When nobody holds an opinion about ``y`` the reputation falls back to a
caller-supplied prior (default 0).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.context import TrustContext
from repro.core.decay import DecayFunction, NoDecay
from repro.core.recommender import RecommenderWeights
from repro.core.tables import EntityId, TrustTable

__all__ = ["Reputation"]


@dataclass
class Reputation:
    """Evaluator for the reputation component ``Ω``.

    Attributes:
        table: the reputation-trust table (RTT); typically the *same* object
            as the DTT, as the paper recommends.
        weights: resolver for the recommender trust factor ``R(z, y)``.
        decay: decay function ``Υ`` applied to each opinion's age.
        unknown_prior: value returned when no third party holds an opinion.
        source_filter: optional availability predicate ``(recommender, now)
            -> bool``; recommenders it rejects are skipped (and do not count
            toward the average), so reputation degrades gracefully when
            some opinion sources are unreachable.  ``None`` keeps every
            recommender (the default, and the paper's behaviour).
    """

    table: TrustTable
    weights: RecommenderWeights = field(default_factory=RecommenderWeights)
    decay: DecayFunction = field(default_factory=NoDecay)
    unknown_prior: float = 0.0
    source_filter: Callable[[EntityId, float], bool] | None = field(
        default=None, repr=False
    )
    _context_decay: dict[TrustContext, DecayFunction] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.unknown_prior <= 1.0:
            raise ValueError("unknown_prior must lie in [0, 1]")

    def set_context_decay(self, context: TrustContext, decay: DecayFunction) -> None:
        """Install a context-specific decay, overriding the default for it."""
        self._context_decay[context] = decay

    def decay_for(self, context: TrustContext) -> DecayFunction:
        """The decay function that applies to ``context``."""
        return self._context_decay.get(context, self.decay)

    def evaluate(
        self,
        trustee: EntityId,
        context: TrustContext,
        now: float,
        *,
        asking: EntityId,
    ) -> float:
        """Compute ``Ω(trustee, now, context)`` as seen by entity ``asking``.

        ``asking``'s own opinion is excluded from the average (it enters the
        eventual trust through the direct component instead).

        Raises:
            ValueError: if any opinion's last transaction lies in the future.
        """
        decay = self.decay_for(context)
        source_filter = self.source_filter
        factor = self.weights.factor
        total = 0.0
        count = 0
        for recommender, rec in self.table.opinions(trustee, context).items():
            if recommender == asking:
                continue
            if source_filter is not None and not source_filter(recommender, now):
                continue
            age = now - rec.last_transaction
            if age < 0:
                raise ValueError(
                    f"now={now} precedes opinion of {recommender!r} recorded at "
                    f"{rec.last_transaction}"
                )
            weight = factor(recommender, trustee)
            if weight == 0.0:
                # R = 0 marks a recommendation carrying no information (a
                # purged or fully distrusted recommender); it is excluded
                # from the average rather than averaged in as a zero — a
                # purged badmouther must not keep dragging its target down.
                continue
            total += rec.value * weight * decay(age)
            count += 1
        if count == 0:
            return self.unknown_prior
        return total / count
