"""Outcome-driven recommender credibility with purging.

The paper's recommender trust factor ``R(z, y)`` is "learned based on
actual outcomes"; :class:`~repro.core.recommender.RecommenderWeights`
implements that learning as an EMA accuracy.  Against *active* adversaries
(badmouthing, ballot-stuffing, collusive cliques) a soft down-weight is not
enough — "Purging of untrustworthy recommendations" (arXiv:1201.2125)
argues deviant recommenders must be removed from the aggregation entirely.

:class:`CredibilityWeights` extends the learned weights with exactly that:
once a recommender has been scored against at least ``min_observations``
realised outcomes and its learned accuracy has fallen below
``purge_threshold``, its recommendations are purged — ``R(z, y)`` becomes 0
for every target, so the reputation average no longer sees them at all.
Purging is outcome-driven and attack-agnostic: it fires on persistent
deviation between what a recommender *said* and what transactions
*revealed*, whichever attack produced the deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.recommender import EntityId, RecommenderWeights
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry

__all__ = ["CredibilityWeights"]


@dataclass
class CredibilityWeights(RecommenderWeights):
    """Recommender weights with outcome-driven purging.

    Attributes:
        purge_threshold: accuracy below which a recommender is purged;
            ``0`` disables purging (accuracies are never negative), which
            gives the undefended baseline of the trust-fault study.
        min_observations: outcomes that must be scored before a
            recommender may be purged (protects honest recommenders from
            one unlucky sample).
        metrics: optional registry counting ``trustq.purged_recommenders``.
    """

    purge_threshold: float = 0.0
    min_observations: int = 3
    metrics: MetricsRegistry = field(
        default_factory=MetricsRegistry.disabled, repr=False
    )
    _observations: dict[EntityId, int] = field(default_factory=dict, repr=False)
    _purged: set[EntityId] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.purge_threshold <= 1.0:
            raise ConfigurationError("purge_threshold must lie in [0, 1]")
        if self.min_observations < 1:
            raise ConfigurationError("min_observations must be >= 1")

    @property
    def purged(self) -> frozenset[EntityId]:
        """Recommenders currently purged from the aggregation."""
        return frozenset(self._purged)

    def factor(self, recommender: EntityId, target: EntityId) -> float:
        """``R(recommender, target)``; 0 when the recommender is purged."""
        if recommender in self._purged:
            return 0.0
        return super().factor(recommender, target)

    def constant_factor(self) -> float | None:
        """See the base class; ``None`` once any recommender is purged."""
        if self._purged:
            return None
        return super().constant_factor()

    def observe_outcome(
        self, recommender: EntityId, predicted: float, actual: float
    ) -> float:
        """Score one outcome and purge on persistent deviation.

        Returns the updated accuracy (see the base class).
        """
        accuracy = super().observe_outcome(recommender, predicted, actual)
        count = self._observations.get(recommender, 0) + 1
        self._observations[recommender] = count
        if (
            self.purge_threshold > 0.0
            and count >= self.min_observations
            and accuracy < self.purge_threshold
            and recommender not in self._purged
        ):
            self._purged.add(recommender)
            if self.metrics.enabled:
                self.metrics.counter("trustq.purged_recommenders").add()
        return accuracy
