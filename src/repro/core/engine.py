"""The trust engine: eventual trust ``Γ(x, y, t, c)``.

Section 2.2 combines direct trust and reputation with tunable weights:

    ``Γ(x, y, t, c) = α × Θ(x, y, t, c) + β × Ω(y, t, c)``

"If the 'trustworthiness' of y, as far as x is concerned, is based more on
direct relationship with x than the reputation of y, α will be larger than
β."  With ``α + β = 1`` (enforced here) and both components in ``[0, 1]``,
``Γ`` is a convex combination and therefore also lies in ``[0, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.context import TrustContext
from repro.core.decay import DecayFunction, NoDecay
from repro.core.direct import DirectTrust
from repro.core.recommender import RecommenderWeights
from repro.core.reputation import Reputation
from repro.core.tables import EntityId, TrustTable
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["TrustEngine"]


@dataclass
class TrustEngine:
    """Computes the eventual trust ``Γ`` from its two components.

    Attributes:
        direct: the ``Θ`` evaluator.
        reputation: the ``Ω`` evaluator.
        alpha: weight of the direct component.
        beta: weight of the reputation component.  ``alpha + beta`` must
            equal 1 so ``Γ`` stays a convex combination.
    """

    direct: DirectTrust
    reputation: Reputation
    alpha: float = 0.7
    beta: float = 0.3
    _metrics: "MetricsRegistry | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ConfigurationError(
                "alpha and beta must be non-negative, got "
                f"alpha={self.alpha!r} beta={self.beta!r}"
            )
        if abs(self.alpha + self.beta - 1.0) > 1e-9:
            raise ConfigurationError(
                f"alpha + beta must equal 1, got alpha={self.alpha!r} "
                f"beta={self.beta!r} (sum {self.alpha + self.beta!r})"
            )

    @classmethod
    def build(
        cls,
        *,
        alpha: float = 0.7,
        beta: float = 0.3,
        decay: DecayFunction | None = None,
        weights: RecommenderWeights | None = None,
        table: TrustTable | None = None,
        unknown_prior: float = 0.0,
    ) -> "TrustEngine":
        """Construct an engine over a single shared DTT/RTT table.

        This is the configuration the paper recommends for practical systems
        (one table serving both roles).
        """
        table = table if table is not None else TrustTable()
        decay = decay if decay is not None else NoDecay()
        weights = weights if weights is not None else RecommenderWeights()
        return cls(
            direct=DirectTrust(table=table, decay=decay, unknown_prior=unknown_prior),
            reputation=Reputation(
                table=table, weights=weights, decay=decay, unknown_prior=unknown_prior
            ),
            alpha=alpha,
            beta=beta,
        )

    @property
    def table(self) -> TrustTable:
        """The direct-trust table backing this engine."""
        return self.direct.table

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        """Attach a metrics registry timing every :meth:`gamma` call.

        Feeds the ``trust.gamma_latency_s`` histogram.  Instrumentation
        never changes a trust value.
        """
        self._metrics = registry

    def gamma(
        self, truster: EntityId, trustee: EntityId, context: TrustContext, now: float
    ) -> float:
        """Compute the eventual trust ``Γ(truster, trustee, now, context)``.

        Returns a value in ``[0, 1]``.
        """
        metrics = self._metrics
        if metrics is not None and metrics.enabled:
            with metrics.timer("trust.gamma_latency_s"):
                return self._gamma_unmetered(truster, trustee, context, now)
        return self._gamma_unmetered(truster, trustee, context, now)

    def _gamma_unmetered(
        self, truster: EntityId, trustee: EntityId, context: TrustContext, now: float
    ) -> float:
        theta = self.direct.evaluate(truster, trustee, context, now)
        omega = self.reputation.evaluate(trustee, context, now, asking=truster)
        return self.alpha * theta + self.beta * omega
