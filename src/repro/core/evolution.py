"""Outcome-driven trust evolution.

The paper's conclusion lists "mechanisms for determining trust values from
ongoing transactions" as future work; this module implements one concrete,
well-behaved mechanism so the Fig. 1 agents have something to run:

* every completed transaction between a truster and a trustee yields a
  :class:`TransactionOutcome` with a *satisfaction* score in ``[0, 1]``
  (1 = behaved exactly as expected);
* the :class:`TrustEvolver` folds the score into the trust table with an
  exponential moving average, so trust is "not a fixed value ... but rather
  subject to the entity's behavior" (Section 2.1).

The recommenders behind an outcome are scored where the outcome is fed
back (:class:`~repro.grid.feedback.TrustFeedback`), through
:meth:`~repro.core.recommender.RecommenderWeights.observe_outcome`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.core.context import TrustContext
from repro.core.tables import EntityId, TrustRecord, TrustTable
from repro.errors import ConfigurationError

__all__ = ["TransactionOutcome", "TrustEvolver"]


class _OutcomeFields(NamedTuple):
    truster: EntityId
    trustee: EntityId
    context: TrustContext
    satisfaction: float
    time: float


class TransactionOutcome(_OutcomeFields):
    """Result of one completed transaction, as observed by ``truster``.

    Outcomes are immutable tuples, built once per observed transaction;
    the constructor (and ``_make``/``_replace``) refuses a satisfaction
    outside ``[0, 1]`` and a truster that is its own trustee with
    :class:`~repro.errors.ConfigurationError`.

    Attributes:
        truster: the entity updating its opinion.
        trustee: the entity whose behaviour was observed.
        context: the trust context the transaction took place in.
        satisfaction: observed behaviour quality in ``[0, 1]``.
        time: completion time of the transaction.
    """

    __slots__ = ()

    def __new__(
        cls,
        truster: EntityId,
        trustee: EntityId,
        context: TrustContext,
        satisfaction: float,
        time: float,
    ) -> TransactionOutcome:
        if not 0.0 <= satisfaction <= 1.0:
            raise ConfigurationError(
                f"satisfaction must lie in [0, 1], got {satisfaction}"
            )
        if truster == trustee:
            raise ConfigurationError(
                "truster and trustee must differ, got "
                f"truster={truster!r} trustee={trustee!r}"
            )
        return tuple.__new__(cls, (truster, trustee, context, satisfaction, time))

    @classmethod
    def _make(cls, iterable) -> TransactionOutcome:
        # namedtuple's _make (and _replace, which calls it) would skip the
        # checks; route both through the validating constructor.
        return cls(*iterable)


@dataclass
class TrustEvolver:
    """Evolves a :class:`~repro.core.tables.TrustTable` from outcomes.

    Attributes:
        table: the table being evolved (shared DTT/RTT).
        smoothing: EMA factor; the new value is
            ``(1 - smoothing) * old + smoothing * satisfaction``.  A first
            outcome (no prior record) is taken at face value.
    """

    table: TrustTable
    smoothing: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 < self.smoothing <= 1.0:
            raise ConfigurationError(
                f"smoothing must lie in (0, 1], got {self.smoothing!r}"
            )

    def observe(self, outcome: TransactionOutcome) -> TrustRecord:
        """Fold one outcome into the table and return the updated record.

        Raises:
            ConfigurationError: if the outcome is older than the stored
                record (outcomes must be applied in time order per pair);
                the table is left unchanged.
        """
        truster, trustee, context, satisfaction, time = outcome
        table = self.table
        prior = table.get(truster, trustee, context)
        if prior is None:
            value = satisfaction
            count = 1
        else:
            if time < prior.last_transaction:
                raise ConfigurationError(
                    "outcomes must be observed in non-decreasing time order: "
                    f"time {time!r} < {prior.last_transaction!r}"
                )
            smoothing = self.smoothing
            value = (1.0 - smoothing) * prior.value + smoothing * satisfaction
            count = prior.transaction_count + 1
        return table.record(
            truster, trustee, context, value, time, transaction_count=count
        )
