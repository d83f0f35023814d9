"""Edge semantics of Ω, pinned on :meth:`Reputation.evaluate`.

* every source excluded (the asker's own opinion never counts) -> the
  unknown prior, not an average over nothing; an excluded source shrinks
  the divisor;
* ``R = 0`` recommenders leave the divisor too (a purged badmouther must
  not drag its target toward zero);
* an opinion recorded in the future raises and names its holder — unless
  it belongs to the asker, whose opinion is excluded before the age check.
"""

import pytest

from repro.core.context import TrustContext
from repro.core.reputation import Reputation
from repro.core.tables import TrustTable
from repro.trustfaults.credibility import CredibilityWeights

CTX = TrustContext("toa")
NOW = 100.0


def _table() -> TrustTable:
    table = TrustTable()
    table.record("a", "y", CTX, 0.8, 10.0)
    table.record("b", "y", CTX, 0.4, 20.0)
    return table


def _purging_weights(*victims: str) -> CredibilityWeights:
    """Weights where each victim has been observed into a purge (R = 0)."""
    weights = CredibilityWeights(
        purge_threshold=0.9, min_observations=1, learning_rate=1.0
    )
    for victim in victims:
        weights.observe_outcome(victim, 1.0, 0.0)
    return weights


def _omega(rep: Reputation, trustee: str = "y", asking: str = "q") -> float:
    return rep.evaluate(trustee, CTX, NOW, asking=asking)


class TestAllSourcesFiltered:
    def test_falls_back_to_unknown_prior(self):
        table = TrustTable()
        table.record("q", "y", CTX, 0.8, 10.0)
        rep = Reputation(table=table, unknown_prior=0.25)
        assert _omega(rep, asking="q") == 0.25

    def test_partial_filter_excludes_source_from_divisor(self):
        rep = Reputation(table=_table())
        # Only "a" survives the asker "b": 0.8 / 1, not (0.8 + 0.4) / 2 or 0.8 / 2.
        assert _omega(rep, asking="b") == 0.8


class TestZeroFactorExcludedFromDivisor:
    def test_purged_recommender_leaves_the_average(self):
        rep = Reputation(table=_table(), weights=_purging_weights("b"))
        assert _omega(rep) == 0.8  # 0.8 / 1 — "b" is gone, so is its slot

    def test_all_recommenders_purged_gives_unknown_prior(self):
        rep = Reputation(
            table=_table(), weights=_purging_weights("a", "b"), unknown_prior=0.5
        )
        assert _omega(rep) == 0.5

    def test_unpurged_baseline_uses_full_divisor(self):
        rep = Reputation(table=_table())
        assert _omega(rep) == (0.8 + 0.4) / 2


class TestNegativeAge:
    def test_future_opinion_raises_and_names_the_offender(self):
        table = _table()
        table.record("c", "y", CTX, 0.6, NOW + 5.0)
        rep = Reputation(table=table)
        with pytest.raises(ValueError, match="precedes opinion of 'c'"):
            _omega(rep)

    def test_askers_own_future_opinion_is_excluded_before_the_check(self):
        table = _table()
        table.record("q", "y", CTX, 0.9, NOW + 50.0)
        rep = Reputation(table=table)
        assert _omega(rep, asking="q") == (0.8 + 0.4) / 2
        # Any other asker still trips over q's future opinion.
        with pytest.raises(ValueError, match="precedes opinion of 'q'"):
            _omega(rep, asking="other")
