"""Edge semantics of Ω, pinned on :meth:`Reputation.evaluate`.

* every source excluded (the asker's own opinion never counts) -> the
  unknown prior, not an average over nothing; an excluded source shrinks
  the divisor;
* ``R = 0`` recommenders leave the divisor too (a purged badmouther must
  not drag its target toward zero);
* an opinion recorded in the future raises and names its holder — unless
  it belongs to the asker, whose opinion is excluded before the age check;
* while ``R`` is one number and ``Υ ≡ 1``, Ω sums the opinions without
  resolving ``R`` per recommender, and returns the per-opinion loop's
  float bit for bit (or raises what it raises).
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import TrustContext
from repro.core.decay import ExponentialDecay
from repro.core.recommender import RecommenderWeights
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


class _Counting(RecommenderWeights):
    """Plain weights that count the per-recommender ``R`` lookups."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.calls = 0

    def factor(self, recommender, target):
        self.calls += 1
        return super().factor(recommender, target)


class _PerOpinion(_Counting):
    """The same ``R``, never reported constant: Ω takes its general loop."""

    def constant_factor(self):
        return None


class _CountingCredibility(CredibilityWeights):
    def __post_init__(self) -> None:
        super().__post_init__()
        self.calls = 0

    def factor(self, recommender, target):
        self.calls += 1
        return super().factor(recommender, target)


def _result(rep: Reputation, now: float, asking: str):
    """The float's bits, or the refusal's type and message."""
    try:
        return struct.pack("<d", rep.evaluate("y", CTX, now, asking=asking))
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


_TRUSTERS = ("a", "b", "c", "d", "q")
_opinions = st.lists(
    st.tuples(
        st.sampled_from(_TRUSTERS),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=100.0),
    ),
    max_size=8,
)
_nows = st.one_of(
    st.floats(min_value=0.0, max_value=150.0),
    st.sampled_from([0.0, 100.0, math.nan, math.inf, -math.inf]),
)


def _opinion_table(opinions) -> TrustTable:
    table = TrustTable()
    for truster, value, time in opinions:
        table.record(truster, "y", CTX, value, time)
    return table


class TestConstantFactorLoop:
    """The constant-``R``, ``Υ ≡ 1`` loop against the per-opinion loop."""

    @settings(max_examples=300, deadline=None)
    @given(
        opinions=_opinions,
        now=_nows,
        asking=st.sampled_from(["q", "a", "absent"]),
        default_accuracy=st.one_of(
            st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
        ),
        prior=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bit_identical_to_the_general_loop(
        self, opinions, now, asking, default_accuracy, prior
    ):
        # Backdated and NaN clocks, a future opinion held by the asker and
        # R = 0 are all drawn here.
        table = _opinion_table(opinions)
        fast = _Counting(default_accuracy=default_accuracy)
        general = _PerOpinion(default_accuracy=default_accuracy)
        got = _result(Reputation(table, fast, unknown_prior=prior), now, asking)
        want = _result(Reputation(table, general, unknown_prior=prior), now, asking)
        assert got == want
        if now >= table.latest("y", CTX):
            assert fast.calls == 0  # the constant-R loop ran

    def test_a_future_opinion_of_the_asker_alone_takes_the_general_loop(self):
        table = _table()
        table.record("q", "y", CTX, 0.9, NOW + 50.0)
        fast = _Counting()
        assert _omega(Reputation(table, fast), asking="q") == (0.8 + 0.4) / 2
        assert fast.calls == 2

    def test_nan_clock_takes_the_general_loop_and_raises(self):
        fast = _Counting()
        with pytest.raises(ValueError, match="age must be non-negative"):
            Reputation(_table(), fast).evaluate("y", CTX, math.nan, asking="q")
        assert fast.calls == 1

    def test_learned_accuracy_or_alliance_is_not_constant(self):
        learned = RecommenderWeights()
        learned.observe_outcome("a", 0.5, 0.5)
        allied = RecommenderWeights()
        allied.alliances.declare("g", ["a", "y"])
        assert RecommenderWeights(default_accuracy=0.4).constant_factor() == 0.4
        assert learned.constant_factor() is None
        assert allied.constant_factor() is None

    def test_purged_credibility_takes_the_general_loop(self):
        weights = _CountingCredibility(
            purge_threshold=0.9, min_observations=1, learning_rate=1.0
        )
        weights.observe_outcome("b", 1.0, 0.0)
        assert weights.purged == {"b"} and weights.constant_factor() is None
        assert _omega(Reputation(table=_table(), weights=weights)) == 0.8
        assert weights.calls == 2

    def test_purge_without_learned_accuracy_is_not_constant(self):
        # A restored purge set alone (its accuracies dropped) must still
        # zero the purged recommender's weight.
        weights = _CountingCredibility()
        weights._purged.add("b")
        assert weights.constant_factor() is None
        assert _omega(Reputation(table=_table(), weights=weights)) == 0.8

    @settings(max_examples=100, deadline=None)
    @given(opinions=_opinions, now=st.floats(min_value=100.0, max_value=150.0))
    def test_exponential_decay_takes_the_general_loop(self, opinions, now):
        table = _opinion_table(opinions)
        decay = ExponentialDecay(rate=0.05)
        fast = _Counting()
        general = _PerOpinion()
        got = _result(Reputation(table, fast, decay), now, "q")
        want = _result(Reputation(table, general, decay), now, "q")
        assert got == want
        assert fast.calls == general.calls
