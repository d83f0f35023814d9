"""Tests for Θ (direct), Ω (reputation) and Γ (engine)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.context import EXECUTION, TrustContext
from repro.core.decay import ExponentialDecay, NoDecay
from repro.core.direct import DirectTrust
from repro.core.engine import TrustEngine
from repro.core.levels import TrustLevel
from repro.core.recommender import AllianceRegistry, RecommenderWeights
from repro.core.reputation import Reputation
from repro.core.tables import TrustTable, value_to_level

STORAGE = TrustContext("store", "storing data on the resource")


def make_engine(**kwargs) -> TrustEngine:
    return TrustEngine.build(**kwargs)


class TestDirectTrust:
    def test_fresh_entry_taken_at_face_value(self):
        table = TrustTable()
        table.record("x", "y", EXECUTION, 0.8, time=10.0)
        theta = DirectTrust(table=table, decay=NoDecay())
        assert theta.evaluate("x", "y", EXECUTION, now=10.0) == pytest.approx(0.8)

    def test_decay_applies_to_age(self):
        table = TrustTable()
        table.record("x", "y", EXECUTION, 1.0, time=0.0)
        theta = DirectTrust(table=table, decay=ExponentialDecay(rate=math.log(2.0) / 5.0))
        assert theta.evaluate("x", "y", EXECUTION, now=5.0) == pytest.approx(0.5)

    def test_unknown_pair_gets_prior(self):
        theta = DirectTrust(table=TrustTable(), unknown_prior=0.3)
        assert theta.evaluate("x", "y", EXECUTION, now=0.0) == 0.3

    def test_clock_backwards_rejected(self):
        table = TrustTable()
        table.record("x", "y", EXECUTION, 0.5, time=10.0)
        theta = DirectTrust(table=table)
        with pytest.raises(ValueError):
            theta.evaluate("x", "y", EXECUTION, now=9.0)

    def test_per_context_decay(self):
        table = TrustTable()
        table.record("x", "y", EXECUTION, 1.0, time=0.0)
        table.record("x", "y", STORAGE, 1.0, time=0.0)
        theta = DirectTrust(table=table, decay=NoDecay())
        theta.set_context_decay(STORAGE, ExponentialDecay(rate=math.log(2.0) / 5.0))
        assert theta.evaluate("x", "y", EXECUTION, now=5.0) == 1.0
        assert theta.evaluate("x", "y", STORAGE, now=5.0) == pytest.approx(0.5)


class TestReputation:
    def test_average_of_third_party_opinions(self):
        table = TrustTable()
        table.record("a", "y", EXECUTION, 0.4, time=0.0)
        table.record("b", "y", EXECUTION, 0.8, time=0.0)
        omega = Reputation(table=table)
        assert omega.evaluate("y", EXECUTION, now=0.0, asking="x") == pytest.approx(0.6)

    def test_askers_own_opinion_excluded(self):
        table = TrustTable()
        table.record("x", "y", EXECUTION, 0.0, time=0.0)
        table.record("a", "y", EXECUTION, 1.0, time=0.0)
        omega = Reputation(table=table)
        assert omega.evaluate("y", EXECUTION, now=0.0, asking="x") == pytest.approx(1.0)

    def test_recommender_factor_weighs_opinions(self):
        table = TrustTable()
        table.record("ally", "y", EXECUTION, 1.0, time=0.0)
        alliances = AllianceRegistry()
        alliances.declare("cartel", ["ally", "y"])
        weights = RecommenderWeights(alliances=alliances, ally_weight=0.5)
        omega = Reputation(table=table, weights=weights)
        assert omega.evaluate("y", EXECUTION, now=0.0, asking="x") == pytest.approx(0.5)

    def test_no_opinions_gives_prior(self):
        omega = Reputation(table=TrustTable(), unknown_prior=0.25)
        assert omega.evaluate("y", EXECUTION, now=0.0, asking="x") == 0.25

    def test_decay_applies_per_opinion(self):
        table = TrustTable()
        table.record("a", "y", EXECUTION, 1.0, time=0.0)
        table.record("b", "y", EXECUTION, 1.0, time=10.0)
        omega = Reputation(table=table, decay=ExponentialDecay(rate=math.log(2.0) / 10.0))
        # At t=10: a's opinion decayed by one half-life to 0.5, b's fresh at 1.0.
        assert omega.evaluate("y", EXECUTION, now=10.0, asking="x") == pytest.approx(0.75)

    def test_future_opinion_rejected(self):
        table = TrustTable()
        table.record("a", "y", EXECUTION, 1.0, time=10.0)
        with pytest.raises(ValueError):
            Reputation(table=table).evaluate("y", EXECUTION, now=5.0, asking="x")


class TestTrustEngine:
    def test_gamma_is_weighted_combination(self):
        engine = make_engine(alpha=0.7, beta=0.3)
        engine.table.record("x", "y", EXECUTION, 1.0, time=0.0)  # direct = 1
        engine.table.record("z", "y", EXECUTION, 0.0, time=0.0)  # reputation = 0
        assert engine.gamma("x", "y", EXECUTION, now=0.0) == pytest.approx(0.7)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_engine(alpha=0.5, beta=0.6)
        with pytest.raises(ValueError):
            make_engine(alpha=-0.2, beta=1.2)

    def test_shared_table_serves_both_roles(self):
        engine = make_engine()
        assert engine.direct.table is engine.reputation.table

    def test_gamma_level_quantises(self):
        engine = make_engine(alpha=1.0, beta=0.0)
        engine.table.record("x", "y", EXECUTION, 0.95, time=0.0)
        assert value_to_level(engine.gamma("x", "y", EXECUTION, now=0.0)) is TrustLevel.F

    def test_unknown_entity_gives_prior_level(self):
        engine = make_engine()
        assert engine.gamma("x", "stranger", EXECUTION, now=0.0) == 0.0
        assert value_to_level(engine.gamma("x", "stranger", EXECUTION, now=0.0)) is TrustLevel.A

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_gamma_stays_in_unit_interval(self, direct_v, rep_v, alpha):
        """Γ is a convex combination of unit-interval components."""
        engine = make_engine(alpha=alpha, beta=1.0 - alpha)
        engine.table.record("x", "y", EXECUTION, direct_v, time=0.0)
        engine.table.record("z", "y", EXECUTION, rep_v, time=0.0)
        gamma = engine.gamma("x", "y", EXECUTION, now=0.0)
        assert 0.0 <= gamma <= 1.0
        assert min(direct_v, rep_v) - 1e-9 <= gamma <= max(direct_v, rep_v) + 1e-9

    def test_decay_flows_through_engine(self):
        engine = make_engine(alpha=1.0, beta=0.0, decay=ExponentialDecay(rate=0.1))
        engine.table.record("x", "y", EXECUTION, 1.0, time=0.0)
        g_now = engine.gamma("x", "y", EXECUTION, now=0.0)
        g_later = engine.gamma("x", "y", EXECUTION, now=50.0)
        assert g_later < g_now

    def test_gamma_feeds_the_latency_histogram(self):
        from repro.obs.metrics import MetricsRegistry

        engine = make_engine()
        engine.table.record("x", "y", EXECUTION, 0.5, time=0.0)
        registry = MetricsRegistry(enabled=True)
        engine.bind_metrics(registry)
        engine.gamma("x", "y", EXECUTION, now=1.0)
        assert registry.histogram("trust.gamma_latency_s").count == 1
