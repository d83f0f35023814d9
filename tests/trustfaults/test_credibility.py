"""Tests for outcome-driven credibility purging."""

import pytest

from repro.core.context import TrustContext
from repro.core.reputation import Reputation
from repro.core.tables import TrustTable
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.trustfaults.credibility import CredibilityWeights


class TestPurging:
    def test_zero_threshold_never_purges(self):
        w = CredibilityWeights(learning_rate=1.0, purge_threshold=0.0)
        for _ in range(10):
            w.observe_outcome("z", predicted=1.0, actual=0.0)
        assert w.purged == frozenset()
        assert w.factor("z", "y") == pytest.approx(0.0)  # soft weight only

    def test_persistent_deviation_purges(self):
        w = CredibilityWeights(
            learning_rate=0.5, purge_threshold=0.4, min_observations=3
        )
        for _ in range(3):
            w.observe_outcome("z", predicted=1.0, actual=0.0)
        assert w.purged == frozenset({"z"})
        assert w.factor("z", "anyone") == 0.0

    def test_min_observations_protects_early_samples(self):
        w = CredibilityWeights(
            learning_rate=1.0, purge_threshold=0.5, min_observations=3
        )
        w.observe_outcome("z", predicted=1.0, actual=0.0)  # accuracy 0
        assert w.purged == frozenset()  # one unlucky sample is not enough
        w.observe_outcome("z", predicted=1.0, actual=0.0)
        assert w.purged == frozenset()
        w.observe_outcome("z", predicted=1.0, actual=0.0)  # the third counts
        assert w.purged == frozenset({"z"})

    def test_accurate_recommender_never_purged(self):
        w = CredibilityWeights(
            learning_rate=0.5, purge_threshold=0.4, min_observations=1
        )
        for _ in range(20):
            w.observe_outcome("z", predicted=0.9, actual=0.85)
        assert w.purged == frozenset()
        assert w.factor("z", "y") > 0.9

    def test_purge_is_permanent(self):
        w = CredibilityWeights(
            learning_rate=1.0, purge_threshold=0.5, min_observations=1
        )
        w.observe_outcome("z", predicted=1.0, actual=0.0)
        assert "z" in w.purged
        for _ in range(50):
            w.observe_outcome("z", predicted=0.9, actual=0.9)
        assert "z" in w.purged  # no rehabilitation by design

    def test_purges_metered_once(self):
        metrics = MetricsRegistry(enabled=True)
        w = CredibilityWeights(
            learning_rate=1.0,
            purge_threshold=0.5,
            min_observations=1,
            metrics=metrics,
        )
        for _ in range(4):
            w.observe_outcome("z", predicted=1.0, actual=0.0)
        assert (
            metrics.snapshot()["trustq.purged_recommenders"]["value"] == 1
        )

    @pytest.mark.parametrize(
        "kwargs",
        [{"purge_threshold": -0.1}, {"purge_threshold": 1.1},
         {"min_observations": 0}],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CredibilityWeights(**kwargs)


class TestReputationIntegration:
    def test_purged_recommender_leaves_the_average_entirely(self):
        """A purged badmouther must not drag its target down as a zero."""
        context = TrustContext("execute")
        table = TrustTable()
        table.record("honest", "target", context, 0.9, 10.0)
        table.record("liar", "target", context, 0.0, 10.0)
        weights = CredibilityWeights(
            learning_rate=1.0, purge_threshold=0.5, min_observations=1
        )
        rep = Reputation(table=table, weights=weights)
        before = rep.evaluate("target", context, 10.0, asking="asker")
        assert before == pytest.approx((0.9 + 0.0) / 2)
        weights.observe_outcome("liar", predicted=0.0, actual=0.9)
        after = rep.evaluate("target", context, 10.0, asking="asker")
        assert after == pytest.approx(0.9)  # count excludes the purged liar

    def test_all_purged_falls_back_to_prior(self):
        context = TrustContext("execute")
        table = TrustTable()
        table.record("liar", "target", context, 0.0, 0.0)
        weights = CredibilityWeights(
            learning_rate=1.0, purge_threshold=0.5, min_observations=1
        )
        weights.observe_outcome("liar", predicted=0.0, actual=1.0)
        rep = Reputation(table=table, weights=weights, unknown_prior=0.42)
        assert rep.evaluate("target", context, 1.0, asking="asker") == 0.42
