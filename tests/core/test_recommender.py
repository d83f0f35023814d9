"""Tests for repro.core.recommender (alliances and R factors)."""

import time

import pytest

from repro.core.recommender import AllianceRegistry, RecommenderWeights


class TestAllianceRegistry:
    def test_members_of_group_are_allied(self):
        reg = AllianceRegistry()
        reg.declare("axis", ["a", "b", "c"])
        assert reg.allied("a", "b")
        assert reg.allied("c", "a")

    def test_non_members_not_allied(self):
        reg = AllianceRegistry()
        reg.declare("axis", ["a", "b"])
        assert not reg.allied("a", "z")

    def test_self_always_allied(self):
        assert AllianceRegistry().allied("a", "a")

    def test_declare_extends(self):
        reg = AllianceRegistry()
        reg.declare("g", ["a"])
        reg.declare("g", ["b"])
        assert reg.allied("a", "b")

    def test_multiple_groups(self):
        reg = AllianceRegistry()
        reg.declare("g1", ["a", "b"])
        reg.declare("g2", ["b", "c"])
        assert reg.allied("a", "b") and reg.allied("b", "c")
        assert not reg.allied("a", "c")  # alliance is not transitive across groups
        assert reg.allies_of("b") == {"a", "c"}

    def test_dissolve(self):
        reg = AllianceRegistry()
        reg.declare("g", ["a", "b"])
        reg.dissolve("g")
        assert not reg.allied("a", "b")
        with pytest.raises(KeyError):
            reg.dissolve("g")

    def test_groups_listing(self):
        reg = AllianceRegistry()
        reg.declare("g1", ["a"])
        reg.declare("g2", ["b"])
        assert reg.groups() == {"g1", "g2"}

    def test_alliance_transitive_within_group(self):
        # Membership in one named group allies every pair, not just the
        # pairs that were declared together.
        reg = AllianceRegistry()
        reg.declare("g", ["a"])
        reg.declare("g", ["b"])
        reg.declare("g", ["c"])
        assert reg.allied("a", "c")
        assert reg.allies_of("a") == {"b", "c"}

    def test_dissolve_keeps_other_memberships(self):
        reg = AllianceRegistry()
        reg.declare("g1", ["a", "b"])
        reg.declare("g2", ["b", "c"])
        reg.dissolve("g1")
        assert not reg.allied("a", "b")
        assert reg.allied("b", "c")

    def test_allied_is_fast_with_many_groups(self):
        """The entity→groups index keeps ``allied`` O(memberships), not
        O(declared groups): with 20k groups a check must stay well under
        100 µs on average (the un-indexed scan is ~three orders slower)."""
        reg = AllianceRegistry()
        for g in range(20_000):
            reg.declare(f"g{g}", [f"a{g}", f"b{g}", f"c{g}"])
        pairs = [(f"a{i}", f"b{(i * 7) % 20_000}") for i in range(2_000)]
        start = time.perf_counter()
        hits = sum(reg.allied(a, b) for a, b in pairs)
        elapsed = time.perf_counter() - start
        assert hits >= 1  # the i == 0 pair shares g0
        assert elapsed / len(pairs) < 100e-6


class TestRecommenderWeights:
    def test_default_factor_is_full(self):
        assert RecommenderWeights().factor("z", "y") == 1.0

    def test_self_opinion_discounted_without_any_alliance(self):
        # allied(a, a) holds with an empty registry, so R(a, a) keeps the
        # ally discount even though no membership is ever looked up.
        weights = RecommenderWeights(ally_weight=0.25)
        assert weights.alliances.allied("z", "z")
        assert weights.factor("z", "z") == 0.25
        assert weights.factor("z", "y") == 1.0

    def test_allied_recommendation_discounted(self):
        reg = AllianceRegistry()
        reg.declare("cartel", ["z", "y"])
        weights = RecommenderWeights(alliances=reg, ally_weight=0.5)
        assert weights.factor("z", "y") == 0.5
        assert weights.factor("z", "other") == 1.0

    def test_accurate_recommender_keeps_weight(self):
        w = RecommenderWeights(learning_rate=0.5)
        w.observe_outcome("z", predicted=0.8, actual=0.8)
        assert w.accuracy("z") == pytest.approx(1.0)

    def test_inaccurate_recommender_loses_weight(self):
        w = RecommenderWeights(learning_rate=0.5)
        updated = w.observe_outcome("z", predicted=1.0, actual=0.0)
        assert updated == pytest.approx(0.5)
        assert w.factor("z", "y") == pytest.approx(0.5)

    def test_learning_is_ema(self):
        w = RecommenderWeights(learning_rate=0.1, default_accuracy=1.0)
        w.observe_outcome("z", 1.0, 0.0)  # sample 0.0
        assert w.accuracy("z") == pytest.approx(0.9)
        w.observe_outcome("z", 1.0, 1.0)  # sample 1.0
        assert w.accuracy("z") == pytest.approx(0.91)

    def test_alliance_and_accuracy_compose(self):
        reg = AllianceRegistry()
        reg.declare("g", ["z", "y"])
        w = RecommenderWeights(alliances=reg, ally_weight=0.5, learning_rate=1.0)
        w.observe_outcome("z", 1.0, 0.5)  # accuracy 0.5
        assert w.factor("z", "y") == pytest.approx(0.25)

    @pytest.mark.parametrize("pred,actual", [(-0.1, 0.5), (0.5, 1.1)])
    def test_outcome_bounds_checked(self, pred, actual):
        with pytest.raises(ValueError):
            RecommenderWeights().observe_outcome("z", pred, actual)

    @pytest.mark.parametrize("pred,actual", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
    def test_outcome_boundary_values_accepted(self, pred, actual):
        w = RecommenderWeights(learning_rate=1.0)
        assert 0.0 <= w.observe_outcome("z", pred, actual) <= 1.0

    def test_factor_stays_clamped_to_unit_interval(self):
        # Worst-case composition: accuracy driven to 0, alliance discount
        # applied; best case: perfect accuracy, no alliance.  R never
        # leaves [0, 1].
        reg = AllianceRegistry()
        reg.declare("g", ["z", "y"])
        w = RecommenderWeights(alliances=reg, ally_weight=1.0, learning_rate=1.0)
        assert w.factor("z", "y") == 1.0
        for _ in range(5):
            w.observe_outcome("z", 1.0, 0.0)
        assert w.factor("z", "y") == 0.0
        assert all(0.0 <= w.factor("z", t) <= 1.0 for t in ("y", "w"))

    def test_self_recommendation_is_discounted(self):
        # allied(z, z) is always True, so an entity recommending itself is
        # discounted like any clique member even with no declared groups.
        w = RecommenderWeights(ally_weight=0.25)
        assert w.factor("z", "z") == pytest.approx(0.25)
        assert w.factor("z", "other") == 1.0

    def test_transitive_alliance_discounts_recommendation(self):
        # z never declared an alliance *with* y directly; they merely
        # joined the same group at different times.
        reg = AllianceRegistry()
        reg.declare("ring", ["z"])
        reg.declare("ring", ["m"])
        reg.declare("ring", ["y"])
        w = RecommenderWeights(alliances=reg, ally_weight=0.5)
        assert w.factor("z", "y") == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ally_weight": -0.1},
            {"ally_weight": 1.1},
            {"default_accuracy": 2.0},
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RecommenderWeights(**kwargs)
