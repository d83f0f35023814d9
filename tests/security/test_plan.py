"""Tests for per-request security planning."""

import pytest

from repro.grid.activities import ActivityCatalog, ActivitySet
from repro.security.overhead import DEFAULT_LADDER
from repro.security.plan import plan_supplement


@pytest.fixture
def catalog():
    return ActivityCatalog(["execute", "store", "print"])


def acts(catalog, *names):
    by_name = {activity.name: activity for activity in catalog}
    return ActivitySet.of([by_name[n] for n in names])


class TestPlanSupplement:
    def test_zero_tc_is_trivial(self, catalog):
        plan = plan_supplement(acts(catalog, "execute"), 0)
        assert plan.is_trivial
        assert plan.overhead_fraction == 0.0
        assert "no supplemental security" in plan.describe()

    def test_total_overhead_matches_ladder(self, catalog):
        for tc in range(7):
            plan = plan_supplement(acts(catalog, "execute", "store"), tc)
            assert plan.overhead_fraction == pytest.approx(
                DEFAULT_LADDER.overhead(tc)
            )

    def test_mechanisms_distributed_over_activities(self, catalog):
        plan = plan_supplement(acts(catalog, "execute", "store"), 4)
        per_activity = {a.activity_name: len(a.mechanisms) for a in plan.activities}
        # Four engaged rungs over two activities: two each (round-robin).
        assert per_activity == {"execute": 2, "store": 2}

    def test_atomic_activity_gets_everything(self, catalog):
        plan = plan_supplement(acts(catalog, "print"), 3)
        assert len(plan.activities) == 1
        assert len(plan.activities[0].mechanisms) == 3

    def test_describe_lists_mechanisms(self, catalog):
        text = plan_supplement(acts(catalog, "execute"), 2).describe()
        assert "integrity checksums" in text
        assert "wire encryption" in text
        assert "total overhead" in text

    def test_tc_bounds(self, catalog):
        with pytest.raises(ValueError):
            plan_supplement(acts(catalog, "execute"), -1)
        with pytest.raises(ValueError):
            plan_supplement(acts(catalog, "execute"), 7)

    def test_plan_consistent_with_linear_model_scale(self, catalog):
        """Plans stay within ~where the paper's linear model puts them."""
        from repro.security.overhead import linear_supplement_fraction

        for tc in range(7):
            plan = plan_supplement(acts(catalog, "execute"), tc)
            linear = linear_supplement_fraction(tc)
            assert abs(plan.overhead_fraction - linear) < 0.12
