"""Tests for repro.grid.activities."""

import pickle

import pytest

from repro.core.context import TrustContext
from repro.grid.activities import ActivityCatalog, ActivitySet, ActivityType


class TestActivityType:
    def test_context_bridge(self):
        a = ActivityType(index=0, name="execute")
        assert a.context.name == "execute"

    def test_context_is_built_once(self):
        a = ActivityType(index=2, name="store")
        assert a.context == TrustContext("store")
        assert a.context is a.context

    def test_context_leaves_identity_alone(self):
        a, b = ActivityType(1, "x"), ActivityType(1, "x")
        assert a == b and hash(a) == hash(b)
        assert a != ActivityType(2, "x") and a != ActivityType(1, "y")
        assert repr(a) == "ActivityType(index=1, name='x')"
        restored = pickle.loads(pickle.dumps(a))
        assert restored == a and hash(restored) == hash(a)
        assert restored.context == TrustContext("x")

    def test_validation(self):
        with pytest.raises(ValueError):
            ActivityType(index=-1, name="x")
        with pytest.raises(ValueError):
            ActivityType(index=0, name="")


class TestActivityCatalog:
    def test_dense_indices_in_registration_order(self):
        catalog = ActivityCatalog(["a", "b", "c"])
        assert [act.index for act in catalog] == [0, 1, 2]
        assert catalog.by_index(1).name == "b"

    def test_register_is_idempotent(self):
        catalog = ActivityCatalog()
        first = catalog.register("x")
        second = catalog.register("x")
        assert first is second
        assert len(catalog) == 1

    def test_contains(self):
        catalog = ActivityCatalog(["a"])
        assert "a" in catalog and "b" not in catalog

    def test_default_catalog_matches_paper(self):
        catalog = ActivityCatalog.default()
        assert len(catalog) == 4
        assert catalog.by_index(0).name == "toa-0"

    def test_default_rejects_zero(self):
        with pytest.raises(ValueError):
            ActivityCatalog.default(0)


class TestActivitySet:
    def test_atomic(self):
        a = ActivityType(0, "x")
        s = ActivitySet.of(a)
        assert s.indices == (0,)
        assert len(s) == 1

    def test_composed(self):
        catalog = ActivityCatalog(["a", "b", "c"])
        s = ActivitySet.of([catalog.by_index(0), catalog.by_index(2)])
        assert len(s) == 2
        assert s.indices == (0, 2)
        assert [x.name for x in s] == ["a", "c"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ActivitySet(())

    def test_duplicates_rejected(self):
        a = ActivityType(0, "x")
        with pytest.raises(ValueError):
            ActivitySet.of([a, a])

    def test_sorted_indices_are_built_once(self):
        catalog = ActivityCatalog(["a", "b", "c", "d"])
        s = ActivitySet.of([catalog.by_index(3), catalog.by_index(0), catalog.by_index(2)])
        assert s.indices == (3, 0, 2)
        assert s.sorted_indices == (0, 2, 3)
        assert s.sorted_indices is s.sorted_indices

    def test_sorted_indices_leave_identity_alone(self):
        catalog = ActivityCatalog(["a", "b", "c"])
        a, c = catalog.by_index(0), catalog.by_index(2)
        s, t = ActivitySet.of([c, a]), ActivitySet.of([c, a])
        assert s == t and hash(s) == hash(t) == hash((s.activities,))
        # Member order still distinguishes sets, as before.
        assert s != ActivitySet.of([a, c])
        assert repr(s) == f"ActivitySet(activities={s.activities!r})"

    def test_pickle_carries_only_the_activities(self):
        catalog = ActivityCatalog(["a", "b", "c"])
        s = ActivitySet.of([catalog.by_index(2), catalog.by_index(1)])
        # The pickled state is the one field; the sorted indices are rebuilt.
        assert s.__reduce_ex__(2)[2] == {"activities": s.activities}
        restored = pickle.loads(pickle.dumps(s))
        assert restored == s and hash(restored) == hash(s)
        assert restored.sorted_indices == (1, 2)
