"""Tests for repro.grid.trust_table."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ets import EtsTable
from repro.core.levels import TrustLevel
from repro.errors import ConfigurationError
from repro.grid.trust_table import GridTrustTable


#: Activity mask of one key whose ToA set is activity 0 alone.
ONLY_FIRST = np.array([[True, False, False, False]])


@pytest.fixture
def table() -> GridTrustTable:
    return GridTrustTable(2, 3, 4)


class TestConstruction:
    def test_initial_level_uniform(self, table):
        assert table.get(0, 0, 0) is TrustLevel.A
        assert table.shape == (2, 3, 4)

    def test_initial_level_configurable(self):
        t = GridTrustTable(1, 1, 1, initial_level="C")
        assert t.get(0, 0, 0) is TrustLevel.C

    def test_f_initial_rejected(self):
        with pytest.raises(ValueError):
            GridTrustTable(1, 1, 1, initial_level="F")

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            GridTrustTable(0, 1, 1)

    def test_custom_ets_flows_through(self):
        t = GridTrustTable(1, 1, 1, ets=EtsTable(f_forces_max=False))
        t.set(0, 0, 0, "E")
        assert t.trust_cost(0, 0, [0], "F") == 1
        assert t.ets.f_forces_max is False


class TestSetGet:
    def test_set_and_get(self, table):
        table.set(1, 2, 3, "D")
        assert table.get(1, 2, 3) is TrustLevel.D

    def test_set_f_rejected(self, table):
        with pytest.raises(ValueError):
            table.set(0, 0, 0, TrustLevel.F)

    def test_levels_view_is_read_only(self, table):
        with pytest.raises(ValueError):
            table.levels[0, 0, 0] = 3

    def test_fill_from_validates_shape(self, table):
        with pytest.raises(ValueError, match="shape"):
            table.fill_from(np.ones((2, 3, 5), dtype=np.int64))

    def test_fill_from_validates_range(self, table):
        bad = np.full((2, 3, 4), 6, dtype=np.int64)
        with pytest.raises(ValueError, match=r"\[A, E\]"):
            table.fill_from(bad)

    def test_fill_from(self, table):
        values = np.full((2, 3, 4), 3, dtype=np.int64)
        values[1, 2, 0] = 5
        table.fill_from(values)
        assert table.get(1, 2, 0) is TrustLevel.E
        assert table.get(0, 0, 0) is TrustLevel.C


class TestTrustQueries:
    def test_offered_level_is_minimum_over_activities(self, table):
        table.set(0, 1, 0, "E")
        table.set(0, 1, 1, "B")
        table.set(0, 1, 2, "D")
        assert table.offered_level(0, 1, [0, 1, 2]) is TrustLevel.B
        assert table.offered_level(0, 1, [0, 2]) is TrustLevel.D

    def test_offered_row_spans_rds(self, table):
        table.set(0, 0, 0, "C")
        table.set(0, 1, 0, "E")
        table.set(0, 2, 0, "A")
        rows = table.offered_rows(np.array([0]), ONLY_FIRST)
        assert rows.tolist() == [[3, 5, 1]]

    def test_trust_cost_uses_ets(self, table):
        table.set(0, 0, 0, "B")
        assert table.trust_cost(0, 0, [0], "E") == 3
        assert table.trust_cost(0, 0, [0], "A") == 0
        assert table.trust_cost(0, 0, [0], "F") == 6  # default F override

    def test_trust_cost_row_vectorised(self, table):
        for rd, level in enumerate(["B", "D", "E"]):
            table.set(0, rd, 0, level)
        required = np.full((2, 3), 4)  # RTL = D for every pairing
        costs = table.trust_cost_rows(np.array([0]), ONLY_FIRST, required)
        assert costs.tolist() == [[2, 0, 0]]

    def test_trust_cost_row_shape_mismatch(self, table):
        with pytest.raises(ValueError, match="required_per_pair"):
            table.trust_cost_rows(np.array([0]), ONLY_FIRST, np.array([[1, 2]]))

    def test_empty_activity_set_rejected(self, table):
        with pytest.raises(ValueError):
            table.offered_level(0, 0, [])

    def test_activity_index_out_of_range(self, table):
        with pytest.raises(ValueError):
            table.offered_level(0, 0, [4])

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4, unique=True))
    def test_composed_never_exceeds_atomic(self, activities):
        """Adding activities can only lower (or keep) the OTL."""
        rng = np.random.default_rng(0)
        table = GridTrustTable(1, 1, 4)
        table.fill_from(rng.integers(1, 6, size=(1, 1, 4)))
        composite = int(table.offered_level(0, 0, activities))
        atomics = [int(table.offered_level(0, 0, [a])) for a in activities]
        assert composite == min(atomics)


class TestVectorisedEquivalence:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_trust_cost_row_matches_scalar_lookup(self, seed):
        """Property: the vectorised TC row equals per-RD scalar queries."""
        rng = np.random.default_rng(seed)
        n_cd, n_rd, n_act = 2, 4, 3
        table = GridTrustTable(n_cd, n_rd, n_act)
        table.fill_from(rng.integers(1, 6, size=(n_cd, n_rd, n_act)))
        activities = list(
            rng.choice(n_act, size=int(rng.integers(1, n_act + 1)), replace=False)
        )
        required = rng.integers(1, 7, size=(n_cd, n_rd))
        mask = np.isin(np.arange(n_act), activities)[None, :]
        (row,) = table.trust_cost_rows(np.array([0]), mask, required)
        for rd in range(n_rd):
            assert row[rd] == table.trust_cost(0, rd, activities, int(required[0, rd]))


class TestPerCdEpochs:
    def test_set_bumps_only_its_cd(self):
        table = GridTrustTable(3, 2, 2)
        assert [table.cd_epoch(cd) for cd in range(3)] == [0, 0, 0]
        table.set(1, 0, 0, "C")
        assert [table.cd_epoch(cd) for cd in range(3)] == [0, 1, 0]
        table.set(1, 1, 1, "D")
        assert table.cd_epoch(1) == 2 and table.cd_epoch(0) == 0
        assert table.epoch == 2

    def test_fill_from_bumps_every_cd(self):
        table = GridTrustTable(3, 2, 2)
        table.fill_from(np.full((3, 2, 2), 3, dtype=np.int64))
        assert [table.cd_epoch(cd) for cd in range(3)] == [1, 1, 1]
        assert table.epoch == 1


class TestIndexBounds:
    @pytest.mark.parametrize(
        "cell,axis,index",
        [
            ((-1, 0, 0), "client-domain", -1),
            ((3, 0, 0), "client-domain", 3),
            ((0, -1, 0), "resource-domain", -1),
            ((0, 2, 0), "resource-domain", 2),
            ((0, 0, -2), "activity", -2),
            ((0, 0, 2), "activity", 2),
        ],
    )
    def test_set_and_get_refuse_indices_outside_their_axis(self, cell, axis, index):
        table = GridTrustTable(3, 2, 2)
        before = table.levels.copy()
        with pytest.raises(ConfigurationError, match=f"{axis} index {index} "):
            table.set(*cell, "D")
        with pytest.raises(ConfigurationError, match=f"{axis} index {index} "):
            table.get(*cell)
        assert np.array_equal(table.levels, before)
        assert table.epoch == 0

    def test_negative_cd_cannot_publish_past_the_last_cds_epoch(self):
        # numpy would wrap CD -1 onto CD n-1 while the epoch of "-1" moved,
        # so a trust-cost memo checked against cd_epoch(n-1) kept serving
        # the old row.  The write is refused and no epoch moves.
        table = GridTrustTable(3, 2, 2)
        with pytest.raises(ConfigurationError):
            table.set(-1, 1, 0, "E")
        assert table.get(2, 1, 0) is TrustLevel.A
        assert [table.cd_epoch(cd) for cd in (-1, 0, 1, 2)] == [0, 0, 0, 0]

    def test_get_returns_the_enum_members(self):
        table = GridTrustTable(1, 1, 5)
        table.fill_from(np.arange(1, 6, dtype=np.int64).reshape(1, 1, 5))
        assert [table.get(0, 0, k) for k in range(5)] == list(TrustLevel)[:5]
        assert all(table.get(0, 0, k) is TrustLevel(k + 1) for k in range(5))
