"""Tests for repro.core.tables (DTT/RTT) and level/value conversion."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import EXECUTION, STORAGE
from repro.core.journal import DurableTrustPlane, apply_op
from repro.core.levels import TrustLevel
from repro.core.tables import TrustRecord, TrustTable, level_to_value, value_to_level
from repro.errors import UnknownEntityError


class TestConversions:
    @pytest.mark.parametrize(
        "value,level",
        [(0.0, TrustLevel.A), (0.17, TrustLevel.B), (0.5, TrustLevel.D), (1.0, TrustLevel.F)],
    )
    def test_value_to_level(self, value, level):
        assert value_to_level(value) is level

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            value_to_level(1.2)
        with pytest.raises(ValueError):
            value_to_level(-0.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_value_to_level_total(self, v):
        assert value_to_level(v) in TrustLevel

    @pytest.mark.parametrize("level", list(TrustLevel))
    def test_roundtrip_through_midpoint(self, level):
        assert value_to_level(level_to_value(level)) is level

    @pytest.mark.parametrize("k", range(7))
    def test_bin_edges_match_the_enum_call(self, k):
        # The tuple lookup must agree with the IntEnum call it replaced at
        # every bin edge and one ulp either side of it.
        edge = k / 6
        for v in (math.nextafter(edge, -1.0), edge, math.nextafter(edge, 2.0)):
            if 0.0 <= v <= 1.0:
                assert value_to_level(v) is TrustLevel(min(int(v * 6) + 1, 6))
        assert value_to_level(0.0) is TrustLevel.A
        assert value_to_level(1.0) is TrustLevel.F

    def test_nan_refused(self):
        with pytest.raises(ValueError):
            value_to_level(math.nan)


class TestTrustRecord:
    def test_level_property(self):
        rec = TrustRecord(value=0.9, last_transaction=10.0)
        assert rec.level is TrustLevel.F

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            TrustRecord(value=1.5, last_transaction=0.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            TrustRecord(value=0.5, last_transaction=0.0, transaction_count=-1)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_refused_by_record(self, time):
        table = TrustTable()
        with pytest.raises(ValueError, match=f"finite, got {time}"):
            table.record("x", "y", EXECUTION, 0.5, time)
        assert len(table) == 0 and table.epoch == 0

    @pytest.mark.parametrize("time", [math.nan, math.inf])
    def test_non_finite_time_refused_by_replay(self, time):
        table = TrustTable()
        op = {"op": "record", "z": "x", "y": "y", "c": EXECUTION.name,
              "v": 0.5, "t": time, "n": 1, "e": 1}
        with pytest.raises(ValueError, match=f"finite, got {time}"):
            apply_op(op, table=table)
        assert len(table) == 0


class TestTrustTable:
    def test_record_and_get(self):
        table = TrustTable()
        table.record("x", "y", EXECUTION, 0.8, time=5.0)
        rec = table.get("x", "y", EXECUTION)
        assert rec is not None
        assert rec.value == 0.8
        assert rec.last_transaction == 5.0

    def test_get_missing_returns_none(self):
        assert TrustTable().get("x", "y", EXECUTION) is None

    def test_require_missing_raises(self):
        with pytest.raises(UnknownEntityError):
            TrustTable().require("x", "y", EXECUTION)

    def test_contexts_are_independent(self):
        table = TrustTable()
        table.record("x", "y", EXECUTION, 0.9, time=1.0)
        table.record("x", "y", STORAGE, 0.1, time=1.0)
        assert table.get("x", "y", EXECUTION).value == 0.9
        assert table.get("x", "y", STORAGE).value == 0.1

    def test_self_trust_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            TrustTable().record("x", "x", EXECUTION, 0.5, time=0.0)

    def test_overwrite_replaces(self):
        table = TrustTable()
        table.record("x", "y", EXECUTION, 0.2, time=1.0)
        table.record("x", "y", EXECUTION, 0.7, time=2.0)
        assert table.get("x", "y", EXECUTION).value == 0.7
        assert len(table) == 1

    def test_remove(self):
        table = TrustTable()
        table.record("x", "y", EXECUTION, 0.2, time=1.0)
        table.remove("x", "y", EXECUTION)
        assert table.get("x", "y", EXECUTION) is None
        with pytest.raises(KeyError):
            table.remove("x", "y", EXECUTION)

    def test_recommenders_exclude_asker_and_other_targets(self):
        table = TrustTable()
        table.record("a", "y", EXECUTION, 0.5, time=1.0)
        table.record("b", "y", EXECUTION, 0.6, time=1.0)
        table.record("c", "z", EXECUTION, 0.7, time=1.0)  # different target
        table.record("x", "y", EXECUTION, 0.8, time=1.0)  # the asker's own view
        got = dict(
            (z, rec.value) for z, rec in table.recommenders("y", EXECUTION, excluding="x")
        )
        assert got == {"a": 0.5, "b": 0.6}

    def test_entities_tracks_both_sides(self):
        table = TrustTable()
        table.record("x", "y", EXECUTION, 0.5, time=1.0)
        assert table.entities() == {"x", "y"}

    def test_iteration_and_items(self):
        table = TrustTable()
        table.record("x", "y", EXECUTION, 0.5, time=1.0)
        keys = list(table)
        assert keys == [("x", "y", EXECUTION)]
        items = list(table.items())
        assert items[0][0] == ("x", "y", EXECUTION)
        assert ("x", "y", EXECUTION) in table

    def test_epoch_counts_every_mutation(self):
        table = TrustTable()
        table.record("x", "y", EXECUTION, 0.5, 1.0)
        table.record("x", "y", EXECUTION, 0.6, 2.0)  # overwrite
        table.remove("x", "y", EXECUTION)
        assert table.epoch == 3

    def test_entities_of_live_and_recovered_tables_agree_after_remove(self, tmp_path):
        table = TrustTable()
        table.record("a", "b", EXECUTION, 0.5, 1.0)
        table.record("x", "y", EXECUTION, 0.6, 1.0)
        table.remove("x", "y", EXECUTION)
        DurableTrustPlane.create(tmp_path, table).close()
        recovered = DurableTrustPlane.recover(tmp_path)
        try:
            assert table.entities() == recovered.table.entities() == {"a", "b"}
        finally:
            recovered.close()


# Few trustees and contexts, so overwrites, removes and re-records of keys
# sharing a (trustee, context) bucket are common.
ENTITIES = ("e0", "e1", "e2", "e3", "e4")
TRUSTEES = ENTITIES[:3]
CONTEXTS = (EXECUTION, STORAGE)

_mutations = st.lists(
    st.tuples(
        st.sampled_from(("record", "record", "remove")),
        st.sampled_from(ENTITIES),
        st.sampled_from(TRUSTEES),
        st.sampled_from(CONTEXTS),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=8,
    max_size=60,
)


def _scan_recommenders(table, trustee, context, excluding):
    """The full-table scan the (trustee, context) index replaces."""
    return [
        (z, rec)
        for (z, y, c), rec in table.items()
        if y == trustee and c == context and z != excluding
    ]


def _assert_index_matches_scan(table):
    for trustee in TRUSTEES:
        for context in CONTEXTS:
            assert list(
                table.opinions(trustee, context).items()
            ) == _scan_recommenders(table, trustee, context, object())
            for excluding in ENTITIES:
                assert list(
                    table.recommenders(trustee, context, excluding=excluding)
                ) == _scan_recommenders(table, trustee, context, excluding)


@settings(max_examples=60, deadline=None)
@given(ops=_mutations)
def test_recommender_index_matches_full_scan(tmp_path_factory, ops):
    """Record, overwrite, remove (absent keys raise ``KeyError``) and
    re-record in any order: the index yields exactly the scan's
    recommenders, in the scan's order — also after a create → recover
    round trip."""
    table = TrustTable()
    for i, (op, z, y, c, value) in enumerate(ops):
        if z == y:
            continue
        if op == "record":
            table.record(z, y, c, value, float(i))
        elif (z, y, c) in table:
            table.remove(z, y, c)
        else:
            with pytest.raises(KeyError):
                table.remove(z, y, c)
    _assert_index_matches_scan(table)
    root = tmp_path_factory.mktemp("plane")
    DurableTrustPlane.create(root, table).close()
    recovered = DurableTrustPlane.recover(root)
    try:
        _assert_index_matches_scan(recovered.table)
        assert list(recovered.table.items()) == list(table.items())
    finally:
        recovered.close()
