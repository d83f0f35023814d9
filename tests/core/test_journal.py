"""Unit tests for the trust-plane write-ahead journal.

Covers the frame codec (CRC-32 check vector, byte identity of every frame
with ``json.dumps``, torn/short/corrupt tails),
:class:`~repro.core.journal.JournalWriter` round trips and pinned-prefix
refusal, replay epoch verification, the fsync seam, and
:class:`~repro.core.journal.DurableTrustPlane` lifecycle — create,
recover, checkpoint, compaction, generation retention, and rollback to a
pinned generation.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.context import TrustContext
from repro.core.journal import (
    JOURNAL_SCHEMA,
    DurableTrustPlane,
    JournalConfig,
    JournalWriter,
    TrustJournalError,
    _frame as journal_frame,
    apply_op,
    read_journal,
    set_sync_hook,
)
from repro.core.recommender import RecommenderWeights
from repro.core.tables import TrustTable
from repro.grid.activities import ActivityCatalog
from repro.grid.agents import AgentFleet
from repro.grid.behavior import StationaryBehavior
from repro.grid.trust_table import GridTrustTable
from repro.obs import MetricsRegistry

EXECUTE = TrustContext("execute")
_FRAME = struct.Struct("<II")


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _raw_journal(tmp_path, payloads, name="j.wal"):
    path = tmp_path / name
    header = json.dumps(
        {"op": "header", "schema": JOURNAL_SCHEMA, "base": None}
    ).encode()
    blob = _frame(header) + b"".join(_frame(p) for p in payloads)
    path.write_bytes(blob)
    return path


class TestFrameChecksum:
    def test_check_vector(self):
        # The standard CRC-32 check value of the frame checksum.
        assert zlib.crc32(b"123456789") == 0xCBF43926

    def test_writer_frames_carry_zlib_crc32(self, tmp_path):
        path = tmp_path / "j.wal"
        JournalWriter.create(path).close()
        data = path.read_bytes()
        length, crc = _FRAME.unpack_from(data)
        assert len(data) == _FRAME.size + length
        assert crc == zlib.crc32(data[_FRAME.size :])

    def test_empty_and_incremental(self):
        assert zlib.crc32(b"") == 0
        assert zlib.crc32(b"ab") != zlib.crc32(b"ba")


class TestFrameCodec:
    def test_round_trip(self, tmp_path):
        ops = [{"op": "record", "z": "a", "y": "b", "c": "execute",
                "v": 0.5, "t": 1.0, "n": 1, "e": 1}]
        path = _raw_journal(
            tmp_path, [json.dumps(o, sort_keys=True).encode() for o in ops]
        )
        replay = read_journal(path)
        assert replay.ops == tuple(ops)
        assert not replay.truncated
        assert replay.valid_bytes == path.stat().st_size

    def test_short_header_truncates_to_zero_ops(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(b"\x04\x00")  # half a frame header
        replay = read_journal(path)
        assert replay.truncated
        assert replay.header is None
        assert replay.ops == ()
        assert replay.valid_bytes == 0

    def test_torn_payload_truncates(self, tmp_path):
        path = _raw_journal(tmp_path, [b'{"op": "remove", "z": "a"}'])
        good = path.stat().st_size
        path.write_bytes(path.read_bytes() + _frame(b'{"op": "x"}')[:-3])
        replay = read_journal(path)
        assert replay.truncated
        assert replay.valid_bytes == good
        assert len(replay.ops) == 1

    def test_crc_mismatch_truncates(self, tmp_path):
        payload = b'{"op": "remove", "z": "a"}'
        path = _raw_journal(tmp_path, [payload])
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # corrupt the last payload byte
        path.write_bytes(bytes(data))
        replay = read_journal(path)
        assert replay.truncated
        assert replay.reason is not None and "crc" in replay.reason.lower()
        assert replay.ops == ()

    def test_all_zero_tail_is_torn_not_fatal(self, tmp_path):
        # zlib.crc32(b"") == 0, so a zeroed region decodes as a "valid" empty
        # frame; the undecodable-JSON rule must classify it as torn.
        path = _raw_journal(tmp_path, [b'{"op": "remove", "z": "a"}'])
        good = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00" * 64)
        replay = read_journal(path)
        assert replay.truncated
        assert replay.valid_bytes == good

    def test_wrong_schema_refused(self, tmp_path):
        path = tmp_path / "j.wal"
        header = json.dumps({"op": "header", "schema": "bogus/v9"}).encode()
        path.write_bytes(_frame(header))
        with pytest.raises(TrustJournalError, match="schema"):
            read_journal(path)

    def test_base_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.wal"
        header = json.dumps(
            {"op": "header", "schema": JOURNAL_SCHEMA, "base": "aa" * 32}
        ).encode()
        path.write_bytes(_frame(header))
        with pytest.raises(TrustJournalError, match="base"):
            read_journal(path, expected_base="bb" * 32)

    def test_torn_frames_counter(self, tmp_path):
        path = _raw_journal(tmp_path, [b'{"op": "remove", "z": "a"}'])
        path.write_bytes(path.read_bytes() + b"\xff\xff\xff\xff")
        metrics = MetricsRegistry()
        read_journal(path, metrics=metrics)
        assert metrics.counter("store.torn_frames").value == 1


def _json_frame(op) -> bytes:
    return _frame(json.dumps(op, separators=(",", ":"), sort_keys=True).encode())


# Ids and values the encoder must spell exactly as json.dumps does: text with
# quotes, backslashes, control characters and non-ASCII (a lone surrogate
# too), bools beside ints, numpy scalars, -0.0, subnormals, non-finite
# floats and ints far past 64 bits.
_texts = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\t", "é", "日本", "\ud800", "🙂"]),
)
_big_ints = st.integers(min_value=-(2**200), max_value=2**200)
_exact_ints = st.one_of(st.integers(min_value=0, max_value=1 << 20), _big_ints)
_exact_floats = st.one_of(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
_ints = st.one_of(
    _exact_ints,
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
)
_floats = st.one_of(
    _exact_floats,
    st.floats(),
    st.floats(allow_nan=False).map(np.float64),
)


@st.composite
def _ops(draw):
    kind = draw(st.sampled_from(["record", "set", "observe", "fill", "declare"]))
    # Half the ops carry only exact str/int/float fields under exactly their
    # own keys, the shape the encoder writes directly (non-finite floats
    # aside); the rest mix in bools, numpy scalars and missing or extra keys.
    exact = draw(st.booleans())
    ints = _exact_ints if exact else _ints
    floats = _exact_floats if exact else _floats
    ids = _texts | ints
    if kind == "record":
        op = {"op": kind, "z": draw(ids), "y": draw(ids), "c": draw(_texts),
              "v": draw(floats), "t": draw(floats), "n": draw(ints), "e": draw(ints)}
    elif kind == "set":
        op = {"op": kind, "cd": draw(ints), "rd": draw(ints), "k": draw(ints),
              "l": draw(ints), "e": draw(ints)}
    elif kind == "observe":
        op = {"op": kind, "z": draw(ids), "p": draw(floats), "a": draw(floats),
              "e": draw(ints)}
    elif kind == "fill":
        op = {"op": kind, "levels": draw(st.lists(ints, max_size=4)),
              "shape": draw(st.lists(ints, max_size=3)), "e": draw(ints)}
    else:
        op = {"op": kind, "g": draw(_texts), "m": draw(st.lists(ids, max_size=3)),
              "e": draw(ints)}
    if exact:
        return op
    if draw(st.booleans()):
        del op[draw(st.sampled_from(sorted(k for k in op if k != "op")))]
    extra_keys = st.text(max_size=3).filter(lambda k: k not in ("op", "z", "y", "g"))
    op.update(draw(st.dictionaries(extra_keys, _floats | _ints | _texts, max_size=2)))
    return op


class TestFrameBytes:
    """``_frame`` writes the hot ops without the encoder; every frame must
    still be byte-identical to the ``json.dumps`` one."""

    @given(_ops())
    def test_frame_equals_json_dumps_frame(self, op):
        try:
            expected = _json_frame(op)
        except (TypeError, ValueError):
            with pytest.raises(TrustJournalError):
                journal_frame(op)
        else:
            assert journal_frame(op) == expected

    def test_equal_ids_of_other_types_keep_their_spelling(self):
        # 1 == True == 1.0 share a dict key; the id spelling cache must not
        # hand one's spelling to another, in whatever order they arrive.
        for entity in (1, True, 1, False, 0, "1", True, 1.0):
            op = {"op": "record", "z": "cd:0", "y": entity, "c": "execute",
                  "v": 0.5, "t": 1.0, "n": 1, "e": 1}
            if isinstance(entity, float):
                with pytest.raises(TrustJournalError, match="entity ids"):
                    journal_frame(op)
            else:
                assert journal_frame(op) == _json_frame(op)

    @pytest.mark.parametrize(
        "op",
        [
            {"op": "record", "z": "a", "y": "b", "c": "x", "v": 0.5, "t": 1.0,
             "n": 1, "e": 10**5000},
            {"op": "set", "cd": 10**5000, "rd": 0, "k": 0, "l": 1, "e": 1},
        ],
    )
    def test_int_past_the_digit_limit_is_refused_typed(self, op):
        # json.dumps refuses such an int with a ValueError; the direct
        # spelling must hand it over rather than raise untyped.
        with pytest.raises(TrustJournalError, match="not JSON-representable"):
            journal_frame(op)

    def test_seeded_fleet_journal_equals_json_dumps_frames(self, tmp_path):
        grid = GridTrustTable(3, 4, 2)
        fleet = AgentFleet.for_table(grid, gamma_weights=(0.7, 0.3))
        weights = fleet.cd_agents[0].engine.reputation.weights
        plane = DurableTrustPlane.create(
            tmp_path / "plane", fleet.internal_table, weights, grid_table=grid
        )
        activities = list(ActivityCatalog.default(2))
        rng = np.random.default_rng(11)
        behavior = [StationaryBehavior(mean=m) for m in (0.2, 0.5, 0.75, 0.95)]
        for step in range(300):
            cd, rd = int(rng.integers(3)), int(rng.integers(4))
            activity = activities[int(rng.integers(2))]
            now = step * 0.75
            satisfaction = behavior[rd].sample(now, rng)
            fleet.cd_agents[cd].observe_transaction(rd, activity, satisfaction, now)
            fleet.rd_agents[rd].observe_transaction(cd, activity, satisfaction, now)
        weights.observe_outcome("cd:0", 0.4, 0.6)
        weights.alliances.declare("g", ["cd:0", "rd:1"])
        plane.close()
        path = plane.journal_path
        replay = read_journal(path)
        kinds = [op["op"] for op in replay.ops]
        assert kinds.count("record") == 600 and kinds.count("set") > 0
        reframed = _json_frame(replay.header) + b"".join(
            _json_frame(op) for op in replay.ops
        )
        assert path.read_bytes() == reframed


class TestPinnedPrefix:
    def test_upto_beyond_file_refused(self, tmp_path):
        path = _raw_journal(tmp_path, [b'{"op": "remove", "z": "a"}'])
        with pytest.raises(TrustJournalError, match="pinned"):
            read_journal(path, upto=path.stat().st_size + 100)

    def test_tear_inside_pin_refused(self, tmp_path):
        path = _raw_journal(tmp_path, [b'{"op": "remove", "z": "a"}'])
        size = path.stat().st_size
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TrustJournalError, match="pinned"):
            read_journal(path, upto=size)

    def test_tear_beyond_pin_ignored(self, tmp_path):
        path = _raw_journal(
            tmp_path,
            [b'{"op": "remove", "z": "a"}', b'{"op": "remove", "z": "b"}'],
        )
        size = path.stat().st_size
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # tear only the second op
        path.write_bytes(bytes(data))
        pin = size - len(_frame(b'{"op": "remove", "z": "b"}'))
        # Bytes past the pin belong to an abandoned timeline: the torn
        # frame there is sliced away, not even inspected.
        replay = read_journal(path, upto=pin)
        assert not replay.truncated
        assert replay.valid_bytes == pin
        assert len(replay.ops) == 1


class TestJournalWriter:
    def test_append_sync_round_trip(self, tmp_path):
        path = tmp_path / "j.wal"
        w = JournalWriter.create(path)
        op = {"op": "declare", "g": "g0", "m": ["a", "b"], "e": 1}
        w.append(op)
        assert w.pending_bytes > 0
        w.sync()
        assert w.pending_bytes == 0
        w.close()
        assert read_journal(path).ops == (op,)

    def test_unsynced_appends_not_durable(self, tmp_path):
        path = tmp_path / "j.wal"
        w = JournalWriter.create(path)
        w.append({"op": "dissolve", "g": "g0", "e": 1})
        offset = w.synced_offset
        w.abandon()  # simulate a crash: buffered bytes are lost
        replay = read_journal(path)
        assert replay.ops == ()
        assert replay.valid_bytes == offset

    def test_open_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "j.wal"
        w = JournalWriter.create(path)
        w.append({"op": "dissolve", "g": "g0", "e": 1})
        w.sync()
        w.close()
        path.write_bytes(path.read_bytes() + b"\x01\x02\x03")
        w = JournalWriter.open(path)
        assert path.stat().st_size == w.synced_offset
        w.append({"op": "dissolve", "g": "g1", "e": 2})
        w.sync()
        w.close()
        assert [o["g"] for o in read_journal(path).ops] == ["g0", "g1"]

    def test_append_validates_field_types(self, tmp_path):
        w = JournalWriter.create(tmp_path / "j.wal")
        with pytest.raises(TrustJournalError):
            w.append({"op": "declare", "g": object(), "e": 1})
        w.close()

    def test_metrics_counter(self, tmp_path):
        metrics = MetricsRegistry()
        w = JournalWriter.create(tmp_path / "j.wal", metrics=metrics)
        w.append({"op": "dissolve", "g": "g0", "e": 1})
        w.sync()
        w.close()
        assert metrics.counter("store.journal_appends").value == 1


class TestApplyOp:
    def test_epoch_mismatch_detected(self, tmp_path):
        table = TrustTable()
        weights = RecommenderWeights()
        grid = GridTrustTable(2, 2, 2)
        op = {"op": "record", "z": "a", "y": "b", "c": "execute",
              "v": 0.5, "t": 1.0, "n": 1, "e": 99}
        with pytest.raises(TrustJournalError, match="epoch"):
            apply_op(
                op, table=table, weights=weights, alliances=None,
                grid_table=grid, path=tmp_path / "j.wal", index=1,
            )

    def test_unknown_op_refused(self, tmp_path):
        with pytest.raises(TrustJournalError, match="unknown"):
            apply_op(
                {"op": "frobnicate", "e": 0},
                table=TrustTable(), weights=RecommenderWeights(),
                alliances=None, grid_table=None,
                path=tmp_path / "j.wal", index=1,
            )

    def test_remove_missing_key_refused(self, tmp_path):
        op = {"op": "remove", "z": "a", "y": "b", "c": "execute", "e": 1}
        with pytest.raises(TrustJournalError):
            apply_op(
                op, table=TrustTable(), weights=RecommenderWeights(),
                alliances=None, grid_table=None,
                path=tmp_path / "j.wal", index=1,
            )


def _plane(tmp_path, **kwargs):
    table = TrustTable()
    weights = RecommenderWeights()
    grid = GridTrustTable(2, 3, 2)
    return DurableTrustPlane.create(
        tmp_path / "plane", table, weights, grid_table=grid, **kwargs
    )


class TestDurableTrustPlane:
    def test_create_recover_empty(self, tmp_path):
        plane = _plane(tmp_path)
        plane.close()
        rec = DurableTrustPlane.recover(tmp_path / "plane")
        assert rec.recovered_ops == 0
        assert rec.generation == 0
        rec.close()

    def test_mutations_replay(self, tmp_path):
        plane = _plane(tmp_path)
        plane.table.record("a", "b", EXECUTE, 0.7, 1.0)
        plane.weights.observe_outcome("a", 0.8, 0.6)
        plane.weights.alliances.declare("g0", ["a", "b"])
        plane.grid_table.set(0, 1, 0, 3)
        plane.checkpoint()
        plane.close()
        rec = DurableTrustPlane.recover(tmp_path / "plane")
        assert rec.recovered_ops == 4
        assert rec.table.get("a", "b", EXECUTE).value == 0.7
        assert "a" in rec.weights._accuracy
        assert sorted(rec.weights.alliances._groups["g0"]) == ["a", "b"]
        assert int(rec.grid_table.levels[0, 1, 0]) == 3
        # Epoch counters restore exactly, not merely >= replay counts.
        assert rec.table.epoch == plane.table.epoch
        assert rec.grid_table.epoch == plane.grid_table.epoch
        rec.close()

    def test_record_fields_survive_recovery(self, tmp_path):
        table = TrustTable()
        table.record("cd:0", "rd:1", EXECUTE, 0.8, time=5.0, transaction_count=3)
        table.record("rd:1", 7, EXECUTE, 0.6, time=9.0)
        plane = DurableTrustPlane.create(tmp_path / "plane", table)
        plane.table.record("cd:0", "rd:2", EXECUTE, 0.3, time=7.0)
        plane.close()
        rec = DurableTrustPlane.recover(tmp_path / "plane")
        assert len(rec.table) == 3
        # The base and the journal tail both keep value, time and count.
        for z, y, value, time, count in (
            ("cd:0", "rd:1", 0.8, 5.0, 3),
            ("rd:1", 7, 0.6, 9.0, 1),
            ("cd:0", "rd:2", 0.3, 7.0, 1),
        ):
            record = rec.table.get(z, y, EXECUTE)
            assert record.value == value
            assert record.last_transaction == time
            assert record.transaction_count == count
        rec.close()

    def test_contexts_match_by_name_after_recovery(self, tmp_path):
        table = TrustTable()
        table.record("cd:0", "rd:2", TrustContext("store"), 0.3, time=7.0)
        DurableTrustPlane.create(tmp_path / "plane", table).close()
        rec = DurableTrustPlane.recover(tmp_path / "plane")
        # A freshly constructed context with the same name resolves.
        assert rec.table.get("cd:0", "rd:2", TrustContext("store")) is not None
        rec.close()

    def test_unsynced_tail_lost_on_recovery(self, tmp_path):
        plane = _plane(tmp_path)
        plane.table.record("a", "b", EXECUTE, 0.7, 1.0)
        plane.checkpoint()
        plane.table.record("a", "c", EXECUTE, 0.9, 2.0)  # never synced
        rec = DurableTrustPlane.recover(tmp_path / "plane")
        assert rec.recovered_ops == 1
        assert rec.table.get("a", "c", EXECUTE) is None
        rec.close()

    def test_torn_tail_truncation_passes_the_sync_hook(self, tmp_path):
        plane = _plane(tmp_path)
        plane.table.record("a", "b", EXECUTE, 0.7, 1.0)
        plane.checkpoint()
        plane.close()
        journal = tmp_path / "plane" / "journal-0.wal"
        journal.write_bytes(journal.read_bytes() + b"\x01\x02\x03")
        events = []
        set_sync_hook(lambda phase, kind, path: events.append((phase, kind, path)))
        try:
            rec = DurableTrustPlane.recover(tmp_path / "plane")
        finally:
            set_sync_hook(None)
        assert rec.recovered_truncated
        assert ("before", "file", journal) in events
        assert ("after", "file", journal) in events
        rec.close()

    def test_compaction_folds_tail_and_prunes(self, tmp_path):
        plane = _plane(
            tmp_path,
            config=JournalConfig(keep_generations=0, min_compact_bytes=1 << 30),
        )
        for i in range(6):
            plane.table.record("a", f"b{i}", EXECUTE, 0.5, float(i + 1))
        plane.checkpoint()
        plane.compact()
        root = tmp_path / "plane"
        assert json.loads((root / "CURRENT").read_text())["generation"] == 1
        assert not (root / "base-0").exists()
        assert not (root / "journal-0.wal").exists()
        plane.table.record("a", "z", EXECUTE, 0.9, 9.0)
        plane.checkpoint()
        plane.close()
        rec = DurableTrustPlane.recover(root)
        assert rec.generation == 1
        assert rec.recovered_ops == 1  # only the post-compaction op replays
        assert rec.table.get("a", "z", EXECUTE).value == 0.9
        assert rec.table.get("a", "b3", EXECUTE).value == 0.5
        rec.close()

    def test_auto_compaction_on_checkpoint(self, tmp_path):
        plane = _plane(
            tmp_path,
            config=JournalConfig(compact_ratio=1e-9, min_compact_bytes=1),
        )
        plane.table.record("a", "b", EXECUTE, 0.5, 1.0)
        plane.checkpoint()
        assert plane.generation >= 1
        plane.close()

    def test_recover_pinned_generation_rolls_back(self, tmp_path):
        plane = _plane(
            tmp_path, config=JournalConfig(min_compact_bytes=1 << 30)
        )
        plane.table.record("a", "b", EXECUTE, 0.5, 1.0)
        pin = plane.checkpoint()
        plane.table.record("a", "c", EXECUTE, 0.6, 2.0)
        plane.checkpoint()
        plane.compact()
        plane.close()
        rec = DurableTrustPlane.recover(
            tmp_path / "plane",
            generation=pin["generation"],
            upto=pin["offset"],
        )
        assert rec.generation == pin["generation"] == 0
        assert rec.recovered_ops == 1
        assert rec.table.get("a", "c", EXECUTE) is None
        # The abandoned newer generation is dropped from disk.
        assert not (tmp_path / "plane" / "base-1").exists()
        rec.close()

    def test_recover_missing_current_refused(self, tmp_path):
        (tmp_path / "plane").mkdir()
        with pytest.raises(TrustJournalError, match="CURRENT"):
            DurableTrustPlane.recover(tmp_path / "plane")

    def test_checkpoint_payload_shape(self, tmp_path):
        plane = _plane(tmp_path)
        payload = plane.checkpoint()
        assert payload["schema"] == JOURNAL_SCHEMA
        assert payload["generation"] == 0
        assert payload["offset"] == plane.journal_offset
        assert payload["base_sha256"] == plane.base_digest
        plane.close()

    def test_recoveries_counter(self, tmp_path):
        plane = _plane(tmp_path)
        plane.close()
        metrics = MetricsRegistry()
        rec = DurableTrustPlane.recover(tmp_path / "plane", metrics=metrics)
        assert metrics.counter("store.recoveries").value == 1
        rec.close()

    @pytest.mark.parametrize(
        "op",
        [
            {"op": "record", "z": "a", "y": "b", "c": "execute",
             "v": 1.5, "t": 1.0, "n": 1, "e": 1},
            {"op": "record", "z": "a", "y": "b", "c": "execute",
             "v": 0.5, "t": math.nan, "n": 1, "e": 1},
            {"op": "set", "cd": 5, "rd": 0, "k": 0, "l": 3, "e": 1},
            {"op": "record", "z": "a", "y": "b", "c": "execute",
             "v": 0.5, "n": 1, "e": 1},
        ],
        ids=["value-off-range", "nan-time", "cell-off-table", "missing-key"],
    )
    def test_refused_op_is_named_not_truncated(self, tmp_path, op):
        from repro.errors import CheckpointError
        from repro.service.checkpoint import resolve_trust_journal

        plane = _plane(tmp_path)
        plane.append(op)
        pin = plane.checkpoint()
        plane.close()
        journal = tmp_path / "plane" / "journal-0.wal"
        before = journal.read_bytes()
        where = rf"journal op #0 in .*journal-0\.wal \({op['op']}\) is refused"
        with pytest.raises(TrustJournalError, match=where):
            DurableTrustPlane.recover(tmp_path / "plane")
        with pytest.raises(CheckpointError, match=where):
            resolve_trust_journal({"trust_journal": pin})
        assert journal.read_bytes() == before
