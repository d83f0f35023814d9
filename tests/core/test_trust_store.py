"""Base-file format of the durable trust plane: round-trip and refusal.

A trust plane persisted by :meth:`DurableTrustPlane.create` (a generation
with an empty journal tail) and restored by
:meth:`DurableTrustPlane.recover` must come back with a Γ surface that is
*bit-identical* to the one it persisted — without replaying transaction
history — and recovery must refuse, with a :class:`TrustJournalError`
naming the base file, a base whose header, columns or Grid levels no
longer match its digest, whose sizes disagree with its header, or that is
an older (``repro.trust.store/v2``) directory.  The hypothesis
property drives random worlds and post-restore mutation orders through
the full create → recover → mutate → evaluate → recover cycle.
"""

import hashlib
import json
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import STORE_SCHEMA, TrustContext, TrustEngine
from repro.core.decay import ExponentialDecay
from repro.core.journal import (
    JOURNAL_SCHEMA,
    DurableTrustPlane,
    TrustJournalError,
    _read_journal,
)
from repro.core.recommender import AllianceRegistry, RecommenderWeights
from repro.core.store import restore_trust_store, snapshot_trust_store
from repro.core.tables import TrustTable
from repro.grid.trust_table import GridTrustTable
from repro.trustfaults.credibility import CredibilityWeights

NOW = 100.0
CONTEXTS = (TrustContext("c0"), TrustContext("c1"))


def _build_world(n_entities=12, n_records=40, seed=0, credibility=False):
    rng = np.random.default_rng(seed)
    entities = [f"e{i}" for i in range(n_entities)]
    table = TrustTable()
    for _ in range(n_records):
        i, j = rng.integers(0, n_entities, size=2)
        if i == j:
            continue
        table.record(
            entities[i], entities[j],
            CONTEXTS[int(rng.integers(0, len(CONTEXTS)))],
            float(rng.random()), float(rng.uniform(0.0, NOW - 10.0)),
        )
    alliances = AllianceRegistry()
    alliances.declare("g1", entities[:3])
    if credibility:
        weights = CredibilityWeights(
            alliances=alliances, purge_threshold=0.6,
            min_observations=1, learning_rate=1.0,
        )
    else:
        weights = RecommenderWeights(alliances=alliances)
    for k in range(0, n_entities, 3):
        weights.observe_outcome(entities[k], float(rng.random()), float(rng.random()))
    engine = TrustEngine.build(
        table=table, weights=weights, decay=ExponentialDecay(rate=0.01)
    )
    return engine, entities


def _surface(engine, entities):
    return np.array(
        [[[engine.gamma(x, y, c, NOW) for y in entities] for x in entities]
         for c in CONTEXTS]
    )


def _grid():
    grid = GridTrustTable(2, 3, 2)
    grid.set(0, 1, 0, 3)
    grid.set(1, 2, 1, 5)
    return grid


def _persist(root, table, weights=None, grid_table=None):
    """Persist a plane as one generation with an empty journal tail;
    return its base file."""
    DurableTrustPlane.create(root, table, weights, grid_table=grid_table).close()
    return root / "base-0"


_COLUMN_NAMES = ("truster", "trustee", "context", "value", "time", "txcount")


def _layout(base):
    """The header of a base file and the byte offset of each region:
    every column, ``"grid"`` (the Grid levels) and ``"digest"``."""
    data = base.read_bytes()
    (length,) = struct.unpack_from("<I", data)
    header = json.loads(data[4:4 + length])
    start = 4 + length
    regions = {
        name: start + 8 * header["rows"] * i for i, name in enumerate(_COLUMN_NAMES)
    }
    regions["grid"] = start + 8 * header["rows"] * len(_COLUMN_NAMES)
    regions["digest"] = len(data) - 32
    return header, regions


def _flip(path, pos, mask=0x01):
    data = bytearray(path.read_bytes())
    data[pos] ^= mask
    path.write_bytes(bytes(data))


def _reseal(base, **fields):
    """Rewrite a base's header fields and re-sign it with a valid digest
    (a self-consistent file the writer never produced); return the new
    digest."""
    data = base.read_bytes()
    (length,) = struct.unpack_from("<I", data)
    header = {**json.loads(data[4:4 + length]), **fields}
    text = json.dumps(header, separators=(",", ":")).encode()
    text += b" " * (-(4 + len(text)) % 8)
    body = struct.pack("<I", len(text)) + text + data[4 + length:-32]
    base.write_bytes(body + hashlib.sha256(body).digest())
    return hashlib.sha256(body).hexdigest()


def _rewrite_journal_header(root, crc=zlib.crc32, **fields):
    """Rewrite the header frame of an empty generation-0 journal."""
    journal = root / "journal-0.wal"
    header = {**_read_journal(journal).header, **fields}
    payload = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    journal.write_bytes(struct.pack("<II", len(payload), crc(payload)) + payload)


def _crc32c(data):
    """CRC-32C (Castagnoli), the frame checksum before journal/v3."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def _tamper_grid_levels(base, where):
    """Flip one bit of the Grid levels or of their header entry; return
    the file that was changed."""
    if where == "segment":
        _flip(base, _layout(base)[1]["grid"])
    else:
        data = base.read_bytes()
        _flip(base, data.index(b'"cd_epochs"') + 2)
    return base


def _recover(root, **kwargs):
    plane = DurableTrustPlane.recover(root, **kwargs)
    plane.close()
    return plane


def _engine(table, weights):
    return TrustEngine.build(
        table=table, weights=weights, decay=ExponentialDecay(rate=0.01)
    )


class TestRoundTrip:
    def test_surface_is_bit_identical_after_restore(self, tmp_path):
        engine, entities = _build_world(credibility=True)
        before = _surface(engine, entities)
        _persist(tmp_path, engine.table, engine.reputation.weights)
        restored = _recover(tmp_path)
        engine2 = _engine(restored.table, restored.weights)
        assert np.array_equal(_surface(engine2, entities), before)

    def test_credibility_purge_state_survives(self, tmp_path):
        engine, entities = _build_world(credibility=True)
        weights = engine.reputation.weights
        # Drive one recommender's accuracy under the purge threshold.
        for _ in range(3):
            weights.observe_outcome(entities[0], 0.0, 1.0)
        assert weights.purged
        _persist(tmp_path, engine.table, weights)
        restored = _recover(tmp_path)
        assert sorted(restored.weights.purged) == sorted(weights.purged)
        assert restored.weights.factor(entities[0], entities[5]) == 0.0

    def test_insertion_order_survives_restore(self, tmp_path):
        engine, entities = _build_world()
        table = engine.table
        # Remove and re-add one record so it moves to the end, and
        # overwrite another in place: order is history, not key order.
        (z, y, c), _ = next(iter(table.items()))
        table.remove(z, y, c)
        table.record(z, y, c, 0.25, 50.0)
        (z, y, c), _ = next(iter(table.items()))
        table.record(z, y, c, 0.75, 60.0)
        _persist(tmp_path, table, engine.reputation.weights)
        restored = _recover(tmp_path)
        assert list(restored.table.items()) == list(table.items())
        assert restored.table.epoch == table.epoch

    def test_grid_levels_and_epochs_survive_restore(self, tmp_path):
        engine, _ = _build_world()
        grid = _grid()
        _persist(tmp_path, engine.table, grid_table=grid)
        restored = _recover(tmp_path)
        assert np.array_equal(restored.grid_table.levels, grid.levels)
        assert restored.grid_table.epoch == grid.epoch
        assert restored.grid_table._cd_epochs == grid._cd_epochs

    def test_weightless_snapshot_restores_none(self, tmp_path):
        engine, entities = _build_world()
        _persist(tmp_path, engine.table)
        restored = _recover(tmp_path)
        assert restored.weights is None


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_snapshot_mutate_restore_is_bit_identical(tmp_path_factory, data):
    """create → recover → mutate k records ⇒ Γ bit-identical after replay.

    For random worlds and mutation orders, the recovered plane's Γ
    surface must equal the persisted one, and a second recovery,
    replaying the journaled mutations over the base, must land on the
    mutated plane's surface.
    """
    tmp_path = tmp_path_factory.mktemp("store")
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    engine, entities = _build_world(
        seed=seed, credibility=data.draw(st.booleans())
    )
    before = _surface(engine, entities)
    _persist(tmp_path, engine.table, engine.reputation.weights)
    restored = DurableTrustPlane.recover(tmp_path)
    engine2 = _engine(restored.table, restored.weights)
    assert np.array_equal(_surface(engine2, entities), before)

    # Mutate k random records in random order.
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        i = data.draw(st.integers(0, len(entities) - 1))
        j = data.draw(st.integers(0, len(entities) - 2))
        trustee = entities[j if j < i else j + 1]
        restored.table.record(
            entities[i], trustee,
            data.draw(st.sampled_from(CONTEXTS)),
            data.draw(st.floats(0.0, 1.0, allow_nan=False)),
            data.draw(st.floats(0.0, NOW - 1.0, allow_nan=False)),
        )
    restored.close()

    mutated = _surface(engine2, entities)
    replayed = _recover(tmp_path)
    assert np.array_equal(
        _surface(_engine(replayed.table, replayed.weights), entities),
        mutated,
    )


class TestRefusal:
    def _snapshot(self, tmp_path):
        engine, entities = _build_world()
        return _persist(
            tmp_path, engine.table, engine.reputation.weights, _grid()
        )

    def test_corrupted_segment_is_refused(self, tmp_path):
        base = self._snapshot(tmp_path)
        _flip(base, _layout(base)[1]["value"], 0xFF)
        with pytest.raises(TrustJournalError, match="digest"):
            DurableTrustPlane.recover(tmp_path)
        assert base.is_file()

    @pytest.mark.parametrize("where", ["segment", "manifest entry"])
    def test_tampered_grid_levels_are_refused(self, tmp_path, where):
        _tamper_grid_levels(self._snapshot(tmp_path), where)
        with pytest.raises(TrustJournalError):
            DurableTrustPlane.recover(tmp_path)

    def test_truncated_segment_is_refused(self, tmp_path):
        base = self._snapshot(tmp_path)
        base.write_bytes(base.read_bytes()[:-8])
        with pytest.raises(TrustJournalError):
            DurableTrustPlane.recover(tmp_path)

    def test_corrupted_manifest_is_refused(self, tmp_path):
        # The JSON header took the place of the v2 manifest.
        base = self._snapshot(tmp_path)
        _flip(base, 8)
        with pytest.raises(TrustJournalError):
            DurableTrustPlane.recover(tmp_path)

    def test_wrong_schema_tag_is_refused(self, tmp_path):
        base = self._snapshot(tmp_path)
        digest = _reseal(base, schema="repro.trust.store/v0")
        # Re-pin the journal to the re-signed base so the schema check,
        # not the pin check, is what refuses it.
        _rewrite_journal_header(tmp_path, base=digest)
        with pytest.raises(TrustJournalError, match="got 'repro.trust.store/v0'"):
            DurableTrustPlane.recover(tmp_path)

    def test_v1_plane_is_refused(self, tmp_path):
        # An older plane names its schema in CURRENT and frames its journal
        # with CRC-32C, so its header would read as a torn tail; it must be
        # refused by name before the journal is read (or truncated).
        for schema in ("repro.trust.journal/v1", "repro.trust.journal/v2"):
            root = tmp_path / schema.rsplit("/", 1)[1]
            self._snapshot(root)
            current = root / "CURRENT"
            current.write_text(
                json.dumps({**json.loads(current.read_text()), "schema": schema})
            )
            _rewrite_journal_header(root, crc=_crc32c, schema=schema)
            journal = root / "journal-0.wal"
            before = journal.read_bytes()
            with pytest.raises(TrustJournalError) as err:
                DurableTrustPlane.recover(root)
            message = str(err.value)
            assert str(current) in message
            assert repr(schema) in message and repr(JOURNAL_SCHEMA) in message
            assert journal.read_bytes() == before

    def test_v2_base_directory_is_refused_before_the_journal_is_read(self, tmp_path):
        # A repro.trust.store/v2 plane: base-0/ is a directory of segments
        # under a manifest.json.  Its journal carries a torn tail, which a
        # read would truncate; the refusal must come first.
        base = self._snapshot(tmp_path)
        base.unlink()
        base.mkdir()
        (base / "manifest.json").write_text('{"schema": "repro.trust.store/v2"}')
        journal = tmp_path / "journal-0.wal"
        journal.write_bytes(journal.read_bytes() + b"\x01\x02\x03")
        before = journal.read_bytes()
        for restore, target in (
            (DurableTrustPlane.recover, tmp_path), (restore_trust_store, base)
        ):
            with pytest.raises(TrustJournalError, match="repro.trust.store/v2") as err:
                restore(target)
            assert str(base) in str(err.value)
        assert journal.read_bytes() == before

    def test_missing_manifest_is_refused(self, tmp_path):
        self._snapshot(tmp_path).unlink()
        with pytest.raises(TrustJournalError):
            DurableTrustPlane.recover(tmp_path)

    def test_non_json_entities_are_rejected_at_snapshot(self, tmp_path):
        table = TrustTable()
        table.record(("tuple", "id"), "y", CONTEXTS[0], 0.5, 1.0)
        with pytest.raises(TrustJournalError, match="JSON"):
            DurableTrustPlane.create(tmp_path, table)


def _damage(base, where):
    """Truncate a base, or flip one bit of its header, a column or its
    Grid levels."""
    if where == "truncated":
        base.write_bytes(base.read_bytes()[:-1])
    else:
        _, regions = _layout(base)
        pos = {"header": 8, "column": regions["time"] + 3, "grid": regions["grid"]}
        _flip(base, pos[where])


@pytest.mark.parametrize("where", ["truncated", "header", "column", "grid"])
@pytest.mark.parametrize("via", ["recover", "restore_trust_store"])
def test_damaged_base_is_refused_naming_the_file(tmp_path, where, via):
    engine, _ = _build_world()
    base = _persist(tmp_path, engine.table, engine.reputation.weights, _grid())
    _damage(base, where)
    with pytest.raises(TrustJournalError, match=re.escape(str(base))):
        if via == "recover":
            DurableTrustPlane.recover(tmp_path)
        else:
            restore_trust_store(base)


class TestManifest:
    """The header of the one base file (it took the v2 manifest's place)."""

    def test_manifest_shape(self, tmp_path):
        engine, entities = _build_world()
        grid = _grid()
        path = tmp_path / "base"
        digest = snapshot_trust_store(
            path, engine.table, engine.reputation.weights, grid_table=grid
        )
        header, regions = _layout(path)
        assert header["schema"] == STORE_SCHEMA == "repro.trust.store/v3"
        assert header["rows"] == len(engine.table)
        assert header["grid"]["shape"] == [2, 3, 2]
        assert header["grid"]["epoch"] == grid.epoch
        assert header["weights"]["epoch"] == engine.reputation.weights._epoch
        # The columns start 8-aligned, the Grid levels follow them, and
        # one SHA-256 over every byte before it closes the file.
        assert regions["truster"] % 8 == 0
        assert regions["digest"] == regions["grid"] + 8 * 2 * 3 * 2
        data = path.read_bytes()
        assert data[-32:] == hashlib.sha256(data[:-32]).digest()
        assert digest == data[-32:].hex()
        # One file, no sibling left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["base"]

    def test_snapshot_is_deterministic(self, tmp_path):
        engine, _ = _build_world()
        a, b = tmp_path / "a", tmp_path / "b"
        snapshot_trust_store(a, engine.table, engine.reputation.weights)
        snapshot_trust_store(b, engine.table, engine.reputation.weights)
        assert a.read_bytes() == b.read_bytes()


class TestRefusalNamesOffendingPath:
    """Every refusal must say *which* file is bad, so an operator can
    triage a corrupt plane without bisecting the directory by hand."""

    def _snapshot(self, tmp_path):
        engine, _ = _build_world()
        return _persist(
            tmp_path, engine.table, engine.reputation.weights, _grid()
        )

    def test_truncated_manifest_names_manifest(self, tmp_path):
        base = self._snapshot(tmp_path)
        base.write_bytes(base.read_bytes()[:10])
        with pytest.raises(TrustJournalError, match=re.escape(str(base))):
            DurableTrustPlane.recover(tmp_path)

    def test_missing_segment_names_segment(self, tmp_path):
        # A self-consistent file whose header claims a row its columns do
        # not hold: the size check, not the digest, refuses it.
        base = self._snapshot(tmp_path)
        header, _ = _layout(base)
        _rewrite_journal_header(tmp_path, base=_reseal(base, rows=header["rows"] + 1))
        with pytest.raises(TrustJournalError, match="describes") as exc_info:
            DurableTrustPlane.recover(tmp_path)
        assert str(base) in str(exc_info.value)

    def test_digest_mismatch_names_segment(self, tmp_path):
        base = self._snapshot(tmp_path)
        _flip(base, _layout(base)[1]["grid"] - 1)  # last txcount byte
        with pytest.raises(TrustJournalError) as exc_info:
            DurableTrustPlane.recover(tmp_path)
        assert str(base) in str(exc_info.value)
        assert "digest" in str(exc_info.value)

    @pytest.mark.parametrize("where", ["segment", "manifest entry"])
    def test_tampered_grid_levels_name_the_file(self, tmp_path, where):
        offending = _tamper_grid_levels(self._snapshot(tmp_path), where)
        with pytest.raises(TrustJournalError, match=re.escape(str(offending))):
            DurableTrustPlane.recover(tmp_path)

    def test_truncated_segment_names_segment(self, tmp_path):
        base = self._snapshot(tmp_path)
        base.write_bytes(base.read_bytes()[:-8])
        with pytest.raises(TrustJournalError, match=re.escape(str(base))):
            DurableTrustPlane.recover(tmp_path)

    def test_missing_manifest_names_manifest(self, tmp_path):
        base = self._snapshot(tmp_path)
        base.unlink()
        with pytest.raises(TrustJournalError, match=re.escape(str(base))):
            DurableTrustPlane.recover(tmp_path)


class TestAtomicSnapshot:
    """Snapshots land via temp sibling + fsync + atomic rename: an
    interrupted re-snapshot never destroys the previous good one."""

    def test_no_tmp_or_old_residue(self, tmp_path):
        engine, _ = _build_world()
        target = tmp_path / "store"
        snapshot_trust_store(target, engine.table, engine.reputation.weights)
        snapshot_trust_store(target, engine.table, engine.reputation.weights)
        residue = [p.name for p in tmp_path.iterdir() if p.name != "store"]
        assert residue == []

    def test_interrupted_overwrite_keeps_previous_snapshot(self, tmp_path):
        from repro.core.journal import set_sync_hook

        engine, entities = _build_world()
        target = tmp_path / "store"
        snapshot_trust_store(target, engine.table, engine.reputation.weights)
        before = target.read_bytes()
        engine.table.record(entities[0], entities[1], CONTEXTS[0], 0.9, 99.0)

        class Boom(BaseException):
            pass

        calls = 0

        def hook(phase, kind, path):
            nonlocal calls
            if calls == 0 and phase == "before":
                calls += 1
                raise Boom

        set_sync_hook(hook)
        try:
            with pytest.raises(Boom):
                snapshot_trust_store(
                    target, engine.table, engine.reputation.weights
                )
        finally:
            set_sync_hook(None)
        # The first fsync died before the rename: the old snapshot is
        # untouched and still restores.
        assert target.read_bytes() == before
        restore_trust_store(target)

    def test_leftover_tmp_from_crash_is_cleaned(self, tmp_path):
        engine, _ = _build_world()
        target = tmp_path / "store"
        stale = tmp_path / "store.tmp"
        stale.write_bytes(b"\x00" * 16)
        snapshot_trust_store(target, engine.table, engine.reputation.weights)
        assert not stale.exists()
        restore_trust_store(target)
