"""Base-snapshot format of the durable trust plane: round-trip and refusal.

A trust plane persisted by :meth:`DurableTrustPlane.create` (a generation
with an empty journal tail) and restored by
:meth:`DurableTrustPlane.recover` must come back with a Γ surface that is
*bit-identical* to the one it persisted — without replaying transaction
history — and recovery must refuse, with a :class:`TrustJournalError`
naming the offending file, a base whose segments (Grid levels included)
or manifest no longer match their pinned digests.  The hypothesis
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
    read_journal,
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
    """Persist a plane as one generation with an empty journal tail."""
    DurableTrustPlane.create(root, table, weights, grid_table=grid_table).close()
    return root / "base-0" / "manifest.json"


def _rewrite_journal_header(root, crc=zlib.crc32, **fields):
    """Rewrite the header frame of an empty generation-0 journal."""
    journal = root / "journal-0.wal"
    header = {**read_journal(journal).header, **fields}
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


def _tamper_grid_levels(manifest, where):
    """Flip one byte of the Grid-levels segment or of its manifest entry;
    return the file that was changed."""
    entry = json.loads(manifest.read_text())["grid"]
    if where == "segment":
        target = manifest.parent / entry["file"]
        data = bytearray(target.read_bytes())
        data[0] ^= 0x01
    else:
        target = manifest
        data = bytearray(target.read_bytes())
        i = data.index(entry["sha256"].encode())
        data[i] = ord("0") if data[i] != ord("0") else ord("1")
    target.write_bytes(bytes(data))
    return target


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
        manifest = self._snapshot(tmp_path)
        segment = manifest.parent / "value.bin"
        data = bytearray(segment.read_bytes())
        data[0] ^= 0xFF
        segment.write_bytes(bytes(data))
        with pytest.raises(TrustJournalError, match="digest"):
            DurableTrustPlane.recover(tmp_path)
        assert manifest.is_file()

    @pytest.mark.parametrize("where", ["segment", "manifest entry"])
    def test_tampered_grid_levels_are_refused(self, tmp_path, where):
        _tamper_grid_levels(self._snapshot(tmp_path), where)
        with pytest.raises(TrustJournalError):
            DurableTrustPlane.recover(tmp_path)

    def test_truncated_segment_is_refused(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        segment = manifest.parent / "time.bin"
        segment.write_bytes(segment.read_bytes()[:-8])
        with pytest.raises(TrustJournalError):
            DurableTrustPlane.recover(tmp_path)

    def test_corrupted_manifest_is_refused(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        manifest.write_text(manifest.read_text()[:-40])
        with pytest.raises(TrustJournalError):
            DurableTrustPlane.recover(tmp_path)

    def test_wrong_schema_tag_is_refused(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        payload = json.loads(manifest.read_text())
        payload["schema"] = "repro.trust.store/v0"
        manifest.write_text(json.dumps(payload))
        # Re-pin the journal to the edited manifest so the schema check,
        # not the pin check, is what refuses it.
        _rewrite_journal_header(
            tmp_path, base=hashlib.sha256(manifest.read_bytes()).hexdigest()
        )
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

    def test_missing_manifest_is_refused(self, tmp_path):
        self._snapshot(tmp_path).unlink()
        with pytest.raises(TrustJournalError):
            DurableTrustPlane.recover(tmp_path)

    def test_non_json_entities_are_rejected_at_snapshot(self, tmp_path):
        table = TrustTable()
        table.record(("tuple", "id"), "y", CONTEXTS[0], 0.5, 1.0)
        with pytest.raises(TrustJournalError, match="JSON"):
            DurableTrustPlane.create(tmp_path, table)


class TestManifest:
    def test_manifest_shape(self, tmp_path):
        engine, entities = _build_world()
        grid = _grid()
        path = snapshot_trust_store(
            tmp_path, engine.table, engine.reputation.weights, grid_table=grid
        )
        manifest = json.loads(path.read_text())
        assert manifest["schema"] == STORE_SCHEMA == "repro.trust.store/v2"
        assert manifest["rows"] == len(engine.table)
        assert set(manifest["columns"]) == {
            "truster", "trustee", "context", "value", "time", "txcount",
        }
        assert manifest["grid"]["shape"] == [2, 3, 2]
        assert manifest["grid"]["epoch"] == grid.epoch
        assert manifest["grid"]["dtype"] == "<i8"
        segments = [*manifest["columns"].values(), manifest["grid"]]
        for meta in segments:
            assert (tmp_path / meta["file"]).is_file()
            assert len(meta["sha256"]) == 64
        # One manifest plus one segment per column and one of Grid levels.
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["manifest.json", *(meta["file"] for meta in segments)]
        )
        assert path.name == "manifest.json"

    def test_snapshot_is_deterministic(self, tmp_path):
        engine, _ = _build_world()
        a, b = tmp_path / "a", tmp_path / "b"
        snapshot_trust_store(a, engine.table, engine.reputation.weights)
        snapshot_trust_store(b, engine.table, engine.reputation.weights)
        assert (a / "manifest.json").read_text() == (b / "manifest.json").read_text()


class TestRefusalNamesOffendingPath:
    """Every refusal must say *which* file is bad, so an operator can
    triage a corrupt plane without bisecting the directory by hand."""

    def _snapshot(self, tmp_path):
        engine, _ = _build_world()
        return _persist(
            tmp_path, engine.table, engine.reputation.weights, _grid()
        )

    def test_truncated_manifest_names_manifest(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        manifest.write_text(manifest.read_text()[:-40])
        with pytest.raises(TrustJournalError, match=re.escape(str(manifest))):
            DurableTrustPlane.recover(tmp_path)

    def test_missing_segment_names_segment(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        segment = manifest.parent / "value.bin"
        segment.unlink()
        with pytest.raises(TrustJournalError, match=re.escape(str(segment))):
            DurableTrustPlane.recover(tmp_path)

    def test_digest_mismatch_names_segment(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        segment = manifest.parent / "txcount.bin"
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0x01
        segment.write_bytes(bytes(data))
        with pytest.raises(TrustJournalError) as exc_info:
            DurableTrustPlane.recover(tmp_path)
        assert str(segment) in str(exc_info.value)
        assert "digest" in str(exc_info.value)

    @pytest.mark.parametrize("where", ["segment", "manifest entry"])
    def test_tampered_grid_levels_name_the_file(self, tmp_path, where):
        offending = _tamper_grid_levels(self._snapshot(tmp_path), where)
        with pytest.raises(TrustJournalError, match=re.escape(str(offending))):
            DurableTrustPlane.recover(tmp_path)

    def test_truncated_segment_names_segment(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        segment = manifest.parent / "time.bin"
        segment.write_bytes(segment.read_bytes()[:-8])
        with pytest.raises(TrustJournalError, match=re.escape(str(segment))):
            DurableTrustPlane.recover(tmp_path)

    def test_missing_manifest_names_manifest(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        manifest.unlink()
        with pytest.raises(TrustJournalError, match=re.escape(str(manifest))):
            DurableTrustPlane.recover(tmp_path)


class TestAtomicSnapshot:
    """Snapshots land via temp-sibling + fsync + atomic rename: an
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
        before = (target / "manifest.json").read_bytes()
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
        # The first fsync died before any rename: the old snapshot is
        # untouched and still restores.
        assert (target / "manifest.json").read_bytes() == before
        restore_trust_store(target)

    def test_leftover_tmp_from_crash_is_cleaned(self, tmp_path):
        engine, _ = _build_world()
        target = tmp_path / "store"
        stale = tmp_path / "store.tmp"
        stale.mkdir()
        (stale / "junk.bin").write_bytes(b"\x00" * 16)
        snapshot_trust_store(target, engine.table, engine.reputation.weights)
        assert not stale.exists()
        restore_trust_store(target)

    def test_recover_falls_back_to_parked_base(self, tmp_path):
        """A kill between the two renames of a re-snapshot leaves the
        previous base parked as ``base-<N>.old``; recovery restores it and
        replays its journal instead of refusing."""
        engine, entities = _build_world()
        plane = DurableTrustPlane.create(
            tmp_path, engine.table, engine.reputation.weights
        )
        engine.table.record(entities[0], entities[1], CONTEXTS[0], 0.9, 99.0)
        plane.checkpoint()
        plane.close()
        before = _surface(engine, entities)
        (tmp_path / "base-0").rename(tmp_path / "base-0.old")
        restored = _recover(tmp_path)
        assert restored.recovered_ops == 1
        engine2 = _engine(restored.table, restored.weights)
        assert np.array_equal(_surface(engine2, entities), before)
