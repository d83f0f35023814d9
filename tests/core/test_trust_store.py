"""Base-snapshot format of the durable trust plane: round-trip and refusal.

A trust plane persisted by :meth:`DurableTrustPlane.create` (a generation
with an empty journal tail) and restored by
:meth:`DurableTrustPlane.recover` must come back with a Γ surface that is
*bit-identical* to the one it persisted — without replaying transaction
history — and recovery must refuse, with a :class:`TrustJournalError`
naming the offending file, a base whose segments or manifest no longer
match their pinned digests.  The hypothesis property drives random shard
counts and post-restore mutation orders through the full create → recover
→ mutate → evaluate → recover cycle.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import STORE_SCHEMA, DomainMap, TrustContext, TrustEngine
from repro.core.decay import ExponentialDecay
from repro.core.journal import DurableTrustPlane, TrustJournalError
from repro.core.recommender import AllianceRegistry, RecommenderWeights
from repro.core.store import restore_trust_store, snapshot_trust_store
from repro.core.tables import TrustTable
from repro.trustfaults.credibility import CredibilityWeights

NOW = 100.0
CONTEXTS = (TrustContext("c0"), TrustContext("c1"))


def _build_world(n_entities=12, n_shards=4, n_records=40, seed=0, credibility=False):
    rng = np.random.default_rng(seed)
    entities = [f"e{i}" for i in range(n_entities)]
    table = TrustTable(domains=DomainMap(n_shards=n_shards))
    for _ in range(n_records):
        i, j = rng.integers(0, n_entities, size=2)
        if i == j:
            continue
        table.record(
            entities[i], entities[j],
            CONTEXTS[int(rng.integers(0, len(CONTEXTS)))],
            float(rng.random()), float(rng.uniform(0.0, NOW - 10.0)),
        )
    alliances = AllianceRegistry(domains=table.domains)
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


def _persist(root, table, weights=None):
    """Persist a plane as one generation with an empty journal tail."""
    DurableTrustPlane.create(root, table, weights).close()
    return root / "base-0" / "manifest.json"


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

    def test_explicit_domain_map_requires_caller_domains(self, tmp_path):
        domains = DomainMap(domain_of=lambda e: str(e)[:2])
        table = TrustTable(domains=domains)
        table.record("ax", "by", CONTEXTS[0], 0.5, 10.0)
        _persist(tmp_path, table)
        with pytest.raises(TrustJournalError, match="explicit"):
            DurableTrustPlane.recover(tmp_path)
        restored = _recover(tmp_path, domains=domains)
        assert list(restored.table.items())

    def test_domain_map_mismatch_is_refused(self, tmp_path):
        table = TrustTable(domains=DomainMap(domain_of=lambda e: str(e)[:2]))
        table.record("ax", "by", CONTEXTS[0], 0.5, 10.0)
        _persist(tmp_path, table)
        other = DomainMap(domain_of=lambda e: str(e)[-1])
        with pytest.raises(TrustJournalError, match="domain map mismatch"):
            DurableTrustPlane.recover(tmp_path, domains=other)

    def test_weightless_snapshot_restores_none(self, tmp_path):
        engine, entities = _build_world()
        _persist(tmp_path, engine.table)
        restored = _recover(tmp_path)
        assert restored.weights is None


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_snapshot_mutate_restore_is_bit_identical(tmp_path_factory, data):
    """create → recover → mutate k domains ⇒ Γ bit-identical after replay.

    For random shard counts and mutation orders, the recovered plane's Γ
    surface must equal the persisted one, and a second recovery,
    replaying the journaled mutations over the base, must land on the
    mutated plane's surface.
    """
    tmp_path = tmp_path_factory.mktemp("store")
    n_shards = data.draw(st.integers(min_value=1, max_value=8))
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    engine, entities = _build_world(
        n_shards=n_shards, seed=seed, credibility=data.draw(st.booleans())
    )
    before = _surface(engine, entities)
    _persist(tmp_path, engine.table, engine.reputation.weights)
    restored = DurableTrustPlane.recover(tmp_path)
    engine2 = _engine(restored.table, restored.weights)
    assert np.array_equal(_surface(engine2, entities), before)

    # Mutate k random domains in random order.
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
        return _persist(tmp_path, engine.table, engine.reputation.weights)

    def test_corrupted_segment_is_refused(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        segment = next(manifest.parent.glob("shard-*.value.bin"))
        data = bytearray(segment.read_bytes())
        data[0] ^= 0xFF
        segment.write_bytes(bytes(data))
        with pytest.raises(TrustJournalError, match="digest"):
            DurableTrustPlane.recover(tmp_path)
        assert manifest.is_file()

    def test_truncated_segment_is_refused(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        segment = next(manifest.parent.glob("shard-*.time.bin"))
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
        with pytest.raises(TrustJournalError, match="schema"):
            DurableTrustPlane.recover(tmp_path)

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
        path = snapshot_trust_store(
            tmp_path, engine.table, engine.reputation.weights
        )
        manifest = json.loads(path.read_text())
        assert manifest["schema"] == STORE_SCHEMA
        assert manifest["domain_map"]["kind"] == "crc32"
        assert manifest["shards"]
        for shard in manifest["shards"]:
            assert set(shard["columns"]) == {
                "truster", "trustee", "context", "value", "time", "txcount",
            }
            for meta in shard["columns"].values():
                assert (tmp_path / meta["file"]).is_file()
                assert len(meta["sha256"]) == 64
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
        return _persist(tmp_path, engine.table, engine.reputation.weights)

    def test_truncated_manifest_names_manifest(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        manifest.write_text(manifest.read_text()[:-40])
        with pytest.raises(TrustJournalError, match=re.escape(str(manifest))):
            DurableTrustPlane.recover(tmp_path)

    def test_missing_segment_names_segment(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        segment = next(manifest.parent.glob("shard-*.value.bin"))
        segment.unlink()
        with pytest.raises(TrustJournalError, match=re.escape(str(segment))):
            DurableTrustPlane.recover(tmp_path)

    def test_digest_mismatch_names_segment(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        segment = next(manifest.parent.glob("shard-*.txcount.bin"))
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0x01
        segment.write_bytes(bytes(data))
        with pytest.raises(TrustJournalError) as exc_info:
            DurableTrustPlane.recover(tmp_path)
        assert str(segment) in str(exc_info.value)
        assert "digest" in str(exc_info.value)

    def test_truncated_segment_names_segment(self, tmp_path):
        manifest = self._snapshot(tmp_path)
        segment = next(manifest.parent.glob("shard-*.time.bin"))
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
