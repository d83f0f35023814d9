"""Durability bench — delta checkpoint vs full snapshot (``BENCH_trust.json``).

Times the two ways the durable trust plane (:mod:`repro.core.journal`)
makes trust state durable, on growing entity populations whose opinion
values follow the Table-6 OTL distribution (Section 5.3's uniform [1, 5]
offered levels — the Hi/Hi scheduling workload's trust plane):

* a *full snapshot* — :func:`~repro.core.store.snapshot_trust_store`
  rewrites the one base file (header, columns written in sequence by one
  ``os.writev``, digest), fsyncs it and renames it into place, O(store);
* a *delta checkpoint* — ``DIRTY_ENTITY_RATIO`` of the entities are
  overwritten through an attached write-ahead journal, then
  :meth:`~repro.core.journal.DurableTrustPlane.checkpoint` fsyncs the
  journal tail, O(changes).

The results land as a machine-readable JSON artifact at the repository
root.  Four entry points:

* ``test_trust_checkpoint_smoke`` — runs the smallest size and validates
  the payload schema in memory.
* ``test_artifact_matches_schema`` — the committed artifact stays
  machine-readable and above its acceptance floor.
* ``test_delta_checkpoint_scale_smoke`` — opt-in via
  ``BENCH_TRUST_SCALE=1``: at 10⁴ entities a delta checkpoint must cost
  at most ``DELTA_SMOKE_RATIO`` (0.2x) of a full snapshot — 2x slack
  under the artifact's ``MIN_DELTA_SPEEDUP`` (10x) floor.
* ``test_trust_checkpoint_full_sweep`` — the real sweep; opt-in via
  ``BENCH_TRUST_FULL=1``.  Writes ``BENCH_trust.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.context import TrustContext
from repro.core.journal import DurableTrustPlane, JournalConfig
from repro.core.recommender import AllianceRegistry, RecommenderWeights
from repro.core.store import snapshot_trust_store
from repro.core.tables import TrustTable, level_to_value

SCHEMA = "repro.bench.trust/v4"
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_trust.json"
#: Total entity counts swept (half trusters, half trustees).
SIZES = (64, 256, 1024, 10_000, 100_000)
OPINIONS_PER_TRUSTEE = 8
N_CONTEXTS = 4
SEED = 0
REPEATS = 3
#: Fraction of entities mutated between delta checkpoints.
DIRTY_ENTITY_RATIO = 0.01
#: Acceptance floor: a delta checkpoint (journal-tail fsync of <= 1% dirty
#: entities) must beat a full snapshot by this factor at the size below.
MIN_DELTA_SPEEDUP = 10.0
DELTA_FLOOR_SIZE = 10_000
#: CI scale smoke: the delta checkpoint must cost at most this fraction of
#: a full snapshot (2x slack under the 10x artifact floor).
DELTA_SMOKE_RATIO = 0.2
#: Entity count of the BENCH_TRUST_SCALE=1 smoke.
SCALE_SMOKE_ENTITIES = 10_000


def build_case(n_entities: int, *, seed: int = SEED):
    """Build one benchmark population: a trust table and its weights.

    Entities split evenly into truster clients (``cd:*``) and trustee
    resources (``rd:*``).  Every (trustee, context) pair receives
    ``OPINIONS_PER_TRUSTEE`` recorded opinions from randomly chosen
    trusters; opinion values are uniform Table-6 OTL levels mapped through
    :func:`level_to_value`.  Alliances group the first trusters and a few
    deterministic ``observe_outcome`` calls spread the learned accuracies,
    so the persisted weights are non-trivial.

    Returns:
        ``(table, weights)``.
    """
    if n_entities < 4:
        raise ValueError("n_entities must be >= 4")
    rng = np.random.default_rng(seed)
    n_rd = n_entities // 2
    n_cd = n_entities - n_rd
    trusters = [f"cd:{i}" for i in range(n_cd)]
    trustees = [f"rd:{j}" for j in range(n_rd)]
    contexts = [TrustContext(f"toa{k}") for k in range(N_CONTEXTS)]

    # Sampled per record rather than via a dense (cd, rd, toa) array so the
    # 10^5-entity case stays in memory.
    table = TrustTable()
    k_holders = min(OPINIONS_PER_TRUSTEE, n_cd)
    for trustee in trustees:
        for context in contexts:
            holders = rng.choice(n_cd, size=k_holders, replace=False)
            levels = rng.integers(1, 6, size=k_holders)
            times = rng.uniform(0.0, 100.0, size=k_holders)
            for i, level, t in zip(holders, levels, times):
                table.record(
                    trusters[i], trustee, context,
                    level_to_value(int(level)), float(t),
                )

    alliances = AllianceRegistry()
    group = max(2, min(8, n_cd // 4))
    alliances.declare("bench-a", trusters[:group])
    alliances.declare("bench-b", trusters[group:2 * group])
    weights = RecommenderWeights(alliances=alliances)
    for i in range(0, n_cd, max(1, n_cd // 16)):
        weights.observe_outcome(trusters[i], 0.8, float(rng.uniform(0.0, 1.0)))
    return table, weights


def time_durability(
    table: TrustTable, weights, n_entities: int, repeats: int
) -> tuple[float, float, int]:
    """Time a full snapshot against a delta checkpoint on ``table``.

    Returns:
        ``(full_snapshot_s, delta_checkpoint_s, dirty_entities)``, each
        time the best of ``repeats``.
    """
    dirty_n = max(1, int(n_entities * DIRTY_ENTITY_RATIO))
    victims = []
    for key, rec in table.items():
        victims.append((key, rec))
        if len(victims) == dirty_n:
            break
    base = Path(tempfile.mkdtemp(prefix="trust-checkpoint-bench-"))
    try:
        full_s = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            snapshot_trust_store(base / "full", table, weights)
            full_s = min(full_s, time.perf_counter() - start)
        plane = DurableTrustPlane.create(
            base / "plane", table, weights,
            # Times the pure delta path; compaction is benched implicitly
            # by the full-snapshot column.
            config=JournalConfig(min_compact_bytes=1 << 40),
        )
        delta_s = np.inf
        for r in range(repeats):
            for (z, y, c), rec in victims:
                table.record(
                    z, y, c,
                    (rec.value + 0.17 * (r + 1)) % 1.0,
                    rec.last_transaction,
                    transaction_count=rec.transaction_count,
                )
            start = time.perf_counter()
            plane.checkpoint()
            delta_s = min(delta_s, time.perf_counter() - start)
        plane.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return float(full_s), float(delta_s), dirty_n


def run_case(n_entities: int, *, repeats: int = REPEATS) -> dict:
    """Build one population and time both durability paths on it."""
    table, weights = build_case(n_entities)
    n_opinions = len(table)
    full_s, delta_s, dirty_n = time_durability(table, weights, n_entities, repeats)
    return {
        "n_entities": n_entities,
        "n_opinions": n_opinions,
        "dirty_entities": dirty_n,
        "full_snapshot_s": full_s,
        "delta_checkpoint_s": delta_s,
        "delta_speedup": full_s / delta_s,
    }


def run_sweep(sizes=SIZES, *, repeats: int = REPEATS) -> dict:
    """Time every population size; returns the JSON artifact payload."""
    return {
        "schema": SCHEMA,
        "workload": {
            "source": "table6-otl",
            "opinions_per_trustee": OPINIONS_PER_TRUSTEE,
            "contexts": N_CONTEXTS,
            "dirty_entity_ratio": DIRTY_ENTITY_RATIO,
            "seed": SEED,
        },
        "repeats": repeats,
        "results": [run_case(n, repeats=repeats) for n in sizes],
    }


def validate_payload(payload: dict) -> None:
    """Schema check shared by the smoke test and the committed artifact."""
    assert payload["schema"] == SCHEMA
    assert set(payload) == {"schema", "workload", "repeats", "results"}
    assert set(payload["workload"]) == {
        "source", "opinions_per_trustee", "contexts", "dirty_entity_ratio",
        "seed",
    }
    assert payload["results"], "empty results"
    for entry in payload["results"]:
        assert set(entry) == {
            "n_entities", "n_opinions", "dirty_entities", "full_snapshot_s",
            "delta_checkpoint_s", "delta_speedup",
        }
        assert entry["n_entities"] >= 4
        assert entry["n_opinions"] > 0
        assert 1 <= entry["dirty_entities"] <= max(1, entry["n_entities"] // 100)
        assert entry["full_snapshot_s"] > 0
        assert entry["delta_checkpoint_s"] > 0
        assert np.isclose(
            entry["delta_speedup"],
            entry["full_snapshot_s"] / entry["delta_checkpoint_s"],
        )
        if entry["n_entities"] >= DELTA_FLOOR_SIZE:
            assert entry["delta_speedup"] >= MIN_DELTA_SPEEDUP, (
                f"delta checkpoint below the {MIN_DELTA_SPEEDUP:g}x "
                f"acceptance floor at n_entities={entry['n_entities']}: "
                f"{entry['delta_speedup']:.2f}x vs a full snapshot"
            )


def render_sweep(payload: dict) -> str:
    """Human-readable summary of a sweep payload."""
    return "\n".join(
        f"n={entry['n_entities']:<6} opinions={entry['n_opinions']:<7} "
        f"delta-ckpt {entry['delta_speedup']:6.1f}x "
        f"(full {entry['full_snapshot_s'] * 1e3:9.2f} ms, "
        f"delta {entry['delta_checkpoint_s'] * 1e3:9.2f} ms, "
        f"{entry['dirty_entities']} dirty)"
        for entry in payload["results"]
    )


def test_trust_checkpoint_smoke():
    validate_payload(run_sweep(sizes=SIZES[:1], repeats=1))


def test_artifact_matches_schema():
    """The committed perf trajectory must stay machine-readable."""
    if not ARTIFACT.exists():
        pytest.skip(f"{ARTIFACT.name} not generated yet")
    validate_payload(json.loads(ARTIFACT.read_text(encoding="utf-8")))


@pytest.mark.skipif(
    os.environ.get("BENCH_TRUST_SCALE") != "1",
    reason="delta-checkpoint scale smoke is opt-in: BENCH_TRUST_SCALE=1",
)
def test_delta_checkpoint_scale_smoke():
    """A journal-tail fsync of <= 1% dirty entities stays far cheaper than
    a full snapshot rewrite."""
    entry = run_case(SCALE_SMOKE_ENTITIES, repeats=2)
    ratio = entry["delta_checkpoint_s"] / entry["full_snapshot_s"]
    assert ratio <= DELTA_SMOKE_RATIO, (
        f"delta checkpoint cost {entry['delta_checkpoint_s']:.3f}s vs full "
        f"snapshot {entry['full_snapshot_s']:.3f}s at "
        f"n_entities={entry['n_entities']} (ratio {ratio:.2f} > "
        f"{DELTA_SMOKE_RATIO:g})"
    )


@pytest.mark.skipif(
    os.environ.get("BENCH_TRUST_FULL") != "1",
    reason="full sweep is opt-in: BENCH_TRUST_FULL=1",
)
def test_trust_checkpoint_full_sweep():
    payload = run_sweep(SIZES)
    validate_payload(payload)
    ARTIFACT.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"perf trajectory written to {ARTIFACT}\n{render_sweep(payload)}")
