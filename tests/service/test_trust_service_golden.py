"""Golden pins of a journaled, checkpointed trust-feedback service run.

A seeded, scaled-down copy of the trust-service shape: a Γ-blended
``AgentFleet`` whose CD and RD agents observe every completion, a
``DurableTrustPlane`` journaling each mutation, token-bucket admission,
and a checkpoint every two windows with a compaction threshold low
enough that the plane compacts during the run.  The hashes pin what the
trust feedback path must leave unchanged when it is reworked for speed:
the schedule, the plane directory's bytes, the Grid levels, the
internal table's items and the checkpoint payloads.  The run is served
twice: through a hand-written ``observe`` closure, the reference, and
through :class:`~repro.grid.feedback.TrustFeedback`, which must leave the
same bytes (its checkpoints add a ``feedback`` section, removed before
hashing).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.journal import KEEP_GENERATIONS, DurableTrustPlane, JournalConfig
from repro.experiments.config import PAPER_BATCH_INTERVAL, paper_policies
from repro.grid.agents import AgentFleet
from repro.grid.behavior import BehaviorModel, StationaryBehavior
from repro.grid.feedback import TrustFeedback
from repro.scheduling import TRMScheduler, make_heuristic
from repro.service import AdmissionPolicy, GridService, ServiceConfig
from repro.workloads.consistency import Consistency
from repro.workloads.scenario import ScenarioSpec, materialize

SEED = 5

#: Captured before the trust-feedback path was reworked for speed.
GOLDEN = {
    "schedule": "7b31b4fb6c1b125d1b15090cb649430ea51f0a66d74be7c5ac7681c1eee95562",
    # Re-pinned when each base became one file (``repro.trust.store/v3``):
    # the base files' bytes and the ``base_sha256`` each journal header
    # and checkpoint names changed, nothing else.  The checkpoint payloads
    # with ``base_sha256`` removed (``checkpoints_without_base``) hash the
    # same before and after, so every generation and offset, (0, 7918),
    # (1, 131) … (4, 131), held.
    "plane": "d21f9108f0155b5844cd58d841e4df20daa36f8ac158d39a4f5cbd9fad3612da",
    "grid_levels": "896e6f5a31085d7e1f91e69c8f34f080a8a118ef37529ee5232d553476ae8ed4",
    "internal_items": "074cf5b68197a88add081f0198adeb702e2ab8daa907cab74e5325095eb78624",
    "checkpoints": "6aa895d311b12ac45ee6210f1dcef7c2361302cf299a15fc77522e21705164e1",
    "checkpoints_without_base": (
        "049bb5e94f9b0e385cd12f49f9e4c5f68837fef4e3c44cfb9fed26dfa8f5a9de"
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trust_service_scenario():
    """The seeded scenario and resource-domain behaviour of the run."""
    spec = ScenarioSpec(
        n_tasks=400,
        n_machines=8,
        consistency=Consistency.INCONSISTENT,
        target_load=1.2,
        cd_range=(6, 6),
        rd_range=(6, 6),
    )
    scenario = materialize(spec, SEED)
    n_rd = scenario.grid.trust_table.shape[1]
    means = np.random.default_rng([SEED, 1]).permutation(np.linspace(0.3, 0.95, n_rd))
    behavior = BehaviorModel(
        {rd: StationaryBehavior(mean=float(m)) for rd, m in enumerate(means)}
    )
    return scenario, behavior


def trust_service(scenario, on_complete, plane) -> GridService:
    """A token-bucket Min-min service over ``scenario`` journaling ``plane``."""
    scheduler = TRMScheduler(
        scenario.grid, scenario.eec, paper_policies()[0], make_heuristic("min-min"),
        batch_interval=PAPER_BATCH_INTERVAL, on_complete=on_complete,
    )
    config = ServiceConfig(
        admission=AdmissionPolicy(
            queue_capacity=4096, rate=0.97 * scenario.arrival_rate, burst=16.0
        )
    )
    return GridService(scheduler, config, trust_plane=plane)


#: The compaction threshold that makes the plane compact during the run.
JOURNAL = JournalConfig(min_compact_bytes=8192)


def run_trust_service(root: Path, *, via_feedback: bool = False) -> dict:
    """Serve the scaled-down trust-service workload journaled at ``root``."""
    scenario, behavior = trust_service_scenario()
    grid = scenario.grid
    fleet = AgentFleet.for_table(grid.trust_table, gamma_weights=(0.7, 0.3))
    rng = np.random.default_rng([SEED, 2])
    if via_feedback:
        observe = TrustFeedback(
            grid, behavior, rng, fleet=fleet, score_clients=True
        ).bind(scenario.requests)
        plane = observe.journal(root, config=JOURNAL)
    else:
        plane = DurableTrustPlane.create(
            root,
            fleet.internal_table,
            fleet.cd_agents[0].engine.reputation.weights,
            grid_table=grid.trust_table,
            config=JOURNAL,
        )
        by_index = {r.index: r for r in scenario.requests}

        def observe(record) -> None:
            request = by_index[record.request_index]
            rd = int(grid.machine_rd[record.machine_index])
            cd = request.client_domain_index
            activity = request.task.activities.activities[0]
            satisfaction = behavior.sample(rd, record.completion_time, rng)
            fleet.cd_agents[cd].observe_transaction(rd, activity, satisfaction, record.completion_time)
            fleet.rd_agents[rd].observe_transaction(cd, activity, satisfaction, record.completion_time)

    service = trust_service(scenario, observe, plane)
    result = service.serve(scenario.requests, checkpoint_every=2)
    plane.close()
    return {
        "result": result,
        "plane": plane,
        "fleet": fleet,
        "grid": grid,
    }


def _plane_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _digests(run: dict, root: Path) -> dict[str, str]:
    result = run["result"]
    rows = np.array(
        [
            (r.request_index, r.machine_index, r.mapped_time, r.completion_time)
            for r in result.schedule.records
        ],
        dtype=[("r", "<i8"), ("m", "<i8"), ("t", "<f8"), ("c", "<f8")],
    )
    items = [
        (z, y, c.name, rec.value.hex(), rec.last_transaction.hex(), rec.transaction_count)
        for (z, y, c), rec in run["fleet"].internal_table.items()
    ]
    kept = [
        {key: value for key, value in payload.items() if key != "feedback"}
        for payload in result.checkpoint_payloads
    ]
    payloads = json.dumps(kept, sort_keys=True)
    without_base = json.dumps(
        [
            {
                **payload,
                "trust_journal": {
                    key: value for key, value in payload["trust_journal"].items()
                    if key != "base_sha256"
                },
            }
            for payload in kept
        ],
        sort_keys=True,
    )
    return {
        "schedule": _sha(rows.tobytes()),
        "plane": _plane_digest(root),
        "grid_levels": _sha(np.ascontiguousarray(run["grid"].trust_table.levels).tobytes()),
        "internal_items": _sha(repr(items).encode()),
        "checkpoints": _sha(payloads.replace(str(root), "<root>").encode()),
        "checkpoints_without_base": _sha(
            without_base.replace(str(root), "<root>").encode()
        ),
    }


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    root = tmp_path_factory.mktemp("trust-service") / "plane"
    run = run_trust_service(root)
    # Hashed before any test touches the payloads.
    return run, _digests(run, root)


@pytest.fixture(scope="module")
def served_via_feedback(tmp_path_factory):
    root = tmp_path_factory.mktemp("trust-feedback") / "plane"
    run = run_trust_service(root, via_feedback=True)
    return run, _digests(run, root)


def test_run_checkpoints_and_compacts(served):
    run, _ = served
    payloads = run["result"].checkpoint_payloads
    assert len(payloads) >= 2
    assert run["plane"].generation >= 1, "the plane never compacted"
    assert run["fleet"].total_published() > 0


def _assert_superseded_journals_end_at_pins(run: dict) -> None:
    """Each kept superseded journal ends exactly at an offset a checkpoint
    pinned: the tail a compaction folds is never written."""
    plane = run["plane"]
    pinned = {
        (payload["trust_journal"]["generation"], payload["trust_journal"]["offset"])
        for payload in run["result"].checkpoint_payloads
    }
    superseded = [
        path for path in plane.root.glob("journal-*.wal")
        if path.name != f"journal-{plane.generation}.wal"
    ]
    assert len(superseded) == KEEP_GENERATIONS
    for path in superseded:
        generation = int(path.stem.removeprefix("journal-"))
        assert (generation, path.stat().st_size) in pinned, path.name


def test_outputs_match_the_pinned_run(served):
    run, digests = served
    assert digests == GOLDEN
    _assert_superseded_journals_end_at_pins(run)


def test_checkpoint_records_are_not_shared_between_checkpoints(served):
    run, _ = served
    first, *_, last = run["result"].checkpoint_payloads
    assert first["records"] and len(last["records"]) > len(first["records"])
    before = json.dumps(last["records"], sort_keys=True)
    key = next(iter(first["records"]))
    first["records"][key] = None
    first["records"]["-1"] = {}
    del first["records"][next(k for k in first["records"] if k != key)]
    assert json.dumps(last["records"], sort_keys=True) == before


def test_trust_feedback_reproduces_the_pinned_run(served_via_feedback):
    run, digests = served_via_feedback
    assert digests == GOLDEN
    _assert_superseded_journals_end_at_pins(run)
    payloads = run["result"].checkpoint_payloads
    assert all("feedback" in payload for payload in payloads)
    published = [sum(payload["feedback"]["published"]) for payload in payloads]
    assert published == sorted(published) and published[-1] > 0
