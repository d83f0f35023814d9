"""Kill/restore while trust evolves.

The pinned trust-service run (``test_trust_service_golden``), served
through a journaled :class:`~repro.grid.feedback.TrustFeedback` that also
scores recommenders, is killed after a random window.  The trust plane is
recovered with ``resolve_trust_journal``, a fresh fleet is built over the
recovered table and weights, and the service resumes from the kill
checkpoint, whose ``feedback`` section restores the satisfaction RNG and
the publish counts.  The resumed run must end exactly where the
uninterrupted one ends: schedule, settled accounting, Grid levels and
epoch, internal items, recommender weights and publish counts.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ServiceKilled
from repro.grid.agents import AgentFleet
from repro.grid.feedback import TrustFeedback
from repro.service.checkpoint import resolve_trust_journal
from tests.service.test_trust_service_golden import (
    JOURNAL,
    SEED,
    trust_service,
    trust_service_scenario,
)


def build(root: Path, checkpoint: dict | None = None):
    """A fresh scenario and service; over the plane ``checkpoint`` pins
    when given, else over a new plane at ``root``."""
    scenario, behavior = trust_service_scenario()
    grid = scenario.grid
    plane = None
    if checkpoint is not None:
        plane = resolve_trust_journal(
            checkpoint, grid_table=grid.trust_table, config=JOURNAL
        )
    fleet = AgentFleet.for_table(
        grid.trust_table,
        gamma_weights=(0.7, 0.3),
        recommender_weights=plane.weights if plane is not None else None,
        internal_table=plane.table if plane is not None else None,
    )
    feedback = TrustFeedback(
        grid,
        behavior,
        np.random.default_rng([SEED, 2]),
        fleet=fleet,
        score_clients=True,
        score_weights=fleet.cd_agents[0].engine.reputation.weights,
    ).bind(scenario.requests)
    if plane is None:
        plane = feedback.journal(root, config=JOURNAL)
    return scenario, feedback, plane, trust_service(scenario, feedback, plane)


def final_state(result, feedback: TrustFeedback) -> dict:
    schedule = result.schedule
    table = feedback.fleet.grid_table
    return {
        "records": schedule.records,
        "rejected": schedule.rejected,
        "dropped": schedule.dropped,
        "machines": [
            (s.available_time, s.busy_time, s.assigned_count)
            for s in schedule.machine_states
        ],
        "accounting": (result.submitted, result.admitted, result.shed, result.windows),
        "grid_levels": table.levels.tobytes(),
        "grid_epoch": table.epoch,
        "internal_items": list(feedback.fleet.internal_table.items()),
        "weights": dict(feedback.score_weights._accuracy),
        "published": feedback.fleet.total_published(),
    }


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    root = tmp_path_factory.mktemp("uninterrupted") / "plane"
    scenario, feedback, plane, service = build(root)
    result = service.serve(scenario.requests, checkpoint_every=2)
    plane.close()
    return result, final_state(result, feedback)


def kill_and_resume(window: int) -> tuple[dict, dict]:
    """Kill after ``window`` windows, recover, resume; return the kill
    checkpoint and the resumed run's final state."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "plane"
        scenario, _, plane, service = build(root)
        with pytest.raises(ServiceKilled) as killed:
            service.serve(
                scenario.requests, kill_after_window=window, checkpoint_every=2
            )
        plane.close()
        checkpoint = json.loads(json.dumps(killed.value.checkpoint))
        scenario, feedback, plane, service = build(root, checkpoint)
        try:
            result = service.resume(
                checkpoint, scenario.requests, checkpoint_every=2
            )
        finally:
            plane.close()
        return checkpoint, final_state(result, feedback)


@settings(max_examples=10, deadline=None)
@given(window=st.integers(min_value=1, max_value=11))
@example(window=1)
def test_kill_recover_resume_equals_uninterrupted(uninterrupted, window):
    # The run takes 11 windows and compacts its plane at every checkpoint
    # (each second window), so a kill after window 1 recovers the first
    # generation and any later kill a compacted one.
    result, expected = uninterrupted
    assert result.windows == 11
    checkpoint, resumed = kill_and_resume(window)
    assert checkpoint["epoch"] == window
    assert resumed == expected


def test_kill_after_a_compaction_recovers(uninterrupted):
    _, expected = uninterrupted
    checkpoint, resumed = kill_and_resume(3)
    assert checkpoint["trust_journal"]["generation"] >= 1
    assert sum(checkpoint["feedback"]["published"]) > 0
    assert set(expected["weights"].values()) != {1.0}, "no recommender was scored"
    assert resumed == expected
