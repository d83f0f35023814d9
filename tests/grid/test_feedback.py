"""Tests for repro.grid.feedback (the Figure-1 evidence path)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.records import FailureEvent, FailureKind
from repro.grid.behavior import BehaviorModel
from repro.grid.feedback import FAILURE_SATISFACTION, TrustFeedback
from repro.workloads.scenario import ScenarioSpec, materialize


@pytest.fixture
def scenario():
    return materialize(ScenarioSpec(n_tasks=12, n_machines=3), seed=4)


def make(scenario, **kwargs):
    return TrustFeedback(
        scenario.grid, BehaviorModel.uniform(0.9), np.random.default_rng(1), **kwargs
    ).bind(scenario.requests)


def test_failure_observes_failure_satisfaction(scenario):
    feedback = make(scenario, score_clients=True)
    request = scenario.requests[0]
    feedback.failure(
        FailureEvent(request.index, 0, 1, 0.0, 2.0, 1.0, FailureKind.TASK_CRASH)
    )
    internal = list(feedback.fleet.internal_table.items())
    # Only the client domain observes a failure, at the failure time.
    assert [(key[0], rec.value, rec.last_transaction) for key, rec in internal] == [
        (f"cd:{request.client_domain_index}", FAILURE_SATISFACTION, 2.0)
    ]


def test_state_round_trip_and_refusal(scenario):
    feedback = make(scenario)
    feedback.fleet.cd_agents[0].published_count = 3
    state = feedback.state_dict()
    expected = feedback.rng.random()
    restored = make(scenario)
    with pytest.raises(ConfigurationError, match="publish counts"):
        restored.restore({**state, "published": state["published"][1:]})
    assert restored.fleet.total_published() == 0
    restored.restore(state)
    assert restored.fleet.total_published() == 3
    assert restored.rng.random() == expected
