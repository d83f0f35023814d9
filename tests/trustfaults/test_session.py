"""Tests for trust-plane fault wiring in the closed-loop GridSession."""

import pytest

from repro.errors import ConfigurationError
from repro.grid.agents import AgentFleet
from repro.grid.behavior import BehaviorModel, StationaryBehavior
from repro.grid.session import GridSession
from repro.obs.metrics import MetricsRegistry
from repro.scheduling.policy import TrustPolicy
from repro.trustfaults.model import (
    AdversarySpec,
    AttackKind,
    IntegrityFaultModel,
    TrustFaultModel,
    TrustQueryConfig,
    TrustSourceFault,
)
from repro.workloads.scenario import ScenarioSpec, materialize


def make_grid(seed=0):
    return materialize(
        ScenarioSpec(cd_range=(2, 2), rd_range=(3, 3)), seed=seed
    ).grid


def make_session(grid, *, trustfaults=None, fleet=None, metrics=None, seed=0):
    return GridSession(
        grid=grid,
        behavior=BehaviorModel(profiles={}, default=StationaryBehavior(0.9, 0.05)),
        policy=TrustPolicy.aware(),
        seed=seed,
        fleet=fleet,
        metrics=metrics,
        trustfaults=trustfaults,
    )


INTEGRITY = IntegrityFaultModel(
    adversaries=(
        AdversarySpec(kind=AttackKind.BALLOT_STUFF, targets=(0,)),
    )
)


class TestWiring:
    def test_disabled_model_changes_nothing(self):
        grid = make_grid()
        baseline = make_session(make_grid()).run(rounds=2, requests_per_round=8)
        session = make_session(grid, trustfaults=TrustFaultModel())
        result = session.run(rounds=2, requests_per_round=8)
        assert result.total_degraded == 0
        assert all(r.injected_opinions == 0 for r in result.rounds)
        assert [r.schedule.records for r in result.rounds] == [
            r.schedule.records for r in baseline.rounds
        ]

    def test_integrity_requires_gamma_fleet(self):
        with pytest.raises(ConfigurationError, match="Γ-blended"):
            make_session(
                make_grid(),
                trustfaults=TrustFaultModel(integrity=INTEGRITY),
            )

    def test_adversaries_inject_each_round(self):
        grid = make_grid()
        fleet = AgentFleet.for_table(
            grid.trust_table, gamma_weights=(0.5, 0.5)
        )
        session = make_session(
            grid,
            fleet=fleet,
            trustfaults=TrustFaultModel(integrity=INTEGRITY),
        )
        result = session.run(rounds=2, requests_per_round=8)
        assert all(r.injected_opinions > 0 for r in result.rounds)

    def test_table_blackout_degrades_but_completes(self):
        grid = make_grid()
        metrics = MetricsRegistry(enabled=True)
        session = make_session(
            grid,
            metrics=metrics,
            trustfaults=TrustFaultModel(
                table=TrustSourceFault(blackout=True),
                query=TrustQueryConfig(failure_threshold=1),
            ),
        )
        result = session.run(rounds=2, requests_per_round=8)
        assert result.total_degraded > 0
        assert sum(r.schedule.n_completed for r in result.rounds) == 16
        snap = metrics.snapshot()
        assert snap["costs.degraded_rows"]["value"] > 0
        assert "trustq.breaker.table.closed->open" in snap

    def test_healthy_table_source_never_degrades(self):
        grid = make_grid()
        session = make_session(
            grid,
            trustfaults=TrustFaultModel(table=TrustSourceFault()),
        )
        result = session.run(rounds=2, requests_per_round=8)
        assert result.total_degraded == 0
