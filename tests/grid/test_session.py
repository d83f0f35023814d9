"""Tests for the closed-loop GridSession."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.grid.agents import AgentFleet
from repro.grid.behavior import (
    BehaviorModel,
    DegradingBehavior,
    FlipBehavior,
    StationaryBehavior,
)
from repro.grid.session import GridSession
from repro.scheduling.policy import TrustPolicy
from repro.workloads.scenario import ScenarioSpec, materialize


def make_grid(seed=5):
    return materialize(ScenarioSpec(cd_range=(2, 2), rd_range=(3, 3)), seed=seed).grid


def make_session(grid=None, behavior=None, **kwargs) -> GridSession:
    grid = grid if grid is not None else make_grid()
    behavior = behavior if behavior is not None else BehaviorModel.uniform(0.85)
    defaults = dict(
        grid=grid,
        behavior=behavior,
        policy=TrustPolicy.aware(unaware_fraction=0.9),
        seed=3,
    )
    defaults.update(kwargs)
    return GridSession(**defaults)


class TestConfiguration:
    def test_batch_heuristic_needs_interval(self):
        with pytest.raises(ConfigurationError, match="batch"):
            make_session(heuristic="min-min")

    def test_batch_heuristic_with_interval_ok(self):
        session = make_session(heuristic="min-min", batch_interval=200.0)
        result = session.run_round(10)
        assert len(result.schedule) == 10

    def test_foreign_fleet_rejected(self):
        grid_a, grid_b = make_grid(1), make_grid(2)
        fleet_b = AgentFleet.for_table(grid_b.trust_table)
        with pytest.raises(ConfigurationError, match="fleet"):
            make_session(grid=grid_a, fleet=fleet_b)

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            make_session(arrival_rate=0.0)

    def test_invalid_round_sizes(self):
        session = make_session()
        with pytest.raises(ConfigurationError):
            session.run_round(0)
        with pytest.raises(ConfigurationError):
            session.run(rounds=0, requests_per_round=5)


class TestRounds:
    def test_clock_advances_across_rounds(self):
        session = make_session()
        r0 = session.run_round(10)
        t0 = session.now
        assert t0 >= r0.schedule.makespan
        session.run_round(10)
        assert session.now > t0

    def test_completions_feed_agents(self):
        session = make_session()
        result = session.run(rounds=2, requests_per_round=15)
        assert result.total_published > 0
        assert len(result) == 2
        # Internal evidence accumulated in the shared table.
        assert len(session.fleet.internal_table) > 0

    def test_good_behavior_raises_published_levels(self):
        grid = make_grid()
        session = make_session(grid=grid, behavior=BehaviorModel.uniform(0.95))
        before = grid.trust_table.levels.mean()
        session.run(rounds=3, requests_per_round=20)
        assert grid.trust_table.levels.mean() > before

    def test_degrading_domain_loses_trust(self):
        grid = make_grid()
        behavior = BehaviorModel(
            profiles={
                0: StationaryBehavior(0.9),
                1: StationaryBehavior(0.9),
                2: DegradingBehavior(start=0.9, floor=0.05, horizon=2000.0),
            }
        )
        session = make_session(grid=grid, behavior=behavior)
        result = session.run(rounds=6, requests_per_round=30)
        final = result.rounds[-1].table_levels
        # RD 2's published levels end below the healthy domains'.
        assert final[:, 2, :].mean() < final[:, 0, :].mean()

    def test_betrayal_detected(self):
        """A domain that flips from good to bad is demoted."""
        grid = make_grid()
        behavior = BehaviorModel(
            profiles={1: FlipBehavior(before=0.95, after=0.05, flip_time=1500.0)},
            default=StationaryBehavior(0.85),
        )
        session = make_session(grid=grid, behavior=behavior)
        result = session.run(rounds=8, requests_per_round=25)
        early = result.rounds[1].table_levels[:, 1, :].mean()
        late = result.rounds[-1].table_levels[:, 1, :].mean()
        assert late < early

    def test_score_clients_updates_both_sides(self):
        grid = make_grid()
        session = make_session(grid=grid, score_clients=True)
        session.run_round(20)
        trusters = {t for (t, _, _) in session.fleet.internal_table}
        assert any(str(t).startswith("cd:") for t in trusters)
        assert any(str(t).startswith("rd:") for t in trusters)

    def test_series_properties(self):
        session = make_session()
        result = session.run(rounds=3, requests_per_round=10)
        assert len(result.completion_series) == 3
        assert len(result.flow_series) == 3
        assert len(result.trust_cost_series) == 3
        assert all(np.isfinite(result.flow_series))

    def test_determinism(self):
        a = make_session(grid=make_grid(9), seed=11).run(2, 12)
        b = make_session(grid=make_grid(9), seed=11).run(2, 12)
        assert a.completion_series == b.completion_series
        assert a.trust_cost_series == b.trust_cost_series


class TestConstrainedSession:
    def test_session_with_reject_constraint(self):
        """A cold-start session with strict admission control: early rounds
        reject requests; as the table is learned, admission recovers."""
        from repro.scheduling.constraints import InfeasiblePolicy, TrustConstraint

        grid = make_grid(13)
        # Cold table: everyone offers A, so TC is high for demanding CDs.
        grid.trust_table.fill_from(
            np.ones(grid.trust_table.shape, dtype=np.int64)
        )
        session = make_session(
            grid=grid,
            behavior=BehaviorModel.uniform(0.95),
            constraint=TrustConstraint(
                max_trust_cost=2, infeasible=InfeasiblePolicy.REJECT
            ),
        )
        result = session.run(rounds=4, requests_per_round=25)
        first = result.rounds[0].schedule
        last = result.rounds[-1].schedule
        # Admitted requests always honour the bound.
        for round_result in result.rounds:
            for rec in round_result.schedule.records:
                assert rec.trust_cost <= 2
        # Learning good behaviour improves admission over the session.
        assert last.rejection_rate <= first.rejection_rate


class TestTrustKernelInstrumentation:
    def test_gamma_fleet_feeds_trust_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        grid = make_grid()
        fleet = AgentFleet.for_table(grid.trust_table, gamma_weights=(0.7, 0.3))
        metrics = MetricsRegistry(enabled=True)
        session = make_session(grid=grid, fleet=fleet, metrics=metrics)
        session.run(rounds=2, requests_per_round=8)
        # The Γ engines are bound to the session registry, so every agent
        # evaluation lands in the Γ latency histogram.
        assert metrics.histogram("trust.gamma_latency_s").count > 0

    def test_disabled_metrics_stay_silent(self):
        grid = make_grid()
        fleet = AgentFleet.for_table(grid.trust_table, gamma_weights=(0.7, 0.3))
        session = make_session(grid=grid, fleet=fleet)
        session.run(rounds=1, requests_per_round=8)
        assert session.metrics.snapshot() == {}


class TestTrustSnapshot:
    """Session-level durable trust plane and restart seeding."""

    @staticmethod
    def _journal_and_recover(session, root):
        from repro.core.journal import DurableTrustPlane

        session.run_round(30)
        session.journal_trust(root)
        session.run_round(30)
        pin = session.checkpoint_trust()
        assert pin["offset"] > 0, "the journal should carry the second round"
        session.trust_plane.close()
        return DurableTrustPlane.recover(root)

    def test_snapshot_and_reseed_resumes_with_knowledge(self, tmp_path):
        from repro.grid.trust_table import GridTrustTable

        session = make_session()
        recovered = self._journal_and_recover(session, tmp_path)
        internal = session.fleet.internal_table
        assert list(internal.items()), "rounds should populate the DTT/RTT"
        assert dict(recovered.table.items()) == dict(internal.items())
        assert np.array_equal(
            recovered.grid_table.levels, session.grid.trust_table.levels
        )
        recovered.close()

        # A restarted fleet seeded with the recovered table resumes with
        # the accumulated trust knowledge instead of a blank slate.
        shape = session.grid.trust_table.shape
        fleet = AgentFleet.for_table(
            GridTrustTable(*shape), internal_table=recovered.table
        )
        assert fleet.internal_table is recovered.table
        assert dict(fleet.internal_table.items()) == dict(internal.items())

    def test_gamma_fleet_snapshot_keeps_weights(self, tmp_path):
        from repro.grid.trust_table import GridTrustTable

        grid = make_grid()
        fleet = AgentFleet.for_table(
            grid.trust_table, gamma_weights=(0.7, 0.3)
        )
        session = make_session(grid=grid, fleet=fleet)
        recovered = self._journal_and_recover(session, tmp_path)
        recovered.close()
        weights = fleet.cd_agents[0].engine.reputation.weights
        assert recovered.weights is not None
        assert recovered.weights._accuracy == weights._accuracy
        assert recovered.weights._epoch == weights._epoch
        assert recovered.weights.alliances.epoch == weights.alliances.epoch
        assert dict(recovered.table.items()) == dict(fleet.internal_table.items())
        reseeded = AgentFleet.for_table(
            GridTrustTable(*grid.trust_table.shape),
            gamma_weights=(0.7, 0.3),
            recommender_weights=recovered.weights,
            internal_table=recovered.table,
        )
        assert reseeded.internal_table is recovered.table
