"""Cross-module integration tests.

Each test exercises a full user-facing flow across several packages — the
kind of path a downstream adopter would wire up — rather than one module's
contract.
"""

import numpy as np
import pytest

from repro import (
    ScenarioSpec,
    SecurityAccounting,
    TRMScheduler,
    TrustPolicy,
    materialize,
)
from repro.experiments import (
    PAPER_BATCH_INTERVAL,
    paper_policies,
    paper_spec,
    run_paired_cell,
)
from repro.grid import (
    BehaviorModel,
    GridSession,
    StationaryBehavior,
)
from repro.metrics import PairedComparison
from repro.scheduling import LadderEsc, make_heuristic
from repro.security import plan_supplement
from repro.workloads import Consistency, load_scenario, save_scenario
from tests.scheduling.oracles import OracleHeuristic


class TestPaperPipeline:
    """The core paper flow: scenario -> paired schedules -> improvement."""

    @pytest.mark.parametrize("heuristic", ["mct", "min-min", "sufferage"])
    def test_paper_heuristics_improve(self, heuristic):
        aware, unaware = paper_policies()
        spec = paper_spec(30, Consistency.INCONSISTENT)
        cell = run_paired_cell(
            spec,
            heuristic,
            aware,
            unaware,
            replications=5,
            batch_interval=PAPER_BATCH_INTERVAL,
        )
        assert cell.mean_improvement > 0.10
        assert cell.significance().significant()

    def test_fast_heuristics_through_full_scheduler(self):
        """The registered production kernel settles a full scheduler run
        exactly as its scalar oracle loop does."""
        scenario = materialize(ScenarioSpec(n_tasks=25, target_load=4.0), seed=3)
        policy = TrustPolicy.aware(unaware_fraction=0.9)
        ref = TRMScheduler(
            scenario.grid, scenario.eec, policy, OracleHeuristic("sufferage"),
            batch_interval=300.0,
        ).run(scenario.requests)
        fast = TRMScheduler(
            scenario.grid, scenario.eec, policy, make_heuristic("sufferage"),
            batch_interval=300.0,
        ).run(scenario.requests)
        assert [r.completion_time for r in ref.records] == [
            r.completion_time for r in fast.records
        ]


class TestSecurityToSchedulingBridge:
    """The ladder ESC model ties Section 5.1 to Section 4 costs."""

    def test_ladder_esc_model_run(self):
        scenario = materialize(ScenarioSpec(n_tasks=20, target_load=4.0), seed=5)
        linear = TrustPolicy.aware(unaware_fraction=0.9)
        ladder = TrustPolicy.aware(unaware_fraction=0.9, esc_model=LadderEsc())
        r_linear = TRMScheduler(
            scenario.grid, scenario.eec, linear, make_heuristic("mct")
        ).run(scenario.requests)
        r_ladder = TRMScheduler(
            scenario.grid, scenario.eec, ladder, make_heuristic("mct")
        ).run(scenario.requests)
        pair_a = PairedComparison(aware=r_linear, unaware=r_ladder)
        # The two ESC groundings agree to within a few percent.
        assert abs(pair_a.completion_improvement) < 0.10

    def test_security_plan_explains_realized_cost(self):
        """For any completed request, the micro-level plan's overhead is in
        the ballpark of the scalar ESC the scheduler charged."""
        scenario = materialize(ScenarioSpec(n_tasks=15, target_load=3.0), seed=7)
        policy = TrustPolicy.aware(esc_model=LadderEsc())
        result = TRMScheduler(
            scenario.grid, scenario.eec, policy, make_heuristic("mct")
        ).run(scenario.requests)
        for rec in result.records:
            request = scenario.requests[rec.request_index]
            plan = plan_supplement(request.task.activities, int(rec.trust_cost))
            expected = rec.eec * plan.overhead_fraction
            assert rec.security_cost == pytest.approx(expected, rel=1e-6)


class TestSerializationPipeline:
    def test_save_schedule_reload_schedule(self, tmp_path):
        scenario = materialize(ScenarioSpec(n_tasks=12, target_load=3.0), seed=9)
        path = save_scenario(scenario, tmp_path / "s.json")
        reloaded = load_scenario(path)
        policy = TrustPolicy.unaware(accounting=SecurityAccounting.PAIR_REALIZED)
        a = TRMScheduler(
            scenario.grid, scenario.eec, policy, make_heuristic("kpb")
        ).run(scenario.requests)
        b = TRMScheduler(
            reloaded.grid, reloaded.eec, policy, make_heuristic("kpb")
        ).run(reloaded.requests)
        assert a.makespan == pytest.approx(b.makespan)


class TestClosedLoopImprovesScheduling:
    def test_learned_trust_lowers_trust_costs(self):
        """After the agents learn that the domains behave well, the aware
        scheduler pays lower trust costs than it did cold."""
        grid = materialize(
            ScenarioSpec(cd_range=(2, 2), rd_range=(3, 3)), seed=11
        ).grid
        # Start cold: minimum offered trust everywhere.
        grid.trust_table.fill_from(
            np.ones(grid.trust_table.shape, dtype=np.int64)
        )
        session = GridSession(
            grid=grid,
            behavior=BehaviorModel(profiles={}, default=StationaryBehavior(0.92)),
            policy=TrustPolicy.aware(unaware_fraction=0.9),
            seed=2,
        )
        result = session.run(rounds=5, requests_per_round=30)
        assert result.trust_cost_series[-1] < result.trust_cost_series[0]


class TestBurstyScheduling:
    def test_mmpp_scenario_through_full_scheduler(self):
        """A bursty workload runs through every mode without surprises."""
        spec = ScenarioSpec(n_tasks=30, target_load=4.0, burstiness=5.0)
        scenario = materialize(spec, seed=6)
        policy = TrustPolicy.aware(unaware_fraction=0.9)
        for name, interval in (("mct", None), ("min-min", 400.0)):
            result = TRMScheduler(
                scenario.grid,
                scenario.eec,
                policy,
                make_heuristic(name),
                batch_interval=interval,
            ).run(scenario.requests)
            assert len(result) == 30
            assert result.makespan > 0


class TestSchedulingTables579:
    """Quick shape checks for the consistent-class tables (5, 7, 9)."""

    @pytest.mark.parametrize("number", [5, 7, 9])
    def test_trust_aware_wins(self, number):
        from repro.experiments import reproduce_scheduling_table

        repro_table = reproduce_scheduling_table(
            number, replications=3, task_counts=(20,), base_seed=0
        )
        cell = repro_table.data["cells"][20]
        assert cell.mean_improvement > 0.05
