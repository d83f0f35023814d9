"""Tests for the TRM scheduler (event-driven execution)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultModel, MachineFailureModel, TaskFailureModel
from repro.faults.retry import RetryPolicy
from repro.grid.activities import ActivitySet
from repro.grid.request import Request, Task
from repro.scheduling.base import BatchHeuristic, PlannedAssignment
from repro.scheduling.engine import SchedulingEngine
from repro.scheduling.esc_models import EscModel
from repro.scheduling.mct import MctHeuristic
from repro.scheduling.minmin import MinMinHeuristic
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.result import CompletionRecord
from repro.scheduling.scheduler import TRMScheduler
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer


def neutral_trust(grid):
    n_cd, n_rd, n_act = grid.trust_table.shape
    grid.trust_table.fill_from(np.full((n_cd, n_rd, n_act), 5, dtype=np.int64))
    grid.cd_required[:] = 1
    grid.rd_required[:] = 1


def make_requests(grid, arrivals, activities=(0,)):
    reqs = []
    for i, t in enumerate(arrivals):
        task = Task(index=i, activities=ActivitySet.of(
            [grid.catalog.by_index(a) for a in activities]))
        reqs.append(Request(index=i, client=grid.clients[0], task=task, arrival_time=t))
    return reqs


class TestConfiguration:
    def test_batch_heuristic_needs_interval(self, small_grid):
        with pytest.raises(ConfigurationError, match="batch_interval"):
            TRMScheduler(small_grid, np.ones((1, 3)), TrustPolicy.aware(), MinMinHeuristic())

    def test_immediate_heuristic_rejects_interval(self, small_grid):
        with pytest.raises(ConfigurationError):
            TRMScheduler(
                small_grid, np.ones((1, 3)), TrustPolicy.aware(), MctHeuristic(),
                batch_interval=10.0,
            )

    def test_nonpositive_interval_rejected(self, small_grid):
        with pytest.raises(ConfigurationError):
            TRMScheduler(
                small_grid, np.ones((1, 3)), TrustPolicy.aware(), MinMinHeuristic(),
                batch_interval=0.0,
            )


class TestImmediateMode:
    def test_all_requests_complete(self, small_grid):
        neutral_trust(small_grid)
        eec = np.full((5, 3), 10.0)
        reqs = make_requests(small_grid, [0.0, 1.0, 2.0, 3.0, 4.0])
        result = TRMScheduler(small_grid, eec, TrustPolicy.aware(), MctHeuristic()).run(reqs)
        assert len(result) == 5
        assert result.heuristic == "mct"
        assert result.policy_label == "trust-aware"

    def test_execution_respects_arrival(self, small_grid):
        neutral_trust(small_grid)
        eec = np.full((1, 3), 10.0)
        reqs = make_requests(small_grid, [7.0])
        result = TRMScheduler(small_grid, eec, TrustPolicy.aware(), MctHeuristic()).run(reqs)
        rec = result.records[0]
        assert rec.start_time == 7.0
        assert rec.completion_time == 17.0

    def test_queueing_on_busy_machines(self, small_grid):
        neutral_trust(small_grid)
        # One machine grid would force queuing; with 3 machines and 4
        # simultaneous tasks the 4th must wait for the first to finish.
        eec = np.full((4, 3), 10.0)
        reqs = make_requests(small_grid, [0.0, 0.0, 0.0, 0.0])
        result = TRMScheduler(small_grid, eec, TrustPolicy.aware(), MctHeuristic()).run(reqs)
        completions = sorted(r.completion_time for r in result.records)
        assert completions == [10.0, 10.0, 10.0, 20.0]
        assert result.makespan == 20.0

    def test_records_in_request_order(self, small_grid):
        neutral_trust(small_grid)
        eec = np.full((3, 3), 5.0)
        reqs = make_requests(small_grid, [2.0, 0.0, 1.0])
        result = TRMScheduler(small_grid, eec, TrustPolicy.aware(), MctHeuristic()).run(reqs)
        assert [r.request_index for r in result.records] == [0, 1, 2]

    def test_realized_cost_includes_security(self, small_grid):
        neutral_trust(small_grid)
        eec = np.full((1, 3), 10.0)
        reqs = make_requests(small_grid, [0.0])
        result = TRMScheduler(small_grid, eec, TrustPolicy.unaware(), MctHeuristic()).run(reqs)
        rec = result.records[0]
        assert rec.eec == 10.0
        assert rec.realized_cost == pytest.approx(15.0)
        assert rec.security_cost == pytest.approx(5.0)

    def test_on_complete_hook_fires_per_request(self, small_grid):
        neutral_trust(small_grid)
        eec = np.full((3, 3), 5.0)
        seen = []
        scheduler = TRMScheduler(
            small_grid, eec, TrustPolicy.aware(), MctHeuristic(),
            on_complete=lambda rec: seen.append(rec.request_index),
        )
        scheduler.run(make_requests(small_grid, [0.0, 1.0, 2.0]))
        assert sorted(seen) == [0, 1, 2]

    def test_tracer_records_events(self, small_grid):
        neutral_trust(small_grid)
        eec = np.full((2, 3), 5.0)
        tracer = Tracer()
        TRMScheduler(
            small_grid, eec, TrustPolicy.aware(), MctHeuristic(), tracer=tracer
        ).run(make_requests(small_grid, [0.0, 1.0]))
        assert len(tracer.entries("arrival")) == 2
        assert len(tracer.entries("assign")) == 2


class TestBatchMode:
    def test_requests_wait_for_batch_boundary(self, small_grid):
        neutral_trust(small_grid)
        eec = np.full((2, 3), 10.0)
        reqs = make_requests(small_grid, [1.0, 2.0])
        result = TRMScheduler(
            small_grid, eec, TrustPolicy.aware(), MinMinHeuristic(), batch_interval=5.0
        ).run(reqs)
        for rec in result.records:
            assert rec.mapped_time == 5.0
            assert rec.start_time >= 5.0

    def test_multiple_batches(self, small_grid):
        neutral_trust(small_grid)
        eec = np.full((4, 3), 1.0)
        reqs = make_requests(small_grid, [1.0, 2.0, 11.0, 12.0])
        tracer = Tracer()
        result = TRMScheduler(
            small_grid, eec, TrustPolicy.aware(), MinMinHeuristic(),
            batch_interval=10.0, tracer=tracer,
        ).run(reqs)
        batches = tracer.entries("batch")
        assert [b.detail["size"] for b in batches] == [2, 2]
        assert len(result) == 4

    def test_empty_windows_are_skipped(self, small_grid):
        neutral_trust(small_grid)
        eec = np.full((1, 3), 1.0)
        reqs = make_requests(small_grid, [25.0])
        tracer = Tracer()
        result = TRMScheduler(
            small_grid, eec, TrustPolicy.aware(), MinMinHeuristic(),
            batch_interval=10.0, tracer=tracer,
        ).run(reqs)
        # Windows at 10 and 20 are empty; the request maps at t=30.
        assert result.records[0].mapped_time == 30.0
        assert len(tracer.entries("batch")) == 1

    def test_batch_arrival_on_boundary_joins_closing_batch(self, small_grid):
        neutral_trust(small_grid)
        eec = np.full((1, 3), 1.0)
        reqs = make_requests(small_grid, [10.0])
        result = TRMScheduler(
            small_grid, eec, TrustPolicy.aware(), MinMinHeuristic(), batch_interval=10.0
        ).run(reqs)
        assert result.records[0].mapped_time == 10.0


class TestEvolvingTrust:
    def test_publish_between_windows_reprices_same_key(self, small_grid):
        # The default table offers A everywhere: cd0's TC row is [2, 2, 3].
        # Request 0's completion publishes E for (cd0, rd0, activity 0);
        # request 1 carries the same pricing key and maps in a later window,
        # so it must be priced against the table as it stands then.
        published = []

        def publish(record):
            small_grid.trust_table.set(0, 0, 0, "E")
            published.append(record.request_index)

        eec = np.full((2, 3), 1.0)
        reqs = make_requests(small_grid, [1.0, 25.0])
        result = TRMScheduler(
            small_grid, eec, TrustPolicy.aware(), MinMinHeuristic(),
            batch_interval=10.0, on_complete=publish,
        ).run(reqs)
        first, second = result.records
        assert published[0] == 0 and second.mapped_time == 30.0
        assert first.trust_cost == 2.0
        (current,) = small_grid.trust_cost_matrix(
            np.array([0]), np.array([[True, False, False]])
        )
        assert current.tolist() == [0, 0, 3]
        assert second.machine_index in (0, 1)
        assert second.trust_cost == current[second.machine_index] == 0.0
        assert second.realized_cost == pytest.approx(1.0)


class LastItemOffGrid(BatchHeuristic):
    """Plans every request onto machine 0, except the last onto a machine
    the grid does not have."""

    name = "off-grid"

    def plan(self, requests, costs, avail):
        machines = [0] * (len(requests) - 1) + [costs.grid.n_machines]
        return [
            PlannedAssignment(request=r, machine_index=m, order=k)
            for k, (r, m) in enumerate(zip(requests, machines))
        ]


class TestBadPlanRefusal:
    def test_refused_atomically_naming_heuristic_request_and_machine(
        self, small_grid
    ):
        neutral_trust(small_grid)
        scheduler = TRMScheduler(
            small_grid, np.full((3, 3), 1.0), TrustPolicy.aware(),
            LastItemOffGrid(), batch_interval=5.0,
        )
        engine = SchedulingEngine(scheduler, Simulator())
        requests = make_requests(small_grid, [1.0, 2.0, 3.0])
        for request in requests:
            engine.submit(request, request.arrival_time)
        with pytest.raises(
            SchedulingError, match=r"off-grid chose invalid machine 3 for request 2"
        ):
            engine.form_batch(5.0)
        assert engine.records == {}
        assert [s.available_time for s in engine.states] == [0.0, 0.0, 0.0]
        assert engine.pending == requests


class Rebate(EscModel):
    """A stub ESC model paying back twice the EEC: every cost is negative."""

    def fractions(self, tc):
        return np.full_like(np.asarray(tc, dtype=np.float64), -2.0)


def assert_nothing_booked(engine, sim, hooked):
    assert engine.records == {}
    assert engine.settled == 0
    assert [
        (s.available_time, s.busy_time, s.assigned_count) for s in engine.states
    ] == [(0.0, 0.0, 0)] * len(engine.states)
    assert sim.pending == 0
    assert hooked == []


class TestWindowChecks:
    """The booking loop checks each window's plan before booking any of it."""

    def build(self, grid, heuristic, policy=None, **kwargs):
        neutral_trust(grid)
        hooked = []
        scheduler = TRMScheduler(
            grid, np.full((3, 3), 2.0), policy or TrustPolicy.aware(), heuristic,
            on_complete=hooked.append, **kwargs,
        )
        sim = Simulator()
        return SchedulingEngine(scheduler, sim), sim, hooked

    def test_negative_realized_cost_refused_in_batch(self, small_grid):
        engine, sim, hooked = self.build(
            small_grid, MinMinHeuristic(),
            TrustPolicy.aware(esc_model=Rebate()), batch_interval=5.0,
        )
        engine.pending.extend(make_requests(small_grid, [1.0, 2.0, 3.0]))
        with pytest.raises(
            SchedulingError,
            match=r"request [0-2] has negative realized cost -2\.0",
        ):
            engine.form_batch(5.0)
        assert_nothing_booked(engine, sim, hooked)

    def test_negative_realized_cost_refused_immediately(self, small_grid):
        engine, sim, hooked = self.build(
            small_grid, MctHeuristic(), TrustPolicy.aware(esc_model=Rebate())
        )
        (request,) = make_requests(small_grid, [1.0])
        with pytest.raises(
            SchedulingError, match=r"request 0 has negative realized cost -2\.0"
        ):
            engine.submit(request, 1.0)
        assert_nothing_booked(engine, sim, hooked)

    def test_arrival_after_the_mapping_refused(self, small_grid):
        # (A batch window refuses late members earlier, in MetaRequest.)
        engine, sim, hooked = self.build(small_grid, MctHeuristic())
        (request,) = make_requests(small_grid, [6.0])
        with pytest.raises(
            SchedulingError, match=r"request 0 arrives at 6\.0, after its mapping at 5\.0"
        ):
            engine.submit(request, 5.0)
        assert_nothing_booked(engine, sim, hooked)

    def test_faulted_run_books_valid_records(self, small_scenario):
        model = FaultModel(
            tasks=TaskFailureModel(default_crash_prob=0.3),
            machines=MachineFailureModel(mtbf=500.0, mttr=50.0),
        )
        result = TRMScheduler(
            small_scenario.grid, small_scenario.eec, TrustPolicy.aware(),
            MinMinHeuristic(), batch_interval=50.0,
            faults=FaultInjector(model, rng=4),
            retry=RetryPolicy(max_attempts=8),
        ).run(small_scenario.requests)
        assert result.failures
        assert any(r.attempt > 1 for r in result.records)
        for rec in result.records:
            assert rec.attempt >= 1
            # The validating constructor accepts every unchecked record.
            assert CompletionRecord(*rec) == rec


class TestPairedDeterminism:
    def test_same_seed_same_result(self, small_scenario):
        for Heur, kw in [(MctHeuristic, {}), (MinMinHeuristic, {"batch_interval": 50.0})]:
            a = TRMScheduler(
                small_scenario.grid, small_scenario.eec, TrustPolicy.aware(), Heur(), **kw
            ).run(small_scenario.requests)
            b = TRMScheduler(
                small_scenario.grid, small_scenario.eec, TrustPolicy.aware(), Heur(), **kw
            ).run(small_scenario.requests)
            assert [r.completion_time for r in a.records] == [
                r.completion_time for r in b.records
            ]

    def test_busy_time_consistency(self, small_scenario):
        result = TRMScheduler(
            small_scenario.grid, small_scenario.eec, TrustPolicy.aware(), MctHeuristic()
        ).run(small_scenario.requests)
        total_cost = sum(r.realized_cost for r in result.records)
        total_busy = sum(s.busy_time for s in result.machine_states)
        assert total_busy == pytest.approx(total_cost)
