"""Chaos smoke (satellite): machine outages, task crashes and a trust-plane
blackout all at once, under bounded admission and backpressure.  The service
must drain cleanly — every submitted request settles exactly once, nothing
deadlocks, and the trace lifecycle stays consistent."""

from __future__ import annotations

from repro.experiments.config import paper_policies
from repro.faults.model import (
    FaultModel,
    MachineFailureModel,
    TaskFailureModel,
)
from repro.faults.retry import RetryPolicy
from repro.obs.invariants import check_trace_lifecycle
from repro.obs.metrics import MetricsRegistry
from repro.service import AdmissionPolicy, ServiceConfig
from repro.service.admission import ShedReason
from repro.service.replay import replay_scenario
from repro.sim.trace import Tracer

CHAOS_FAULTS = FaultModel(
    tasks=TaskFailureModel(default_crash_prob=0.2),
    machines=MachineFailureModel(mtbf=2000.0, mttr=250.0),
)

KNOWN_REASONS = {reason.value for reason in ShedReason} | {
    "constraint-infeasible",
}


class TestChaosSmoke:
    def test_everything_at_once(self, table6_scenario):
        from repro.trustfaults.model import TrustFaultModel, TrustSourceFault

        sc = table6_scenario
        aware, _ = paper_policies()
        metrics = MetricsRegistry()
        tracer = Tracer()
        config = ServiceConfig(
            admission=AdmissionPolicy(queue_capacity=40, deadline=2400.0),
            backpressure_high=30,
        )
        result = replay_scenario(
            sc,
            "min-min",
            aware,
            config=config,
            faults=CHAOS_FAULTS,
            fault_seed=11,
            retry=RetryPolicy(max_attempts=3, backoff_base=45.0),
            trust_faults=TrustFaultModel(
                table=TrustSourceFault(blackout=True)
            ),
            metrics=metrics,
            tracer=tracer,
        )

        total = len(sc.requests)
        schedule = result.schedule

        # Clean drain: the event loop terminated and every request settled
        # exactly once — completed, rejected at admission, or dropped.
        assert result.submitted == total
        assert (
            schedule.n_completed + schedule.n_rejected + schedule.n_dropped
            == total
        )
        post_admission = result.shed.get("deadline-expired", 0)
        assert result.admitted + result.shed_total - post_admission == total

        # No silent losses: every index is accounted for, none twice.
        completed = {r.request_index for r in schedule.records}
        rejected = set(schedule.rejected)
        dropped = set(schedule.dropped)
        assert completed | rejected | dropped == {
            r.index for r in sc.requests
        }
        assert not (completed & rejected)
        assert not (completed & dropped)
        assert not (rejected & dropped)

        # The chaos actually happened: faults fired and the blackout forced
        # degraded trust decisions, yet work still completed.
        assert len(schedule.failures) > 0
        assert schedule.n_completed > 0
        snapshot = metrics.snapshot()

        def count(name):
            return snapshot.get(name, {}).get("value", 0)

        assert count("trustq.queries") > 0
        assert (
            count("trustq.fast_fails")
            + count("trustq.timeouts")
            + count("trustq.stale")
        ) > 0

        # Every terminal reason is a known one.
        reasons = set(schedule.rejection_reasons.values())
        assert reasons <= KNOWN_REASONS

        # Lifecycle invariants hold through shedding, retries and downtime.
        violations = check_trace_lifecycle(
            tracer.entries(),
            completed=sorted(completed),
            rejected=schedule.rejected,
            dropped=schedule.dropped,
        )
        assert violations == []

    def test_chaos_with_rate_limit_still_drains(self, medium_scenario):
        sc = medium_scenario
        aware, _ = paper_policies()
        config = ServiceConfig(
            admission=AdmissionPolicy(rate=0.02, burst=4.0),
            backpressure_high=12,
        )
        result = replay_scenario(
            sc,
            "min-min",
            aware,
            config=config,
            faults=CHAOS_FAULTS,
            fault_seed=4,
            retry=RetryPolicy(max_attempts=2, backoff_base=30.0),
        )
        schedule = result.schedule
        total = len(sc.requests)
        assert result.submitted == total
        assert (
            schedule.n_completed + schedule.n_rejected + schedule.n_dropped
            == total
        )
        assert result.shed.get("shed-rate-limited", 0) > 0
