"""Behavioural tests for the always-on service: shedding, backpressure,
deadlines, watchdog, metrics, and lifecycle invariants."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ServiceError, ServiceStalled
from repro.experiments.config import PAPER_BATCH_INTERVAL, paper_policies
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultModel, TaskFailureModel
from repro.faults.retry import RetryPolicy
from repro.obs.invariants import check_trace_lifecycle
from repro.obs.metrics import MetricsRegistry
from repro.scheduling import TRMScheduler, make_heuristic
from repro.service import (
    AdmissionPolicy,
    GridService,
    ServiceConfig,
    ServiceResult,
    WatchdogConfig,
)
from repro.sim.trace import Tracer


def make_service(
    scenario,
    config=None,
    *,
    heuristic="min-min",
    metrics=None,
    tracer=None,
    faults=None,
    retry=None,
):
    aware, _ = paper_policies()
    interval = (
        PAPER_BATCH_INTERVAL if heuristic in ("min-min", "max-min", "sufferage")
        else None
    )
    scheduler = TRMScheduler(
        scenario.grid,
        scenario.eec,
        aware,
        make_heuristic(heuristic),
        batch_interval=interval,
        metrics=metrics,
        tracer=tracer,
        faults=faults,
        retry=retry,
    )
    return GridService(scheduler, config)


def assert_settled_exactly_once(result: ServiceResult, total: int) -> None:
    schedule = result.schedule
    assert result.submitted == total
    assert (
        schedule.n_completed + schedule.n_rejected + schedule.n_dropped
        == total
    )
    # Deadline expiries and priority evictions hit *after* admission, so
    # they don't count against the ingress split.
    post_admission = result.shed.get("deadline-expired", 0) + result.shed.get(
        "shed-priority", 0
    )
    ingress_shed = result.shed_total - post_admission
    assert result.admitted + ingress_shed == total


class TestConfigValidation:
    def test_window_interval_positive(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(window_interval=0.0)

    def test_backpressure_low_needs_high(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(backpressure_low=2)

    def test_watchdog_validation(self):
        with pytest.raises(ConfigurationError):
            WatchdogConfig(window_wall_budget_s=0.0)
        with pytest.raises(ConfigurationError):
            WatchdogConfig(stall_window_limit=0)

    def test_kill_and_checkpoint_knobs_validated(self, medium_scenario):
        with pytest.raises(ConfigurationError):
            make_service(medium_scenario).serve(
                medium_scenario.requests, kill_after_window=0
            )
        with pytest.raises(ConfigurationError):
            make_service(medium_scenario).serve(
                medium_scenario.requests, checkpoint_every=0
            )


class TestSingleShot:
    def test_second_serve_refused(self, medium_scenario):
        service = make_service(medium_scenario)
        service.serve(medium_scenario.requests)
        with pytest.raises(ServiceError):
            service.serve(medium_scenario.requests)


class TestShedding:
    def test_queue_capacity(self, medium_scenario):
        config = ServiceConfig(admission=AdmissionPolicy(queue_capacity=5))
        result = make_service(medium_scenario, config).serve(
            medium_scenario.requests
        )
        total = len(medium_scenario.requests)
        assert_settled_exactly_once(result, total)
        assert result.shed.get("shed-queue-full", 0) > 0
        reasons = set(result.schedule.rejection_reasons.values())
        assert "shed-queue-full" in reasons

    def test_rate_limit(self, medium_scenario):
        config = ServiceConfig(
            admission=AdmissionPolicy(rate=0.001, burst=2.0)
        )
        result = make_service(medium_scenario, config).serve(
            medium_scenario.requests
        )
        assert_settled_exactly_once(result, len(medium_scenario.requests))
        assert result.shed.get("shed-rate-limited", 0) > 0
        # The burst was honoured before the limiter kicked in.
        assert result.admitted >= 2

    def test_deadline_expiry(self, medium_scenario):
        # Everything queued longer than 60 s sheds at the window boundary;
        # with a 600 s window, requests arriving early in the period expire.
        config = ServiceConfig(admission=AdmissionPolicy(deadline=60.0))
        result = make_service(medium_scenario, config).serve(
            medium_scenario.requests
        )
        assert_settled_exactly_once(result, len(medium_scenario.requests))
        assert result.shed.get("deadline-expired", 0) > 0

    def test_accept_horizon_drains(self, medium_scenario):
        config = ServiceConfig(
            admission=AdmissionPolicy(accept_horizon=0.0)
        )
        result = make_service(medium_scenario, config).serve(
            medium_scenario.requests
        )
        total = len(medium_scenario.requests)
        assert_settled_exactly_once(result, total)
        late = [r for r in medium_scenario.requests if r.arrival_time > 0.0]
        assert result.shed.get("shed-draining", 0) == len(late)

    def test_priority_eviction(self, medium_scenario):
        # Higher request index = higher priority; with a tiny queue, later
        # arrivals evict earlier ones.
        config = ServiceConfig(
            admission=AdmissionPolicy(
                queue_capacity=3, priority_of=lambda r: float(r.index)
            )
        )
        result = make_service(medium_scenario, config).serve(
            medium_scenario.requests
        )
        assert_settled_exactly_once(result, len(medium_scenario.requests))
        assert result.shed.get("shed-priority", 0) > 0
        # The evicted requests are the *low*-priority (low-index) ones.
        evicted = [
            idx
            for idx, reason in result.schedule.rejection_reasons.items()
            if reason == "shed-priority"
        ]
        completed = {r.request_index for r in result.schedule.records}
        assert max(evicted) < max(completed)


class TestBackpressure:
    def test_latch_engages_and_releases(self, table6_scenario):
        config = ServiceConfig(backpressure_high=10, backpressure_low=2)
        result = make_service(table6_scenario, config).serve(
            table6_scenario.requests
        )
        assert_settled_exactly_once(result, len(table6_scenario.requests))
        assert result.backpressure_engagements > 0
        assert result.shed.get("shed-backpressure", 0) > 0
        # The latch must not stay stuck: the drain releases it.
        assert result.backpressure_releases == result.backpressure_engagements


class TestWatchdog:
    def fault_service(self, scenario, watchdog):
        # One doomed request chain: crashes keep the backlog alive across
        # many windows thanks to an enormous retry backoff.
        # Crash probability must stay < 1.0; this close to certainty, no
        # attempt ever succeeds under the fixed seed.
        model = FaultModel(
            tasks=TaskFailureModel(default_crash_prob=1.0 - 1e-9)
        )
        return make_service(
            scenario,
            ServiceConfig(watchdog=watchdog),
            faults=FaultInjector(model, rng=1),
            retry=RetryPolicy(
                max_attempts=3, backoff_base=5 * PAPER_BATCH_INTERVAL
            ),
        )

    def test_stall_is_counted(self, medium_scenario):
        service = self.fault_service(
            medium_scenario, WatchdogConfig(stall_window_limit=3)
        )
        result = service.serve(medium_scenario.requests)
        assert result.watchdog_trips > 0
        # Counting mode still drains to completion.
        assert_settled_exactly_once(result, len(medium_scenario.requests))
        assert result.schedule.n_dropped == len(medium_scenario.requests)

    def test_fail_fast_raises(self, medium_scenario):
        service = self.fault_service(
            medium_scenario,
            WatchdogConfig(stall_window_limit=3, fail_fast=True),
        )
        with pytest.raises(ServiceStalled):
            service.serve(medium_scenario.requests)


class TestObservability:
    def test_svc_metrics_emitted(self, medium_scenario):
        metrics = MetricsRegistry()
        config = ServiceConfig(admission=AdmissionPolicy(queue_capacity=5))
        make_service(medium_scenario, config, metrics=metrics).serve(
            medium_scenario.requests
        )
        snapshot = metrics.snapshot()
        names = set(snapshot)
        assert "svc.submitted" in names
        assert "svc.admitted" in names
        assert "svc.shed" in names
        assert "svc.shed.shed-queue-full" in names
        assert "svc.windows" in names
        assert "svc.window_mapped" in names
        assert "svc.backlog" in names
        assert "svc.enqueue_latency_s" in names

    def test_trace_lifecycle_under_shedding(self, medium_scenario):
        tracer = Tracer()
        config = ServiceConfig(
            admission=AdmissionPolicy(queue_capacity=4, deadline=120.0)
        )
        result = make_service(medium_scenario, config, tracer=tracer).serve(
            medium_scenario.requests
        )
        violations = check_trace_lifecycle(
            tracer.entries(),
            completed=[r.request_index for r in result.schedule.records],
            rejected=result.schedule.rejected,
            dropped=result.schedule.dropped,
        )
        assert violations == []

    def test_summary_carries_service_section(self, medium_scenario):
        result = make_service(medium_scenario).serve(
            medium_scenario.requests
        )
        summary = result.summary()
        assert summary["service"]["submitted"] == len(
            medium_scenario.requests
        )
        assert summary["service"]["windows"] == result.windows
