"""Tests for the circuit breaker and retry backoff."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.trustfaults.breaker import BackoffPolicy, BreakerState, CircuitBreaker


class TestBreakerStateMachine:
    def test_starts_closed(self):
        assert CircuitBreaker().state(0.0) is BreakerState.CLOSED

    def test_failures_below_threshold_stay_closed(self):
        b = CircuitBreaker(failure_threshold=3)
        b.record_failure(0.0)
        b.record_failure(1.0)
        assert b.state(1.0) is BreakerState.CLOSED
        assert b.allows(1.0)

    def test_threshold_trips_open(self):
        b = CircuitBreaker(failure_threshold=3)
        for t in (0.0, 1.0, 2.0):
            b.record_failure(t)
        assert b.state(2.0) is BreakerState.OPEN
        assert not b.allows(2.0)

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure(0.0)
        b.record_success(1.0)
        b.record_failure(2.0)
        assert b.state(2.0) is BreakerState.CLOSED

    def test_cooldown_half_opens(self):
        b = CircuitBreaker(failure_threshold=1, cooldown=50.0)
        b.record_failure(0.0)
        assert b.state(49.9) is BreakerState.OPEN
        assert b.state(50.0) is BreakerState.HALF_OPEN
        assert b.allows(50.0)

    def test_probe_success_closes(self):
        b = CircuitBreaker(failure_threshold=1, cooldown=10.0, probe_successes=1)
        b.record_failure(0.0)
        b.record_success(20.0)
        assert b.state(20.0) is BreakerState.CLOSED

    def test_multiple_probe_successes_required(self):
        b = CircuitBreaker(failure_threshold=1, cooldown=10.0, probe_successes=2)
        b.record_failure(0.0)
        b.record_success(20.0)
        assert b.state(20.0) is BreakerState.HALF_OPEN
        b.record_success(21.0)
        assert b.state(21.0) is BreakerState.CLOSED

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        b = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        b.record_failure(0.0)
        b.record_failure(10.0)  # probe fails
        assert b.state(15.0) is BreakerState.OPEN  # cooldown restarted at 10
        assert b.state(20.0) is BreakerState.HALF_OPEN

    def test_transitions_counted_and_metered(self):
        metrics = MetricsRegistry(enabled=True)
        b = CircuitBreaker(
            name="src", failure_threshold=1, cooldown=10.0, metrics=metrics
        )
        b.record_failure(0.0)
        b.record_success(10.0)  # half-open via lazy cooldown, then closed
        assert b.state_dict()["transitions"] == 3
        snap = metrics.snapshot()
        assert snap["trustq.breaker.src.closed->open"]["value"] == 1
        assert snap["trustq.breaker.src.open->half-open"]["value"] == 1
        assert snap["trustq.breaker.src.half-open->closed"]["value"] == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"cooldown": -1.0},
            {"probe_successes": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(**kwargs)


class TestBreakerCheckpoint:
    def test_fresh_breaker_has_no_opening_time(self):
        assert CircuitBreaker().state_dict() == {
            "state": "closed",
            "failures": 0,
            "probes_ok": 0,
            "opened_at": None,
            "transitions": 0,
        }

    @pytest.mark.parametrize("steps", [0, 1, 2, 3, 4, 5])
    def test_restore_continues_exactly(self, steps):
        # Failures at t=0,1 trip the breaker, the cooldown half-opens it at
        # t=11, one probe success does not close it (two are needed).
        outcomes = [
            ("failure", 0.0), ("failure", 1.0), ("success", 11.0),
            ("failure", 12.0), ("success", 30.0), ("success", 31.0),
        ]

        def make():
            return CircuitBreaker(failure_threshold=2, cooldown=10.0, probe_successes=2)

        def feed(breaker, items):
            for kind, t in items:
                getattr(breaker, f"record_{kind}")(t)
            return breaker

        straight = feed(make(), outcomes)
        restored = make()
        restored.restore(feed(make(), outcomes[:steps]).state_dict())
        feed(restored, outcomes[steps:])
        assert restored.state_dict() == straight.state_dict()
        assert restored.state(40.0) is straight.state(40.0)


class TestBackoffPolicy:
    def test_exponential_growth_without_jitter(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, max_delay=60.0, jitter=0.0)
        rng = np.random.default_rng(0)
        assert [policy.delay(k, rng) for k in range(4)] == [1.0, 2.0, 4.0, 8.0]

    def test_delay_capped(self):
        policy = BackoffPolicy(base=1.0, factor=10.0, max_delay=5.0, jitter=0.0)
        rng = np.random.default_rng(0)
        assert policy.delay(6, rng) == 5.0

    def test_jitter_bounds(self):
        policy = BackoffPolicy(base=4.0, factor=1.0, max_delay=4.0, jitter=0.5)
        rng = np.random.default_rng(1)
        delays = [policy.delay(0, rng) for _ in range(200)]
        assert all(2.0 <= d <= 6.0 for d in delays)
        assert max(delays) > 4.0 > min(delays)  # jitter actually spreads

    def test_deterministic_under_seed(self):
        policy = BackoffPolicy()
        a = [policy.delay(k, np.random.default_rng(7)) for k in range(3)]
        b = [policy.delay(k, np.random.default_rng(7)) for k in range(3)]
        assert a == b

    def test_negative_attempt_rejected(self):
        with pytest.raises(ConfigurationError):
            BackoffPolicy().delay(-1, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": 0.0},
            {"factor": 0.5},
            {"base": 10.0, "max_delay": 5.0},
            {"jitter": 1.5},
            {"max_retries": -1},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(**kwargs)
