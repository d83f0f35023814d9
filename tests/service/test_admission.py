"""Tests for the ingestion plane's admission control."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    ShedReason,
    TokenBucket,
)


def request(index: int, arrival: float = 0.0):
    # Only index/arrival_time matter to admission; a light stand-in keeps
    # these tests independent of grid construction.
    return SimpleNamespace(index=index, arrival_time=arrival)


class TestTokenBucket:
    def test_validations(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=-1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=0.5)

    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_refills_with_simulated_time(self):
        bucket = TokenBucket(rate=0.5, burst=1.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(1.0)  # only 0.5 tokens accrued
        assert bucket.try_take(2.0)  # a full token after 2 s at rate 0.5

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        bucket.refill(1_000.0)
        assert bucket.tokens == 3.0

    def test_clock_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=5.0)
        assert bucket.try_take(10.0)
        bucket.refill(5.0)
        assert bucket.last_refill == 10.0

    def test_state_round_trip(self):
        bucket = TokenBucket(rate=0.3, burst=4.0)
        bucket.try_take(7.5)
        clone = TokenBucket(rate=0.3, burst=4.0)
        clone.restore(bucket.state_dict())
        assert clone.tokens == bucket.tokens
        assert clone.last_refill == bucket.last_refill


class TestAdmissionPolicy:
    def test_validations(self):
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(rate=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(burst=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(deadline=-1.0)

    def test_unlimited(self):
        policy = AdmissionPolicy.unlimited()
        assert policy == AdmissionPolicy()
        assert (policy.queue_capacity, policy.rate, policy.deadline) == (
            None, None, None
        )


class TestDecisionOrder:
    def test_unlimited_admits_everything(self):
        ctl = AdmissionController(AdmissionPolicy.unlimited())
        verdict = ctl.decide(
            0.0, queue=[], queue_bounded=True, backpressure=False
        )
        assert verdict is None

    def test_backpressure_outranks_the_bucket(self):
        ctl = AdmissionController(AdmissionPolicy(rate=100.0))
        verdict = ctl.decide(
            0.0, queue=[], queue_bounded=True, backpressure=True
        )
        assert verdict is ShedReason.BACKPRESSURE
        # The bucket was not charged for a backpressure shed.
        assert ctl.bucket.tokens == ctl.bucket.burst

    def test_rate_limit(self):
        ctl = AdmissionController(AdmissionPolicy(rate=0.001, burst=1.0))
        first = ctl.decide(
            0.0, queue=[], queue_bounded=True, backpressure=False
        )
        second = ctl.decide(
            0.0, queue=[], queue_bounded=True, backpressure=False
        )
        assert first is None
        assert second is ShedReason.RATE_LIMITED

    def test_queue_capacity_applies_only_in_batch_mode(self):
        ctl = AdmissionController(AdmissionPolicy(queue_capacity=1))
        queue = [request(0)]
        batch = ctl.decide(
            0.0, queue=queue, queue_bounded=True, backpressure=False
        )
        immediate = ctl.decide(
            0.0, queue=queue, queue_bounded=False, backpressure=False
        )
        assert batch is ShedReason.QUEUE_FULL
        assert immediate is None

