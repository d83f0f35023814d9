"""Tests for the retry policy."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.retry import RetryPolicy


class TestRetryPolicy:
    def test_parameters_validated(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base=-1.0)

    def test_should_retry_up_to_the_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_attempt_numbers_are_one_based(self):
        policy = RetryPolicy()
        with pytest.raises(ConfigurationError, match="failed_attempt"):
            policy.should_retry(0)
        with pytest.raises(ConfigurationError, match="failed_attempt"):
            policy.delay_for(0)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=2.0)
        assert policy.delay_for(1) == 2.0
        assert policy.delay_for(2) == 4.0
        assert policy.delay_for(3) == 8.0

    def test_zero_base_means_immediate_retry(self):
        assert RetryPolicy(backoff_base=0.0).delay_for(2) == 0.0

    def test_drop_policy_never_retries(self):
        policy = RetryPolicy.drop()
        assert policy.max_attempts == 1
        assert not policy.should_retry(1)
