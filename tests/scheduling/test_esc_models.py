"""Tests for the paper's trust-aware ESC formula, ``TrustPolicy.esc_aware``."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.scheduling.policy import TrustPolicy


class TestLinearEsc:
    def test_matches_paper_formula(self):
        policy = TrustPolicy.aware(tc_weight=15.0)
        eec = np.array([100.0, 200.0])
        tc = np.array([3.0, 6.0])
        np.testing.assert_allclose(policy.esc_aware(eec, tc), [45.0, 180.0])

    def test_zero_tc_zero_cost(self):
        policy = TrustPolicy.aware()
        np.testing.assert_allclose(
            policy.esc_aware(np.array([50.0]), np.array([0.0])), [0.0]
        )

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError, match="tc_weight"):
            TrustPolicy.aware(tc_weight=-1.0)
        with pytest.raises(ConfigurationError, match="non-negative, got min -1.0"):
            TrustPolicy.aware().esc_aware(np.array([1.0]), np.array([-1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="equal shape"):
            TrustPolicy.aware().esc_aware(np.array([1.0, 2.0]), np.array([1.0]))

    @given(st.floats(min_value=0, max_value=6), st.floats(min_value=0.1, max_value=1e3))
    def test_proportionality(self, tc, eec):
        policy = TrustPolicy.aware(tc_weight=15.0)
        out = policy.esc_aware(np.array([eec]), np.array([tc]))
        assert out[0] == pytest.approx(eec * tc * 0.15)


class TestPolicyIntegration:
    def test_policy_defaults_to_linear(self):
        policy = TrustPolicy.aware()
        assert policy.tc_weight == 15.0
        np.testing.assert_array_equal(
            policy.esc_aware(np.array([100.0] * 7), np.arange(7.0)),
            100.0 * (np.arange(7.0) * 15.0 / 100.0),
        )
