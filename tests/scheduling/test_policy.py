"""Tests for the trust policy cost formulas (paper Section 4.1)."""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.profile import config_hash
from repro.scheduling.policy import (
    TRUST_WEIGHT,
    UNAWARE_FRACTION,
    SecurityAccounting,
    TrustPolicy,
)

eec_arrays = st.lists(
    st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=8
).map(lambda xs: np.array(xs))
tc_arrays = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=8).map(
    lambda xs: np.array(xs, dtype=float)
)


class TestPaperConstants:
    def test_paper_values(self):
        assert TRUST_WEIGHT == 15.0
        assert UNAWARE_FRACTION == 0.5


class TestEscFormulas:
    def test_aware_esc_matches_paper_formula(self):
        policy = TrustPolicy.aware()
        eec = np.array([100.0, 200.0])
        tc = np.array([3.0, 0.0])
        np.testing.assert_allclose(policy.esc_aware(eec, tc), [45.0, 0.0])

    def test_unaware_esc_is_half_eec(self):
        policy = TrustPolicy.unaware()
        np.testing.assert_allclose(policy.esc_unaware(np.array([100.0])), [50.0])

    def test_average_tc_gives_45_percent(self):
        """The paper: with average TC = 3, aware ESC averages 45% of EEC."""
        policy = TrustPolicy.aware()
        esc = policy.esc_aware(np.array([1.0]), np.array([3.0]))
        assert esc[0] == pytest.approx(0.45)

    def test_max_tc_gives_90_percent(self):
        policy = TrustPolicy.aware()
        esc = policy.esc_aware(np.array([1.0]), np.array([6.0]))
        assert esc[0] == pytest.approx(0.90)


class TestMappingVsRealized:
    def test_aware_mapping_equals_realized(self):
        policy = TrustPolicy.aware()
        eec = np.array([10.0, 20.0])
        tc = np.array([2.0, 4.0])
        np.testing.assert_allclose(
            policy.mapping_ecc(eec, tc), policy.realized_ecc(eec, tc)
        )

    def test_unaware_flat_accounting(self):
        policy = TrustPolicy.unaware(accounting=SecurityAccounting.CONSERVATIVE_FLAT)
        eec = np.array([10.0])
        tc = np.array([6.0])
        np.testing.assert_allclose(policy.mapping_ecc(eec, tc), [15.0])
        np.testing.assert_allclose(policy.realized_ecc(eec, tc), [15.0])

    def test_unaware_pair_realized_accounting(self):
        policy = TrustPolicy.unaware(accounting=SecurityAccounting.PAIR_REALIZED)
        eec = np.array([10.0])
        tc = np.array([6.0])
        # Believes flat 1.5x, pays the pair-specific 1.9x.
        np.testing.assert_allclose(policy.mapping_ecc(eec, tc), [15.0])
        np.testing.assert_allclose(policy.realized_ecc(eec, tc), [19.0])

    def test_labels(self):
        assert TrustPolicy.aware().label == "trust-aware"
        assert TrustPolicy.unaware().label == "trust-unaware"

    @given(eec_arrays, tc_arrays)
    def test_ecc_at_least_eec(self, eec, tc):
        tc = tc[: len(eec)] if len(tc) >= len(eec) else np.resize(tc, len(eec))
        for policy in (TrustPolicy.aware(), TrustPolicy.unaware()):
            assert np.all(policy.mapping_ecc(eec, tc) >= eec - 1e-12)
            assert np.all(policy.realized_ecc(eec, tc) >= eec - 1e-12)

    @given(eec_arrays, tc_arrays)
    def test_zero_tc_means_no_aware_overhead(self, eec, tc):
        policy = TrustPolicy.aware()
        zero_tc = np.zeros(len(eec))
        np.testing.assert_allclose(policy.realized_ecc(eec, zero_tc), eec)


class TestValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            TrustPolicy(True, tc_weight=-1.0)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            TrustPolicy(False, unaware_fraction=-0.5)

    def test_custom_weight_flows_through(self):
        policy = TrustPolicy.aware(tc_weight=10.0)
        esc = policy.esc_aware(np.array([100.0]), np.array([2.0]))
        assert esc[0] == pytest.approx(20.0)


class TestResolvedModel:
    """The ESC model is resolved once; the policy's value semantics hold."""

    def test_model_resolved_once(self):
        policy = TrustPolicy.aware(tc_weight=10.0)
        assert policy.aware_model is policy.aware_model
        assert policy.aware_model.weight == 10.0

    def test_equality_and_hash_ignore_the_resolved_model(self):
        assert TrustPolicy.aware() == TrustPolicy.aware()
        assert hash(TrustPolicy.aware()) == hash(TrustPolicy.aware())
        assert TrustPolicy.aware() != TrustPolicy.aware(tc_weight=10.0)

    def test_pickle_carries_the_fields_only(self):
        policy = TrustPolicy.aware()
        data = pickle.dumps(policy, protocol=4)
        # The bytes a policy has always pickled to: fields, no derived state.
        assert hashlib.sha256(data).hexdigest() == (
            "bbb0127f4343f30f942677fce314585dd30b4e68a1b0eb00b28c316709c2edff"
        )
        clone = pickle.loads(data)
        assert clone == policy
        np.testing.assert_array_equal(
            clone.esc_aware(np.array([100.0]), np.array([3.0])), [45.0]
        )

    def test_config_hash_unchanged(self):
        assert config_hash({"p": TrustPolicy.aware()}) == (
            "9a63a8e522b5efd430488ab0042806edd2a2b3709f766f773c19f2f522cb150e"
        )

    def test_shape_and_sign_checks_kept(self):
        policy = TrustPolicy.aware()
        with pytest.raises(ValueError, match="equal shape"):
            policy.mapping_ecc(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            policy.realized_ecc(np.array([1.0]), np.array([-1.0]))
