"""Tests for repro.core.decay."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.decay import (
    ExponentialDecay,
    HalfLifeDecay,
    LinearDecay,
    NoDecay,
    StepDecay,
)

ages = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)

ALL_DECAYS = [
    NoDecay(),
    ExponentialDecay(rate=0.01),
    ExponentialDecay(rate=0.5, floor=0.2),
    LinearDecay(horizon=100.0),
    LinearDecay(horizon=10.0, floor=0.1),
    StepDecay(fresh_for=50.0, stale_value=0.3),
    HalfLifeDecay(half_life=20.0),
]


@pytest.mark.parametrize("decay", ALL_DECAYS, ids=lambda d: type(d).__name__)
class TestDecayProtocol:
    def test_fresh_information_full_credibility(self, decay):
        assert decay(0.0) == pytest.approx(1.0)

    def test_range(self, decay):
        for age in [0.0, 1.0, 10.0, 1e3, 1e9]:
            assert 0.0 <= decay(age) <= 1.0

    def test_non_increasing(self, decay):
        samples = [decay(a) for a in np.linspace(0, 500, 50)]
        assert all(a >= b - 1e-12 for a, b in zip(samples, samples[1:]))

    def test_negative_age_rejected(self, decay):
        with pytest.raises(ValueError):
            decay(-1.0)

    def test_vectorised_matches_scalar(self, decay):
        # The numpy transcription the scalar closed forms replaced; the
        # two may differ only in the last ulp (``math.exp`` vs ``np.exp``).
        ages = np.array([0.0, 3.5, 42.0, 1e4])
        np.testing.assert_allclose(
            _numpy_reference(decay, ages), [decay(a) for a in ages], rtol=1e-12
        )

    def test_vectorised_rejects_negative(self, decay):
        # Ages taken from a numpy array arrive as np.float64 and are
        # validated like Python floats.
        with pytest.raises(ValueError):
            [decay(a) for a in np.array([1.0, -0.5])]

    def test_nan_age_rejected(self, decay):
        with pytest.raises(ValueError, match="nan"):
            decay(math.nan)


def _numpy_reference(decay, ages):
    if isinstance(decay, NoDecay):
        return np.ones_like(ages)
    if isinstance(decay, ExponentialDecay):
        return decay.floor + (1.0 - decay.floor) * np.exp(-decay.rate * ages)
    if isinstance(decay, LinearDecay):
        return 1.0 - (1.0 - decay.floor) * np.minimum(ages / decay.horizon, 1.0)
    return np.where(ages <= decay.fresh_for, 1.0, decay.stale_value)


def _math_closed_form(decay, age):
    if isinstance(decay, NoDecay):
        return 1.0
    if isinstance(decay, ExponentialDecay):
        return decay.floor + (1.0 - decay.floor) * math.exp(-decay.rate * age)
    if isinstance(decay, LinearDecay):
        return 1.0 - (1.0 - decay.floor) * min(age / decay.horizon, 1.0)
    return 1.0 if age <= decay.fresh_for else decay.stale_value


@pytest.mark.parametrize("decay", ALL_DECAYS, ids=lambda d: type(d).__name__)
@given(age=ages)
def test_scalar_call_is_math_closed_form(decay, age):
    """``__call__`` is exactly its closed form in scalar ``math``."""
    assert decay(age) == _math_closed_form(decay, age)


class TestSpecifics:
    def test_exponential_floor_is_asymptote(self):
        d = ExponentialDecay(rate=1.0, floor=0.25)
        assert d(1e9) == pytest.approx(0.25)

    def test_linear_reaches_floor_at_horizon(self):
        d = LinearDecay(horizon=10.0, floor=0.4)
        assert d(10.0) == pytest.approx(0.4)
        assert d(50.0) == pytest.approx(0.4)

    def test_linear_midpoint(self):
        d = LinearDecay(horizon=10.0)
        assert d(5.0) == pytest.approx(0.5)

    def test_step_boundary_inclusive(self):
        d = StepDecay(fresh_for=5.0, stale_value=0.2)
        assert d(5.0) == 1.0
        assert d(5.0001) == 0.2

    def test_half_life(self):
        d = HalfLifeDecay(half_life=7.0)
        assert d(7.0) == pytest.approx(0.5)
        assert d.half_life == pytest.approx(7.0)

    @given(ages)
    def test_no_decay_everywhere_one(self, age):
        assert NoDecay()(age) == 1.0


class TestValidation:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ExponentialDecay(rate=-1.0),
            lambda: ExponentialDecay(rate=1.0, floor=1.5),
            lambda: LinearDecay(horizon=0.0),
            lambda: LinearDecay(horizon=1.0, floor=-0.1),
            lambda: StepDecay(fresh_for=-1.0),
            lambda: StepDecay(fresh_for=1.0, stale_value=2.0),
            lambda: HalfLifeDecay(half_life=0.0),
        ],
    )
    def test_bad_parameters_rejected(self, factory):
        with pytest.raises(ValueError):
            factory()
