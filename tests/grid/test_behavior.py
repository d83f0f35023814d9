"""Tests for ground-truth behaviour profiles."""

import numpy as np
import pytest

from repro.grid.behavior import (
    BehaviorModel,
    DegradingBehavior,
    StationaryBehavior,
)


class TestStationaryBehavior:
    def test_mean_constant(self):
        b = StationaryBehavior(mean=0.7)
        assert b.mean_at(0.0) == b.mean_at(1e6) == 0.7

    def test_samples_bounded_and_centered(self, rng):
        b = StationaryBehavior(mean=0.7, noise=0.1)
        samples = [b.sample(0.0, rng) for _ in range(2000)]
        assert all(0.0 <= s <= 1.0 for s in samples)
        assert np.mean(samples) == pytest.approx(0.7, abs=0.02)

    def test_scalar_clip_equals_numpy_clip_draw_for_draw(self):
        # sample() clips with min/max; the stream must equal the np.clip
        # formulation it replaced, RNG draws and clipped ends included.
        b = StationaryBehavior(mean=0.5, noise=0.4)
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        samples = [b.sample(0.0, ours) for _ in range(10_000)]
        expected = [
            float(np.clip(theirs.normal(0.5, 0.4), 0.0, 1.0)) for _ in range(10_000)
        ]
        assert samples == expected
        assert all(type(s) is float for s in samples)
        assert samples.count(0.0) > 0 and samples.count(1.0) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            StationaryBehavior(mean=1.5)
        with pytest.raises(ValueError):
            StationaryBehavior(mean=0.5, noise=-0.1)


class TestDegradingBehavior:
    def test_linear_path(self):
        b = DegradingBehavior(start=1.0, floor=0.0, horizon=10.0)
        assert b.mean_at(0.0) == 1.0
        assert b.mean_at(5.0) == pytest.approx(0.5)
        assert b.mean_at(10.0) == 0.0
        assert b.mean_at(100.0) == 0.0  # clamps at the floor

    def test_negative_time_clamped(self):
        b = DegradingBehavior(start=0.9, floor=0.1, horizon=10.0)
        assert b.mean_at(-5.0) == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            DegradingBehavior(start=2.0, floor=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            DegradingBehavior(start=0.5, floor=0.1, horizon=0.0)


class TestBehaviorModel:
    def test_profile_lookup_with_default(self):
        model = BehaviorModel(
            profiles={0: StationaryBehavior(0.9)},
            default=StationaryBehavior(0.5),
        )
        assert model.profile_for(0).mean_at(0) == 0.9
        assert model.profile_for(7).mean_at(0) == 0.5

    def test_uniform_factory(self, rng):
        model = BehaviorModel.uniform(mean=0.6)
        assert model.profile_for(3).mean_at(0) == 0.6
        assert 0.0 <= model.sample(3, 0.0, rng) <= 1.0
