"""Tests for arrival processes."""

import numpy as np
import pytest

from repro.sim.arrivals import (
    BatchArrivalProcess,
    PoissonProcess,
)


class TestPoissonProcess:
    def test_times_are_increasing(self, rng):
        proc = PoissonProcess(rate=0.5, rng=rng)
        times = proc.times(100)
        assert np.all(np.diff(times) > 0)
        assert times[0] > 0

    def test_mean_interarrival_matches_rate(self, rng):
        rate = 2.0
        times = PoissonProcess(rate=rate, rng=rng).times(20_000)
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(1.0 / rate, rel=0.05)

    def test_exponential_gaps_cv_near_one(self, rng):
        """Poisson arrivals have coefficient of variation 1."""
        times = PoissonProcess(rate=1.0, rng=rng).times(20_000)
        gaps = np.diff(times)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, rel=0.05)

    def test_start_offset(self, rng):
        times = PoissonProcess(rate=1.0, rng=rng, start=100.0).times(10)
        assert times[0] >= 100.0

    def test_zero_count(self, rng):
        assert PoissonProcess(rate=1.0, rng=rng).times(0).size == 0

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            PoissonProcess(rate=1.0, rng=rng).times(-1)

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            PoissonProcess(rate=0.0, rng=rng)

    def test_determinism_per_stream(self):
        a = PoissonProcess(rate=1.0, rng=np.random.default_rng(9)).times(50)
        b = PoissonProcess(rate=1.0, rng=np.random.default_rng(9)).times(50)
        np.testing.assert_array_equal(a, b)


class TestBatchArrivalProcess:
    def test_all_at_once(self):
        times = BatchArrivalProcess(at=5.0).times(3)
        assert times.tolist() == [5.0, 5.0, 5.0]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            BatchArrivalProcess(at=-1.0)
