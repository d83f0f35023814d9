"""Tests for online statistics accumulators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import RunningStats

samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=100
)


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0
        assert s.variance == 0.0
        assert s.stderr == 0.0

    def test_single_sample(self):
        s = RunningStats()
        s.add(5.0)
        assert s.mean == 5.0
        assert s.variance == 0.0
        assert s.minimum == s.maximum == 5.0

    @given(samples)
    def test_matches_numpy(self, values):
        s = RunningStats()
        s.extend(values)
        assert s.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(np.var(values, ddof=1), rel=1e-6, abs=1e-4)
        assert s.minimum == min(values)
        assert s.maximum == max(values)

    def test_confidence_interval_brackets_mean(self):
        s = RunningStats()
        s.extend([1.0, 2.0, 3.0, 4.0])
        lo, hi = s.confidence_interval()
        assert lo <= s.mean <= hi
        assert hi > lo

