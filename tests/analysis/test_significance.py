"""Tests for paired significance utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.significance import paired_t_test


class TestPairedTTest:
    def test_clear_difference_is_significant(self):
        rng = np.random.default_rng(0)
        base = rng.normal(100, 5, size=30)
        treat = base - 20 + rng.normal(0, 2, size=30)
        result = paired_t_test(base, treat)
        assert result.mean_difference == pytest.approx(20, abs=3)
        assert result.degrees_of_freedom == 29
        assert result.p_value < 1e-6
        assert result.significant()

    def test_no_difference_is_not_significant(self):
        rng = np.random.default_rng(1)
        base = rng.normal(100, 5, size=30)
        treat = base + rng.normal(0, 5, size=30)  # zero-mean noise
        result = paired_t_test(base, treat)
        assert result.p_value > 0.01

    def test_identical_series(self):
        result = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t_statistic == 0.0
        assert result.p_value == 1.0
        assert not result.significant()

    def test_constant_nonzero_difference(self):
        result = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert result.p_value == 0.0
        assert result.mean_difference == 1.0

    def test_known_t_value(self):
        # diffs = [1, 2, 3]: mean 2, sd 1, n 3 -> t = 2/(1/sqrt(3)) = 3.464.
        result = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert result.t_statistic == pytest.approx(3.4641, rel=1e-3)
        # Two-sided p for t=3.464, df=2 is ~0.0742.
        assert result.p_value == pytest.approx(0.0742, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [1.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])

    @settings(max_examples=50)
    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=3,
            max_size=30,
        )
    )
    def test_p_value_in_unit_interval(self, values):
        rng = np.random.default_rng(len(values))
        other = np.array(values) + rng.normal(0, 1, size=len(values))
        result = paired_t_test(values, other)
        assert 0.0 <= result.p_value <= 1.0

    def test_symmetry(self):
        a = [10.0, 12.0, 9.0, 15.0]
        b = [8.0, 11.0, 9.5, 12.0]
        ab = paired_t_test(a, b)
        ba = paired_t_test(b, a)
        assert ab.p_value == pytest.approx(ba.p_value)
        assert ab.t_statistic == pytest.approx(-ba.t_statistic)


class TestCellIntegration:
    def test_cell_significance(self):
        from repro.experiments.runner import run_paired_cell
        from repro.scheduling.policy import TrustPolicy
        from repro.workloads.scenario import ScenarioSpec

        cell = run_paired_cell(
            ScenarioSpec(n_tasks=15, target_load=4.5),
            "mct",
            TrustPolicy.aware(unaware_fraction=0.9),
            TrustPolicy.unaware(unaware_fraction=0.9),
            replications=8,
        )
        assert len(cell.aware_samples) == 8
        test = cell.significance()
        assert test.mean_difference > 0  # unaware slower
        assert test.significant()
