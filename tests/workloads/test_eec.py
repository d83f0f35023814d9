"""Tests for EEC generation, heterogeneity and consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.consistency import Consistency, apply_consistency
from repro.workloads.eec import range_based_matrix
from repro.workloads.heterogeneity import BY_NAME, HIHI, HILO, LOHI, LOLO


def _task_heterogeneity(matrix: np.ndarray) -> float:
    """Mean coefficient of variation down the columns (Section 5.3)."""
    return float((matrix.std(axis=0) / matrix.mean(axis=0)).mean())


def _expected_entry(h) -> float:
    """Expected EEC entry of a class: the product of the two uniform means."""
    return (1.0 + h.task_range) / 2.0 * (1.0 + h.machine_range) / 2.0


class TestHeterogeneityClasses:
    def test_canonical_ranges(self):
        assert (LOLO.task_range, LOLO.machine_range) == (100.0, 10.0)
        assert (HIHI.task_range, HIHI.machine_range) == (3000.0, 1000.0)
        assert (LOHI.machine_range, HILO.machine_range) == (1000.0, 10.0)

    def test_lookup_by_name(self):
        assert BY_NAME["lolo"] is LOLO
        assert BY_NAME["hihi"] is HIHI

    def test_mean_cost(self):
        assert _expected_entry(LOLO) == pytest.approx(50.5 * 5.5)


class TestRangeBasedMatrix:
    def test_shape_and_positivity(self, rng):
        m = range_based_matrix(20, 5, LOLO, rng)
        assert m.shape == (20, 5)
        assert np.all(m > 0)

    def test_entries_within_product_range(self, rng):
        m = range_based_matrix(50, 8, LOLO, rng)
        assert m.max() <= LOLO.task_range * LOLO.machine_range
        assert m.min() >= 1.0

    def test_mean_matches_expectation(self, rng):
        m = range_based_matrix(2000, 10, LOLO, rng)
        assert m.mean() == pytest.approx(_expected_entry(LOLO), rel=0.05)

    def test_consistent_rows_are_sorted(self, rng):
        m = range_based_matrix(30, 6, LOLO, rng, consistency=Consistency.CONSISTENT)
        assert np.all(np.diff(m, axis=1) >= 0)

    def test_high_task_heterogeneity_measured(self, rng):
        lo = range_based_matrix(300, 8, LOLO, rng)
        hi = range_based_matrix(300, 8, HILO, rng)
        assert _task_heterogeneity(hi) > _task_heterogeneity(lo) * 0.9

    def test_invalid_dims(self, rng):
        with pytest.raises(WorkloadError):
            range_based_matrix(0, 5, LOLO, rng)


class TestApplyConsistency:
    def test_inconsistent_is_copy(self, rng):
        m = range_based_matrix(5, 4, LOLO, rng)
        out = apply_consistency(m, Consistency.INCONSISTENT)
        np.testing.assert_array_equal(out, m)
        assert out is not m

    def test_consistent_preserves_multiset_per_row(self, rng):
        m = range_based_matrix(10, 6, LOLO, rng)
        out = apply_consistency(m, Consistency.CONSISTENT)
        np.testing.assert_allclose(np.sort(out, axis=1), np.sort(m, axis=1))

    def test_semi_consistent_sorts_even_columns(self, rng):
        m = range_based_matrix(10, 6, LOLO, rng)
        out = apply_consistency(m, Consistency.SEMI_CONSISTENT)
        even = out[:, ::2]
        assert np.all(np.diff(even, axis=1) >= 0)
        # Odd columns untouched.
        np.testing.assert_array_equal(out[:, 1::2], m[:, 1::2])

    def test_from_name(self):
        assert Consistency.from_name("Consistent") is Consistency.CONSISTENT
        assert Consistency.from_name(" SEMI-CONSISTENT ") is Consistency.SEMI_CONSISTENT
        with pytest.raises(WorkloadError):
            Consistency.from_name("random")

    def test_rejects_bad_matrices(self):
        with pytest.raises(WorkloadError):
            apply_consistency(np.ones(5), Consistency.CONSISTENT)
        with pytest.raises(WorkloadError):
            apply_consistency(np.zeros((2, 2)), Consistency.CONSISTENT)

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=8))
    def test_consistent_always_sorted(self, n, m):
        rng = np.random.default_rng(n * 100 + m)
        mat = range_based_matrix(n, m, LOLO, rng, consistency=Consistency.CONSISTENT)
        assert np.all(np.diff(mat, axis=1) >= 0)
