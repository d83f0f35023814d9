"""Tests for improvement computation and paired comparisons."""

import pytest

from repro.metrics.improvement import PairedComparison, improvement_fraction
from repro.scheduling.mct import MctHeuristic
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.scheduler import TRMScheduler


class TestImprovementFraction:
    def test_positive_when_aware_better(self):
        assert improvement_fraction(100.0, 63.0) == pytest.approx(0.37)

    def test_negative_when_aware_worse(self):
        assert improvement_fraction(100.0, 110.0) == pytest.approx(-0.10)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            improvement_fraction(0.0, 1.0)


class TestPairedComparison:
    @pytest.fixture
    def pair(self, small_scenario):
        aware = TRMScheduler(
            small_scenario.grid, small_scenario.eec, TrustPolicy.aware(), MctHeuristic()
        ).run(small_scenario.requests)
        unaware = TRMScheduler(
            small_scenario.grid, small_scenario.eec, TrustPolicy.unaware(), MctHeuristic()
        ).run(small_scenario.requests)
        return PairedComparison(aware=aware, unaware=unaware)

    def test_improvements_computed(self, pair):
        expected = 1 - pair.aware.average_completion_time / pair.unaware.average_completion_time
        assert pair.completion_improvement == pytest.approx(expected)
        makespan = 1 - pair.aware.makespan / pair.unaware.makespan
        assert -1.0 < makespan < 1.0

    def test_security_cost_saved(self, pair):
        base = pair.unaware.total_security_cost
        saved = (base - pair.aware.total_security_cost) / base if base > 0 else 0.0
        assert saved <= 1.0

    def test_mismatched_heuristics_rejected(self, pair):
        bad = pair.unaware.__class__(
            heuristic="olb",
            policy_label="trust-unaware",
            records=pair.unaware.records,
            machine_states=pair.unaware.machine_states,
        )
        with pytest.raises(ValueError, match="heuristic"):
            PairedComparison(aware=pair.aware, unaware=bad)
