"""Tests for the failure models and machine timelines."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.model import (
    FaultModel,
    MachineFailureModel,
    MachineTimeline,
    TaskFailureModel,
)


class TestTaskFailureModel:
    def test_probability_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            TaskFailureModel(default_crash_prob=1.0)
        with pytest.raises(ConfigurationError):
            TaskFailureModel(rd_crash_prob={0: -0.1})
        with pytest.raises(ConfigurationError):
            TaskFailureModel(weibull_shape=0.0)

    def test_crash_prob_lookup_falls_back_to_default(self):
        model = TaskFailureModel(rd_crash_prob={2: 0.5}, default_crash_prob=0.1)
        assert model.crash_prob(2) == 0.5
        assert model.crash_prob(0) == 0.1

    def test_zero_probability_never_crashes_and_draws_nothing(self):
        model = TaskFailureModel()
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert model.sample_attempt(0, 100.0, rng) is None
        assert rng.bit_generator.state == before

    def test_crash_point_lies_within_the_attempt(self):
        model = TaskFailureModel(default_crash_prob=0.9)
        rng = np.random.default_rng(1)
        crashes = [model.sample_attempt(0, 50.0, rng) for _ in range(200)]
        executed = [c for c in crashes if c is not None]
        assert executed, "p=0.9 must produce crashes"
        assert all(0.0 <= c < 50.0 for c in executed)

    def test_weibull_crash_point_lies_within_the_attempt(self):
        model = TaskFailureModel(default_crash_prob=0.9, weibull_shape=3.0)
        rng = np.random.default_rng(2)
        executed = [
            c
            for c in (model.sample_attempt(0, 10.0, rng) for _ in range(200))
            if c is not None
        ]
        assert executed
        assert all(0.0 <= c < 10.0 for c in executed)

    def test_late_shape_crashes_later_than_early_shape(self):
        # k > 1 (wear-out) concentrates crash points late; k < 1 early.
        late = TaskFailureModel(default_crash_prob=0.5, weibull_shape=4.0)
        early = TaskFailureModel(default_crash_prob=0.5, weibull_shape=0.5)

        def mean_point(model, seed):
            rng = np.random.default_rng(seed)
            pts = [
                c
                for c in (model.sample_attempt(0, 1.0, rng) for _ in range(2000))
                if c is not None
            ]
            return float(np.mean(pts))

        assert mean_point(late, 3) > mean_point(early, 3)

    def test_same_stream_reproduces_the_same_fates(self):
        model = TaskFailureModel(default_crash_prob=0.4)
        a = [
            model.sample_attempt(0, 7.0, np.random.default_rng(s)) for s in range(30)
        ]
        b = [
            model.sample_attempt(0, 7.0, np.random.default_rng(s)) for s in range(30)
        ]
        assert a == b


class TestMachineFailureModel:
    def test_parameters_validated(self):
        with pytest.raises(ConfigurationError):
            MachineFailureModel(mtbf=0.0, mttr=10.0)
        with pytest.raises(ConfigurationError):
            MachineFailureModel(mtbf=10.0, mttr=-1.0)


class TestMachineTimeline:
    def make(self, seed=0, mtbf=100.0, mttr=10.0, start=0.0):
        return MachineTimeline(
            np.random.default_rng(seed), mtbf, mttr, start=start
        )

    def test_parameters_validated(self):
        with pytest.raises(ConfigurationError):
            self.make(mtbf=0.0)

    def test_machine_starts_up(self):
        tl = self.make(start=5.0)
        assert tl.is_up(5.0)
        assert tl.next_up(5.0) == 5.0

    def test_down_interval_pushes_next_up_to_repair(self):
        tl = self.make(seed=1)
        down, repair = tl.first_down_at_or_after(0.0)
        assert 0.0 < down < repair
        assert not tl.is_up((down + repair) / 2)
        assert tl.next_up((down + repair) / 2) == repair
        assert tl.is_up(repair)

    def test_first_down_in_is_strict_on_both_ends(self):
        tl = self.make(seed=2)
        down, _ = tl.first_down_at_or_after(0.0)
        # A window starting exactly at the down instant excludes it...
        assert tl.first_down_in(down, down + 1.0) != down
        # ...and one ending exactly at it also excludes it.
        assert tl.first_down_in(0.0, down) is None
        assert tl.first_down_in(0.0, down + 1e-9) == down

    def test_sample_path_is_deterministic(self):
        a, b = self.make(seed=7), self.make(seed=7)
        for t in (0.0, 50.0, 200.0, 1000.0):
            assert a.first_down_at_or_after(t) == b.first_down_at_or_after(t)
            assert a.next_up(t) == b.next_up(t)

    def test_down_intervals_are_ordered_and_disjoint(self):
        tl = self.make(seed=3, mtbf=20.0, mttr=5.0)
        t = 0.0
        intervals = []
        for _ in range(20):
            down, repair = tl.first_down_at_or_after(t)
            intervals.append((down, repair))
            t = repair
        for (d0, r0), (d1, r1) in zip(intervals, intervals[1:]):
            assert d0 < r0 < d1 < r1


class TestFaultModel:
    def test_enabled_reflects_configured_processes(self):
        assert not FaultModel().enabled
        assert FaultModel(tasks=TaskFailureModel(default_crash_prob=0.1)).enabled
        assert FaultModel(machines=MachineFailureModel(mtbf=10.0, mttr=1.0)).enabled

    def test_injector_carries_start_time(self):
        injector = FaultModel().injector(0, start=42.0)
        assert injector.start == 42.0
