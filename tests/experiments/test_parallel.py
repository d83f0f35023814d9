"""Tests for the parallel experiment runner."""

import pytest

import repro.experiments.parallel as parallel
from repro.errors import ConfigurationError
from repro.experiments.parallel import run_paired_cell_parallel
from repro.experiments.runner import run_paired_cell
from repro.scheduling.policy import TrustPolicy
from repro.workloads.scenario import ScenarioSpec

SPEC = ScenarioSpec(n_tasks=10, target_load=3.0)
AWARE = TrustPolicy.aware()
UNAWARE = TrustPolicy.unaware()


class TestParallelRunner:
    def test_matches_sequential_exactly(self):
        for heuristic, batch_interval in (("mct", None), ("min-min", 200.0)):
            kwargs = dict(replications=6, base_seed=11, batch_interval=batch_interval)
            seq = run_paired_cell(SPEC, heuristic, AWARE, UNAWARE, **kwargs)
            par = run_paired_cell_parallel(
                SPEC, heuristic, AWARE, UNAWARE, workers=3, **kwargs
            )
            assert par == seq

    def test_small_cells_fall_back_to_sequential(self):
        cell = run_paired_cell_parallel(
            SPEC, "mct", AWARE, UNAWARE, replications=2, workers=4
        )
        assert cell.replications == 2

    def test_single_worker_falls_back(self):
        cell = run_paired_cell_parallel(
            SPEC, "mct", AWARE, UNAWARE, replications=6, workers=1
        )
        assert cell.replications == 6

    def test_one_cpu_runs_sequentially(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker cell must not start a pool")

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        cell = run_paired_cell_parallel(SPEC, "mct", AWARE, UNAWARE, replications=6)
        assert cell == run_paired_cell(SPEC, "mct", AWARE, UNAWARE, replications=6)

    def test_batch_heuristic(self):
        cell = run_paired_cell_parallel(
            SPEC,
            "min-min",
            AWARE,
            UNAWARE,
            replications=4,
            batch_interval=200.0,
            workers=2,
        )
        assert cell.heuristic == "min-min"
        assert len(cell.aware_samples) == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_paired_cell_parallel(SPEC, "mct", AWARE, UNAWARE, replications=0)
        with pytest.raises(ConfigurationError):
            run_paired_cell_parallel(
                SPEC, "mct", UNAWARE, UNAWARE, replications=4
            )
        with pytest.raises(ConfigurationError):
            run_paired_cell_parallel(
                SPEC, "mct", AWARE, UNAWARE, replications=4, workers=0
            )
