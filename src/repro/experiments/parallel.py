"""Parallel experiment execution.

Replications are embarrassingly parallel — each is an independent seeded
simulation — so the paired-cell runner parallelises across processes with
:class:`concurrent.futures.ProcessPoolExecutor`.  The pool runs the
sequential runner's own per-replication function, and the rows go through
its aggregator in seed order, so parallel and sequential cells are
bit-identical.  Cells with few replications, or with one resolved worker,
run sequentially: there a pool would only add process startup.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    CellResult,
    _aggregate,
    _check_cell_args,
    _run_replication,
    run_paired_cell,
)
from repro.scheduling.policy import TrustPolicy
from repro.workloads.scenario import ScenarioSpec

__all__ = ["run_paired_cell_parallel"]

#: Below this many replications the sequential runner is used outright.
_MIN_PARALLEL_REPLICATIONS = 4


def run_paired_cell_parallel(
    spec: ScenarioSpec,
    heuristic_name: str,
    aware: TrustPolicy,
    unaware: TrustPolicy,
    *,
    replications: int,
    base_seed: int = 0,
    batch_interval: float | None = None,
    workers: int | None = None,
) -> CellResult:
    """Parallel drop-in for :func:`~repro.experiments.runner.run_paired_cell`.

    Args:
        workers: process count; defaults to ``os.cpu_count()`` capped at the
            replication count.

    Returns:
        A :class:`CellResult` equal to the sequential runner's (same seeds,
        same aggregation order).
    """
    _check_cell_args(replications, aware, unaware)
    if workers is not None and workers < 1:
        raise ConfigurationError("workers must be >= 1")

    n_workers = min(workers or os.cpu_count() or 1, replications)
    if replications < _MIN_PARALLEL_REPLICATIONS or n_workers == 1:
        return run_paired_cell(
            spec,
            heuristic_name,
            aware,
            unaware,
            replications=replications,
            base_seed=base_seed,
            batch_interval=batch_interval,
        )

    run = partial(
        _run_replication,
        spec,
        heuristic_name,
        aware,
        unaware,
        batch_interval=batch_interval,
    )
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        rows = list(pool.map(run, range(base_seed, base_seed + replications)))
    return _aggregate(spec, heuristic_name, rows)
