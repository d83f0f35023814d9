"""Parallel experiment execution.

Replications and study arms are embarrassingly parallel — each is an
independent seeded simulation — so the paired-cell runner and the
fault-recovery and trust-fault studies spread them over one
:class:`concurrent.futures.ProcessPoolExecutor` map.  The pool runs the
sequential code's own per-item function and returns results in item
order, so parallel and sequential runs are bit-identical.  Cells with few
replications, or with one resolved worker, run sequentially: there a pool
would only add process startup.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import TypeVar

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    CellResult,
    _aggregate,
    _check_cell_args,
    _run_replication,
)
from repro.scheduling.policy import TrustPolicy
from repro.workloads.scenario import ScenarioSpec

__all__ = ["run_paired_cell_parallel"]

#: Below this many replications the sequential runner is used outright.
_MIN_PARALLEL_REPLICATIONS = 4

_T = TypeVar("_T")
_R = TypeVar("_R")


def _map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    workers: int | None,
    *,
    min_parallel: int = 2,
) -> list[_R]:
    """``[fn(item) for item in items]``, over a process pool when it pays.

    Args:
        fn: a picklable (module-level) function.
        workers: process count; ``None`` means every core.  Capped at the
            item count.
        min_parallel: fewer items than this run in this process.

    Raises:
        ConfigurationError: when ``workers`` is below 1.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError(
            f"workers must be >= 1 (or None for every core), got {workers!r}"
        )
    n_workers = min(workers or os.cpu_count() or 1, len(items))
    if len(items) < min_parallel or n_workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))


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
    run = partial(
        _run_replication,
        spec,
        heuristic_name,
        aware,
        unaware,
        batch_interval=batch_interval,
    )
    rows = _map(
        run,
        range(base_seed, base_seed + replications),
        workers,
        min_parallel=_MIN_PARALLEL_REPLICATIONS,
    )
    return _aggregate(spec, heuristic_name, rows)
