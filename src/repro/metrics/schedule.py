"""Standalone schedule metrics.

:class:`~repro.scheduling.result.ScheduleResult` exposes the headline
numbers as properties; this module provides the same quantities (and a few
more) as standalone functions over record sequences, so analysis code can
compute metrics on arbitrary record subsets (per client domain, per machine,
per time window) without re-running anything.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.faults.records import FailureEvent
from repro.scheduling.result import CompletionRecord

__all__ = [
    "makespan",
    "average_completion_time",
    "average_flow_time",
    "jain_fairness",
    "domain_fairness",
    "effective_makespan",
    "wasted_work",
    "wasted_work_fraction",
    "goodput",
]


def makespan(records: Sequence[CompletionRecord]) -> float:
    """Latest completion time (the paper's Λ); 0 for an empty schedule."""
    if not records:
        return 0.0
    return max(r.completion_time for r in records)


def average_completion_time(records: Sequence[CompletionRecord]) -> float:
    """Mean absolute completion time — the metric of Tables 4–9."""
    if not records:
        return 0.0
    return float(np.mean([r.completion_time for r in records]))


def average_flow_time(records: Sequence[CompletionRecord]) -> float:
    """Mean time-in-system (completion − arrival)."""
    if not records:
        return 0.0
    return float(np.mean([r.flow_time for r in records]))


def jain_fairness(values) -> float:
    """Jain's fairness index: ``(Σx)² / (n · Σx²)`` in ``(0, 1]``.

    1 means perfectly equal allocation; ``1/n`` means one party gets
    everything.  Returns 1 for empty or all-zero input (vacuously fair).
    """
    x = np.asarray(list(values), dtype=np.float64)
    if x.size == 0:
        return 1.0
    if np.any(x < 0):
        raise ValueError("fairness is defined for non-negative values")
    denom = x.size * float(np.square(x).sum())
    if denom == 0.0:
        return 1.0
    return float(np.square(x.sum()) / denom)


def domain_fairness(
    records: Sequence[CompletionRecord],
    domain_of_request: Sequence[int],
) -> float:
    """Jain fairness of mean flow time across client domains.

    A trust-aware scheduler concentrates work on trusted pairings; this
    measures whether some client domains systematically wait longer.
    """
    sums: dict[int, list[float]] = {}
    for r in records:
        cd = int(domain_of_request[r.request_index])
        sums.setdefault(cd, []).append(r.flow_time)
    means = [float(np.mean(v)) for v in sums.values()]
    return jain_fairness(means)


def effective_makespan(
    records: Sequence[CompletionRecord],
    failures: Sequence[FailureEvent] = (),
) -> float:
    """Latest instant the schedule touched the system.

    The makespan extended past the last completion when a failure outlives
    it (a dropped request's final attempt can be the last thing that
    happens); equals :func:`makespan` without failures.
    """
    last_failure = max((f.failure_time for f in failures), default=0.0)
    return max(makespan(records), last_failure)


def wasted_work(failures: Sequence[FailureEvent]) -> float:
    """Machine time consumed by failed attempts — work paid for nothing."""
    return float(sum(f.wasted_work for f in failures))


def wasted_work_fraction(
    records: Sequence[CompletionRecord],
    failures: Sequence[FailureEvent],
) -> float:
    """Wasted machine time as a fraction of all booked machine time.

    0 for a fault-free schedule; approaching 1 means machines spend nearly
    all their time on attempts that die.
    """
    wasted = wasted_work(failures)
    total = float(sum(r.realized_cost for r in records)) + wasted
    if total == 0:
        return 0.0
    return wasted / total


def goodput(
    records: Sequence[CompletionRecord],
    failures: Sequence[FailureEvent] = (),
) -> float:
    """Completed requests per unit time over the effective makespan.

    The resilience headline: retries that eventually succeed still count,
    but the time lost to failures (and to failure tails past the last
    completion) divides it down.
    """
    horizon = effective_makespan(records, failures)
    if horizon <= 0:
        return 0.0
    return len(records) / horizon
