"""Experiment runner: paired trust-aware/unaware runs over replications.

Every cell of Tables 4–9 is the average of many stochastic simulations.
:func:`run_paired_cell` materialises one scenario per seed, runs the *same*
workload under both policies (the pairing is what makes the improvement
column meaningful), and aggregates means and confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.metrics.improvement import PairedComparison
from repro.scheduling.base import BatchHeuristic
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.registry import make_heuristic
from repro.scheduling.scheduler import TRMScheduler
from repro.sim.stats import RunningStats
from repro.workloads.scenario import ScenarioSpec, materialize

__all__ = ["CellResult", "run_paired_cell", "run_single"]


@dataclass(frozen=True)
class CellResult:
    """Aggregated statistics of one table cell (one spec, one heuristic).

    Attributes:
        heuristic: registry name of the heuristic.
        n_tasks: task count of the cell.
        replications: number of paired runs aggregated.
        aware_completion / unaware_completion: average-completion stats.
        aware_utilization / unaware_utilization: utilisation stats.
        improvement: per-replication improvement-fraction stats.
        aware_samples / unaware_samples: per-replication average completion
            times, in seed order — the paired series significance tests
            operate on.
    """

    heuristic: str
    n_tasks: int
    replications: int
    aware_completion: RunningStats
    unaware_completion: RunningStats
    aware_utilization: RunningStats
    unaware_utilization: RunningStats
    improvement: RunningStats
    aware_samples: tuple[float, ...] = ()
    unaware_samples: tuple[float, ...] = ()

    @property
    def mean_improvement(self) -> float:
        """Mean of the per-replication improvements."""
        return self.improvement.mean

    def significance(self):
        """Paired t-test of unaware vs aware completion times.

        Returns a :class:`~repro.analysis.significance.PairedTestResult`;
        a positive mean difference means the trust-aware runs are faster.
        """
        from repro.analysis.significance import paired_t_test

        return paired_t_test(self.unaware_samples, self.aware_samples)


_STATS = (
    "aware_completion",
    "unaware_completion",
    "aware_utilization",
    "unaware_utilization",
    "improvement",
)


def _schedule(
    scenario, heuristic_name: str, policy: TrustPolicy, batch_interval: float | None
):
    heuristic = make_heuristic(heuristic_name)
    interval = batch_interval if isinstance(heuristic, BatchHeuristic) else None
    return TRMScheduler(
        scenario.grid,
        scenario.eec,
        policy,
        heuristic,
        batch_interval=interval,
    ).run(scenario.requests)


def run_single(
    spec: ScenarioSpec,
    heuristic_name: str,
    policy: TrustPolicy,
    seed: int,
    *,
    batch_interval: float | None = None,
):
    """Run one scenario under one policy; returns the ScheduleResult."""
    return _schedule(materialize(spec, seed=seed), heuristic_name, policy, batch_interval)


def _check_cell_args(replications: int, aware: TrustPolicy, unaware: TrustPolicy) -> None:
    if replications < 1:
        raise ConfigurationError("replications must be >= 1")
    if not aware.trust_aware or unaware.trust_aware:
        raise ConfigurationError("expected (trust-aware, trust-unaware) policy pair")


def _run_replication(
    spec: ScenarioSpec,
    heuristic_name: str,
    aware: TrustPolicy,
    unaware: TrustPolicy,
    seed: int,
    batch_interval: float | None,
) -> tuple[float, float, float, float, float]:
    """One paired replication: the five samples named by ``_STATS``.

    Both policies run on the one scenario materialised from ``seed``.
    Module-level so process pools can pickle it.
    """
    scenario = materialize(spec, seed=seed)
    aware_run = _schedule(scenario, heuristic_name, aware, batch_interval)
    unaware_run = _schedule(scenario, heuristic_name, unaware, batch_interval)
    pair = PairedComparison(aware=aware_run, unaware=unaware_run)
    return (
        aware_run.average_completion_time,
        unaware_run.average_completion_time,
        aware_run.machine_utilization,
        unaware_run.machine_utilization,
        pair.completion_improvement,
    )


def _aggregate(spec: ScenarioSpec, heuristic_name: str, rows) -> CellResult:
    """Fold per-replication rows, in seed order, into one :class:`CellResult`."""
    rows = list(rows)
    stats = {name: RunningStats() for name in _STATS}
    for row in rows:
        for name, value in zip(_STATS, row):
            stats[name].add(value)
    return CellResult(
        heuristic=heuristic_name,
        n_tasks=spec.n_tasks,
        replications=len(rows),
        aware_samples=tuple(row[0] for row in rows),
        unaware_samples=tuple(row[1] for row in rows),
        **stats,
    )


def run_paired_cell(
    spec: ScenarioSpec,
    heuristic_name: str,
    aware: TrustPolicy,
    unaware: TrustPolicy,
    *,
    replications: int,
    base_seed: int = 0,
    batch_interval: float | None = None,
) -> CellResult:
    """Run ``replications`` paired simulations and aggregate the cell.

    The two policies must genuinely differ in awareness; each replication
    uses seed ``base_seed + i`` so the aware and unaware runs of a
    replication see the identical scenario.
    """
    _check_cell_args(replications, aware, unaware)
    return _aggregate(
        spec,
        heuristic_name,
        (
            _run_replication(
                spec, heuristic_name, aware, unaware, base_seed + i, batch_interval
            )
            for i in range(replications)
        ),
    )
