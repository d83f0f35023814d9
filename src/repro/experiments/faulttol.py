"""Fault-tolerance study: trust-aware vs trust-unaware under failures.

The thesis of the fault subsystem: when some resource domains are flaky,
failure-driven trust evolution lets a trust-aware scheduler *learn* to
route around them, while a trust-unaware scheduler keeps feeding them work
and pays for it in retries and wasted machine time.  This module runs the
paired closed-loop experiment behind ``repro-trms faults`` and
``benchmarks/bench_fault_recovery.py``: two :class:`~repro.grid.session.GridSession`
loops on identical grids, workloads and fault streams — one scheduling
trust-aware, one trust-unaware — and compares goodput and wasted work.

Fault streams are keyed by (request, attempt), so the same request sent to
the same domain meets the same fate under either policy; the policies
differ only in *where* they send work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.experiments.parallel import _map
from repro.faults.model import FaultModel, MachineFailureModel, TaskFailureModel
from repro.faults.retry import RetryPolicy
from repro.grid.behavior import BehaviorModel, StationaryBehavior
from repro.grid.session import GridSession, SessionResult
from repro.scheduling.policy import TrustPolicy
from repro.workloads.scenario import ScenarioSpec, materialize

__all__ = ["FaultPolicyOutcome", "FaultRecoveryStudy", "run_fault_recovery"]


@dataclass(frozen=True)
class FaultPolicyOutcome:
    """Aggregate resilience numbers of one policy's session.

    Attributes:
        label: policy label (``"trust-aware"`` / ``"trust-unaware"``).
        completed: requests finished over all rounds.
        dropped: requests abandoned after retry exhaustion.
        rejected: requests refused admission.
        failures: failed execution attempts over all rounds.
        wasted_work: machine time burned by those failed attempts.
        useful_work: machine time spent on attempts that completed.
        horizon: the session clock after the last round (the total time the
            grid was in operation).
        session: the full per-round history.
    """

    label: str
    completed: int
    dropped: int
    rejected: int
    failures: int
    wasted_work: float
    useful_work: float
    horizon: float
    session: SessionResult

    @property
    def goodput(self) -> float:
        """Completed requests per unit time over the whole session."""
        if self.horizon <= 0:
            return 0.0
        return self.completed / self.horizon

    @property
    def wasted_work_fraction(self) -> float:
        """Wasted machine time over all machine time booked."""
        total = self.wasted_work + self.useful_work
        if total == 0:
            return 0.0
        return self.wasted_work / total

    @property
    def submitted(self) -> int:
        """Every request the session saw, accounted exactly once."""
        return self.completed + self.dropped + self.rejected


@dataclass(frozen=True)
class FaultRecoveryStudy:
    """Paired aware/unaware outcomes under an identical fault regime."""

    aware: FaultPolicyOutcome
    unaware: FaultPolicyOutcome

    @property
    def goodput_gain(self) -> float:
        """Relative goodput advantage of trust-aware scheduling."""
        if self.unaware.goodput == 0:
            return 0.0
        return self.aware.goodput / self.unaware.goodput - 1.0

    @property
    def waste_reduction(self) -> float:
        """Absolute drop in wasted-work fraction (aware vs unaware)."""
        return self.unaware.wasted_work_fraction - self.aware.wasted_work_fraction


def _outcome(session: GridSession, result: SessionResult) -> FaultPolicyOutcome:
    useful = sum(
        r.realized_cost for rr in result.rounds for r in rr.schedule.records
    )
    return FaultPolicyOutcome(
        label=session.policy.label,
        completed=sum(r.schedule.n_completed for r in result.rounds),
        dropped=result.total_dropped,
        rejected=sum(r.rejected for r in result.rounds),
        failures=result.total_failures,
        wasted_work=sum(r.schedule.total_wasted_work for r in result.rounds),
        useful_work=float(useful),
        horizon=session.now,
        session=result,
    )


def run_fault_recovery(
    *,
    seed: int = 0,
    rounds: int = 8,
    requests_per_round: int = 30,
    heuristic: str = "mct",
    batch_interval: float | None = None,
    arrival_rate: float = 0.02,
    flaky_rds: tuple[int, ...] = (0,),
    flaky_crash_prob: float = 0.6,
    base_crash_prob: float = 0.02,
    weibull_shape: float | None = 3.0,
    flaky_satisfaction: float = 0.35,
    mtbf: float | None = None,
    mttr: float = 40.0,
    retry: RetryPolicy | None = None,
    workers: int | None = 1,
) -> FaultRecoveryStudy:
    """Run the paired fault-recovery experiment.

    Builds two identical grids (3 RDs, 2 CDs) where the ``flaky_rds`` crash
    most attempts and the rest almost never fail, then runs the closed
    Figure-1 loop once trust-aware and once trust-unaware over the same
    per-round workloads and fault streams.

    Args:
        seed: root seed; the whole study is deterministic in it.
        rounds: session rounds (trust needs a few rounds to learn).
        requests_per_round: workload size per round.
        heuristic: mapping heuristic (registry name).
        batch_interval: batch period for batch heuristics.
        arrival_rate: Poisson request intensity; the default keeps the
            reliable domains able to absorb the re-routed work — under
            saturation *every* scheduler is forced onto the flaky
            machines whenever they are the only idle ones.
        flaky_rds: resource domains given ``flaky_crash_prob``.
        flaky_crash_prob: per-attempt crash probability on flaky RDs.
        base_crash_prob: per-attempt crash probability elsewhere.
        weibull_shape: crash-point shape; > 1 skews crashes toward the end
            of the attempt (late crashes waste more and deny the "fails
            fast, looks idle" attraction of flaky machines).
        flaky_satisfaction: behaviour score of the flaky domains' completed
            work (failures additionally score
            :data:`~repro.grid.feedback.FAILURE_SATISFACTION`).
        mtbf: when set, machines additionally go down with this mean time
            between failures (and ``mttr`` mean repair time).
        retry: recovery policy; default allows 3 attempts with backoff.
        workers: run the two policy arms in separate processes when > 1
            (or ``None`` = every core); arms are fully independent, so the
            parallel study is bit-identical to the sequential one.

    Returns:
        The paired study; ``completed + dropped + rejected == submitted``
        holds for both sides.
    """
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    spec = ScenarioSpec(cd_range=(2, 2), rd_range=(3, 3))
    n_rds = spec.rd_range[1]
    if any(not 0 <= rd < n_rds for rd in flaky_rds):
        raise ConfigurationError(f"flaky_rds must lie in [0, {n_rds - 1}]")
    faults = FaultModel(
        tasks=TaskFailureModel(
            rd_crash_prob={rd: flaky_crash_prob for rd in flaky_rds},
            default_crash_prob=base_crash_prob,
            weibull_shape=weibull_shape,
        ),
        machines=(
            MachineFailureModel(mtbf=mtbf, mttr=mttr) if mtbf is not None else None
        ),
    )
    retry = retry if retry is not None else RetryPolicy(max_attempts=3)
    behavior = BehaviorModel(
        profiles={
            rd: StationaryBehavior(flaky_satisfaction, 0.05) for rd in flaky_rds
        },
        default=StationaryBehavior(0.9, 0.05),
    )

    policies = (TrustPolicy.aware(), TrustPolicy.unaware())
    arm_args = [
        (
            spec, policy, behavior, heuristic, seed, arrival_rate,
            batch_interval, faults, retry, rounds, requests_per_round,
        )
        for policy in policies
    ]
    results = _map(_run_policy_arm, arm_args, workers)
    outcomes = {
        policy.trust_aware: outcome for policy, outcome in zip(policies, results)
    }
    return FaultRecoveryStudy(aware=outcomes[True], unaware=outcomes[False])


def _run_policy_arm(args: tuple) -> FaultPolicyOutcome:
    """One policy arm of the paired study (module-level for pickling)."""
    (
        spec, policy, behavior, heuristic, seed, arrival_rate,
        batch_interval, faults, retry, rounds, requests_per_round,
    ) = args
    grid = materialize(spec, seed=seed).grid
    session = GridSession(
        grid=grid,
        behavior=behavior,
        policy=policy,
        heuristic=heuristic,
        seed=seed,
        arrival_rate=arrival_rate,
        batch_interval=batch_interval,
        faults=faults,
        retry=retry,
    )
    result = session.run(rounds=rounds, requests_per_round=requests_per_round)
    return _outcome(session, result)
