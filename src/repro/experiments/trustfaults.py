"""Trust-plane resilience study: honest vs attacked vs defended.

The thesis of the trust-fault subsystem: adversarial recommenders can steer
a trust-aware scheduler onto bad resources (ballot-stuffing a flaky domain,
badmouthing the good ones), and outcome-driven credibility purging wins the
lost ground back.  This module runs the three-arm closed-loop experiment
behind ``repro-trms trustfaults``:

* **honest** — no adversaries; the baseline the other arms are measured
  against;
* **attacked** — adversarial recommenders inject crafted opinions every
  round, credibility is *learned* but purging is disabled (the paper's
  soft down-weighting only);
* **defended** — the same attack, with purging enabled: recommenders whose
  learned accuracy stays below the threshold are removed from the
  reputation aggregation entirely.

All three arms share the grid spec, workload seeds, machine-fault streams
and behaviour ground truth; they differ only in the injected opinions and
the countermeasure.  Two recoveries are reported, each the fraction of the
attack-induced gap the defence wins back:

* **reputation error** — mean ``|Γ_arm − Γ_honest|`` over every
  (CD, RD, activity) triple at session end;
* **makespan** — the session horizon (the attack routes work onto the
  flaky domain, which fails and retries, stretching the schedule).
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.recommender import RecommenderWeights
from repro.errors import ConfigurationError
from repro.faults.model import FaultModel, TaskFailureModel
from repro.faults.retry import RetryPolicy
from repro.grid.agents import AgentFleet, AgentSide, domain_entity_id
from repro.grid.behavior import BehaviorModel, StationaryBehavior
from repro.grid.session import GridSession, SessionResult
from repro.scheduling.policy import TrustPolicy
from repro.trustfaults.credibility import CredibilityWeights
from repro.trustfaults.model import (
    AdversarySpec,
    AttackKind,
    IntegrityFaultModel,
    TrustFaultModel,
    TrustQueryConfig,
    TrustSourceFault,
)
from repro.workloads.scenario import ScenarioSpec, materialize

__all__ = [
    "TrustFaultArmOutcome",
    "TrustFaultStudy",
    "run_trustfault_study",
    "write_study_artifact",
]

#: Machine-readable artifact schema identifier.
ARTIFACT_SCHEMA = "repro.trustfaults/v1"


@dataclass(frozen=True)
class TrustFaultArmOutcome:
    """Aggregate numbers of one arm's session.

    Attributes:
        label: ``"honest"`` / ``"attacked"`` / ``"defended"``.
        completed: requests finished over all rounds.
        failures: failed execution attempts over all rounds.
        dropped: requests abandoned after retry exhaustion.
        degraded: requests priced without fresh trust data (availability
            faults only; 0 in the pure-integrity study).
        injected_opinions: adversarial opinion records written.
        purged: recommender identities purged by the credibility
            countermeasure (empty unless defending).
        makespan: session horizon after the last round.
        goodput: completed requests per unit horizon.
        mean_flow_time: mean of the per-round average flow times.
        gamma: final eventual-trust surface, shape
            ``(n_cd, n_rd, n_activities)`` — ``Γ`` as each CD agent would
            evaluate each RD per activity at session end.
        session: the full per-round history.
    """

    label: str
    completed: int
    failures: int
    dropped: int
    degraded: int
    injected_opinions: int
    purged: tuple[str, ...]
    makespan: float
    goodput: float
    mean_flow_time: float
    gamma: np.ndarray
    session: SessionResult


@dataclass(frozen=True)
class TrustFaultStudy:
    """The three paired arms plus the derived recovery fractions."""

    honest: TrustFaultArmOutcome
    attacked: TrustFaultArmOutcome
    defended: TrustFaultArmOutcome

    def reputation_error(self, arm: TrustFaultArmOutcome) -> float:
        """Mean ``|Γ_arm − Γ_honest|`` over the whole trust surface."""
        return float(np.mean(np.abs(arm.gamma - self.honest.gamma)))

    @property
    def error_recovery(self) -> float:
        """Fraction of the attack's reputation error the defence removes."""
        attacked = self.reputation_error(self.attacked)
        if attacked == 0:
            return 0.0
        return 1.0 - self.reputation_error(self.defended) / attacked

    @property
    def makespan_gap(self) -> float:
        """Horizon stretch the attack inflicted on the undefended arm."""
        return self.attacked.makespan - self.honest.makespan

    @property
    def makespan_recovery(self) -> float:
        """Fraction of the makespan gap the defence wins back."""
        gap = self.makespan_gap
        if gap <= 0:
            return 0.0
        return (self.attacked.makespan - self.defended.makespan) / gap

    def to_dict(self) -> dict:
        """Machine-readable summary (schema ``repro.trustfaults/v1``)."""

        def arm(a: TrustFaultArmOutcome) -> dict:
            return {
                "label": a.label,
                "completed": a.completed,
                "failures": a.failures,
                "dropped": a.dropped,
                "degraded": a.degraded,
                "injected_opinions": a.injected_opinions,
                "purged": list(a.purged),
                "makespan": a.makespan,
                "goodput": a.goodput,
                "mean_flow_time": a.mean_flow_time,
                "reputation_error": self.reputation_error(a),
            }

        return {
            "schema": ARTIFACT_SCHEMA,
            "arms": {
                a.label: arm(a) for a in (self.honest, self.attacked, self.defended)
            },
            "recovery": {
                "reputation_error": self.error_recovery,
                "makespan": self.makespan_recovery,
                "makespan_gap": self.makespan_gap,
            },
        }


def write_study_artifact(study: TrustFaultStudy, path: str | Path) -> Path:
    """Serialise the study summary to ``path`` as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(study.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


def _gamma_surface(session: GridSession) -> np.ndarray:
    """Evaluate ``Γ`` for every (CD, RD, activity) triple at session end."""
    fleet = session.fleet
    assert fleet is not None
    engine = fleet.cd_agents[0].engine
    assert engine is not None, "the study requires a Γ-blended fleet"
    grid = session.grid
    n_cd = len(grid.client_domains)
    n_rd = len(grid.resource_domains)
    activities = list(grid.catalog)
    surface = np.zeros((n_cd, n_rd, len(activities)), dtype=np.float64)
    now = session.now
    trusters = [domain_entity_id(AgentSide.CLIENT_DOMAIN, i) for i in range(n_cd)]
    trustees = [domain_entity_id(AgentSide.RESOURCE_DOMAIN, j) for j in range(n_rd)]
    for k, activity in enumerate(activities):
        for i, truster in enumerate(trusters):
            for j, trustee in enumerate(trustees):
                surface[i, j, k] = engine.gamma(truster, trustee, activity.context, now)
    return surface


def run_trustfault_study(
    *,
    seed: int = 0,
    rounds: int = 8,
    requests_per_round: int = 30,
    heuristic: str = "mct",
    batch_interval: float | None = None,
    arrival_rate: float = 0.02,
    target_rd: int = 0,
    flaky_crash_prob: float = 0.7,
    base_crash_prob: float = 0.02,
    flaky_satisfaction: float = 0.2,
    n_recommenders: int = 4,
    gamma_weights: tuple[float, float] = (0.5, 0.5),
    learning_rate: float = 0.5,
    purge_threshold: float = 0.3,
    min_observations: int = 5,
    table_fault: TrustSourceFault | None = None,
    query: TrustQueryConfig | None = None,
    retry: RetryPolicy | None = None,
    workers: int | None = 1,
) -> TrustFaultStudy:
    """Run the three-arm trust-plane resilience experiment.

    The grid has 3 RDs and 2 CDs; ``target_rd`` crashes most attempts and
    behaves badly, the rest are reliable.  The attack ballot-stuffs the
    flaky domain and badmouths the reliable ones — the worst case for a
    trust-aware scheduler, which is steered exactly wrong on both ends.

    Args:
        seed: root seed; the study is deterministic in it.
        rounds: session rounds per arm.
        requests_per_round: workload size per round.
        heuristic: mapping heuristic (registry name).
        batch_interval: batch period for batch heuristics.
        arrival_rate: Poisson request intensity.
        target_rd: the flaky resource domain the attack props up.
        flaky_crash_prob: per-attempt crash probability on the target RD.
        base_crash_prob: per-attempt crash probability elsewhere.
        flaky_satisfaction: behaviour score of the target RD's completions.
        n_recommenders: adversaries per attack group.
        gamma_weights: ``(α, β)`` of the agents' Γ blend; β must be large
            enough for reputation (the attack surface) to matter.
        learning_rate: credibility EMA step (both attacked and defended
            arms learn at this rate; only purging differs).
        purge_threshold: accuracy below which the defended arm purges.
        min_observations: outcomes before a recommender may be purged.
        table_fault: optional availability fault on the central table,
            layered on top of the integrity attack in all attacked arms.
        query: query-path tuning accompanying ``table_fault``.
        retry: recovery policy; default allows 3 attempts.
        workers: run the three arms in separate processes when > 1 (or
            ``None`` = every core); arms are fully independent, so the
            parallel study is bit-identical to the sequential one.

    Returns:
        The three-arm study with recovery fractions.
    """
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    spec = ScenarioSpec(cd_range=(2, 2), rd_range=(3, 3))
    n_rds = spec.rd_range[1]
    if not 0 <= target_rd < n_rds:
        raise ConfigurationError(f"target_rd must lie in [0, {n_rds - 1}]")
    others = tuple(rd for rd in range(n_rds) if rd != target_rd)
    adversaries = (
        AdversarySpec(
            kind=AttackKind.BALLOT_STUFF,
            targets=(target_rd,),
            n_recommenders=n_recommenders,
            label="stuffers",
        ),
        AdversarySpec(
            kind=AttackKind.BADMOUTH,
            targets=others,
            n_recommenders=n_recommenders,
            label="badmouthers",
        ),
    )
    faults = FaultModel(
        tasks=TaskFailureModel(
            rd_crash_prob={target_rd: flaky_crash_prob},
            default_crash_prob=base_crash_prob,
            weibull_shape=3.0,
        )
    )
    retry = retry if retry is not None else RetryPolicy(max_attempts=3)
    behavior = BehaviorModel(
        profiles={target_rd: StationaryBehavior(flaky_satisfaction, 0.05)},
        default=StationaryBehavior(0.9, 0.05),
    )

    shared = _ArmConfig(
        spec=spec,
        seed=seed,
        rounds=rounds,
        requests_per_round=requests_per_round,
        heuristic=heuristic,
        batch_interval=batch_interval,
        arrival_rate=arrival_rate,
        gamma_weights=gamma_weights,
        learning_rate=learning_rate,
        purge_threshold=purge_threshold,
        min_observations=min_observations,
        adversaries=adversaries,
        faults=faults,
        retry=retry,
        behavior=behavior,
        table_fault=table_fault,
        query=query,
    )
    arm_args = [
        ("honest", False, False, shared),
        ("attacked", True, False, shared),
        ("defended", True, True, shared),
    ]
    n_workers = min(workers or (os.cpu_count() or 1), len(arm_args))
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            arms = list(pool.map(_build_arm, arm_args))
    else:
        arms = [_build_arm(args) for args in arm_args]
    return TrustFaultStudy(honest=arms[0], attacked=arms[1], defended=arms[2])


@dataclass(frozen=True)
class _ArmConfig:
    """Shared, picklable configuration of one study arm."""

    spec: ScenarioSpec
    seed: int
    rounds: int
    requests_per_round: int
    heuristic: str
    batch_interval: float | None
    arrival_rate: float
    gamma_weights: tuple[float, float]
    learning_rate: float
    purge_threshold: float
    min_observations: int
    adversaries: tuple[AdversarySpec, ...]
    faults: FaultModel
    retry: RetryPolicy
    behavior: BehaviorModel
    table_fault: TrustSourceFault | None
    query: TrustQueryConfig | None


def _build_arm(args: tuple[str, bool, bool, _ArmConfig]) -> TrustFaultArmOutcome:
    """One study arm (module-level so the process pool can pickle it)."""
    label, attacked, purging, cfg = args
    grid = materialize(cfg.spec, seed=cfg.seed).grid
    weights: RecommenderWeights = CredibilityWeights(
        learning_rate=cfg.learning_rate,
        purge_threshold=cfg.purge_threshold if purging else 0.0,
        min_observations=cfg.min_observations,
    )
    fleet = AgentFleet.for_table(
        grid.trust_table,
        gamma_weights=cfg.gamma_weights,
        recommender_weights=weights,
    )
    trustfaults = None
    if attacked or cfg.table_fault is not None:
        trustfaults = TrustFaultModel(
            table=cfg.table_fault,
            integrity=(
                IntegrityFaultModel(adversaries=cfg.adversaries)
                if attacked
                else None
            ),
            query=cfg.query if cfg.query is not None else TrustQueryConfig(),
        )
    session = GridSession(
        grid=grid,
        behavior=cfg.behavior,
        policy=TrustPolicy.aware(),
        heuristic=cfg.heuristic,
        seed=cfg.seed,
        arrival_rate=cfg.arrival_rate,
        batch_interval=cfg.batch_interval,
        fleet=fleet,
        faults=cfg.faults,
        retry=cfg.retry,
        trustfaults=trustfaults,
    )
    result = session.run(
        rounds=cfg.rounds, requests_per_round=cfg.requests_per_round
    )
    purged = (
        tuple(sorted(map(str, weights.purged)))
        if isinstance(weights, CredibilityWeights)
        else ()
    )
    flow = [r.schedule.average_flow_time for r in result.rounds]
    return TrustFaultArmOutcome(
        label=label,
        completed=sum(r.schedule.n_completed for r in result.rounds),
        failures=result.total_failures,
        dropped=result.total_dropped,
        degraded=result.total_degraded,
        injected_opinions=sum(r.injected_opinions for r in result.rounds),
        purged=purged,
        makespan=session.now,
        goodput=(
            sum(r.schedule.n_completed for r in result.rounds) / session.now
            if session.now > 0
            else 0.0
        ),
        mean_flow_time=float(np.mean(flow)) if flow else 0.0,
        gamma=_gamma_surface(session),
        session=result,
    )
