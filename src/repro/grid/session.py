"""GridSession — the closed Figure-1 loop as a library facade.

The paper's architecture (Figure 1) is a *loop*: the scheduler allocates
using the trust-level table, transactions execute, the domain agents
observe the outcomes and update the table, and the next allocations see the
updated trust.  :class:`GridSession` packages that loop:

* each **round** generates a fresh workload (EEC matrix + Poisson request
  stream) against the session's Grid and schedules it with the configured
  policy and heuristic;
* every completion is scored against a ground-truth
  :class:`~repro.grid.behavior.BehaviorModel` and fed to the client-domain
  agents (optionally the resource-domain agents score clients too);
* agents evolve their internal Section-2 records and publish new levels
  into the shared trust-level table under the configured significance
  policy;
* the session clock advances across rounds, so decay and time-varying
  behaviour (degrading / flipping domains) are exercised for real.

This implements the "trust management architecture that can evolve and
maintain the trust values" that Section 2.2 announces as parallel work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.model import FaultModel
from repro.faults.records import FailureEvent
from repro.faults.retry import RetryPolicy
from repro.grid.agents import AgentFleet, AgentSide, domain_entity_id
from repro.grid.behavior import BehaviorModel
from repro.grid.topology import Grid
from repro.obs.metrics import MetricsRegistry
from repro.scheduling.base import BatchHeuristic
from repro.scheduling.constraints import TrustConstraint
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.registry import make_heuristic
from repro.scheduling.result import CompletionRecord, ScheduleResult
from repro.scheduling.scheduler import TRMScheduler
from repro.sim.arrivals import PoissonProcess
from repro.sim.rng import RngFactory
from repro.workloads.eec import range_based_matrix
from repro.workloads.heterogeneity import LOLO, Heterogeneity
from repro.workloads.requests import generate_request_stream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.trustfaults.model import TrustFaultModel

__all__ = ["RoundResult", "SessionResult", "GridSession"]


@dataclass(frozen=True)
class RoundResult:
    """Outcome of one session round.

    Attributes:
        index: round number (0-based).
        schedule: the round's schedule result.
        mean_trust_cost: mean TC of the round's realised assignments.
        published_updates: trust-table updates triggered by this round.
        table_levels: snapshot of the trust-level table after the round.
        rejected: how many of the round's requests were refused admission.
        failures: failed execution attempts during the round (0 without
            fault injection).
        dropped: requests abandoned after retry exhaustion.
        degraded: requests whose final pricing lacked fresh trust data and
            fell back to trust-unaware costing (0 without trust-plane
            faults).
        injected_opinions: adversarial opinion records written into the
            shared reputation table during this round (0 without integrity
            faults).
    """

    index: int
    schedule: ScheduleResult
    mean_trust_cost: float
    published_updates: int
    table_levels: np.ndarray
    rejected: int = 0
    failures: int = 0
    dropped: int = 0
    degraded: int = 0
    injected_opinions: int = 0


@dataclass(frozen=True)
class SessionResult:
    """All rounds of a session run.

    Attributes:
        rounds: per-round results in order.
    """

    rounds: tuple[RoundResult, ...]

    @property
    def completion_series(self) -> list[float]:
        """Average completion time per round (absolute session clock)."""
        return [r.schedule.average_completion_time for r in self.rounds]

    @property
    def flow_series(self) -> list[float]:
        """Average flow time per round — comparable across rounds, since
        the session clock keeps advancing."""
        return [r.schedule.average_flow_time for r in self.rounds]

    @property
    def trust_cost_series(self) -> list[float]:
        """Mean realised trust cost per round."""
        return [r.mean_trust_cost for r in self.rounds]

    @property
    def total_published(self) -> int:
        """Total trust-table updates over the whole session."""
        return sum(r.published_updates for r in self.rounds)

    @property
    def goodput_series(self) -> list[float]:
        """Goodput (completions per unit time) per round."""
        return [r.schedule.goodput for r in self.rounds]

    @property
    def total_failures(self) -> int:
        """Failed execution attempts over the whole session."""
        return sum(r.failures for r in self.rounds)

    @property
    def total_dropped(self) -> int:
        """Requests dropped after retry exhaustion over the session."""
        return sum(r.dropped for r in self.rounds)

    @property
    def total_degraded(self) -> int:
        """Requests priced without fresh trust data over the session."""
        return sum(r.degraded for r in self.rounds)

    def __len__(self) -> int:
        return len(self.rounds)


@dataclass
class GridSession:
    """A long-running Grid with closed-loop trust maintenance.

    Attributes:
        grid: the Grid being operated (its trust table is mutated in place).
        behavior: ground truth for how resource domains behave.
        policy: the trust policy used for scheduling.
        heuristic: registry name of the mapping heuristic.
        seed: root seed of the session's random streams.
        heterogeneity: EEC class of the per-round workloads.
        arrival_rate: Poisson intensity of the request streams.
        batch_interval: batch period, required for batch heuristics.
        fleet: the Figure-1 agent fleet (default: one per domain, always
            publish).
        score_clients: if True, RD-side agents also score the originating
            client domains with the same satisfaction sample (symmetric
            quantifier, as the paper's single-value table does).
        constraint: optional hard trust constraint applied each round;
            with a REJECT policy, refused requests show up in the round's
            schedule result (and still count toward nothing — no agent
            observation happens for them).
        faults: optional fault model; each round gets a fresh injector off
            the round's random streams, so fault processes are reproducible
            per (seed, round) and independent of the workload draws.
        trustfaults: optional trust-plane fault model
            (:mod:`repro.trustfaults`).  Availability faults put one
            persistent :class:`~repro.trustfaults.query.ResilientTrustSource`
            in front of the trust table — its breaker and clock span rounds
            — and degrade affected cost rows instead of failing; integrity
            faults inject adversarial opinions into the shared reputation
            table at the start of each round and, when the fleet's Γ engine
            uses purging :class:`~repro.trustfaults.credibility.\
CredibilityWeights`, recommenders are scored against every realised
            outcome (completion satisfactions and failures alike).
        retry: recovery policy for failed requests; requires ``faults``.
        failure_satisfaction: the satisfaction value a failed attempt feeds
            to the observing agents — by default 0.0, a maximally
            unsatisfactory transaction, so failures actively erode the
            offending domain's trust and trust-aware scheduling learns to
            route around flaky domains.
        metrics: optional :class:`MetricsRegistry` shared by all rounds —
            counts ``session.rounds`` / ``requests`` / ``trust_updates``
            (published table levels) / ``gamma_evals`` (agent Γ
            re-evaluations on observed transactions), and is threaded
            through to each round's scheduler, kernel and injector.
            Disabled by default.
    """

    grid: Grid
    behavior: BehaviorModel
    policy: TrustPolicy
    heuristic: str = "mct"
    seed: int = 0
    heterogeneity: Heterogeneity = LOLO
    arrival_rate: float = 0.05
    batch_interval: float | None = None
    fleet: AgentFleet | None = None
    score_clients: bool = False
    constraint: "TrustConstraint | None" = None
    faults: FaultModel | None = None
    retry: RetryPolicy | None = None
    failure_satisfaction: float = 0.0
    metrics: MetricsRegistry | None = None
    trustfaults: "TrustFaultModel | None" = None

    _now: float = field(default=0.0, init=False)
    _round: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if self.metrics is None:
            self.metrics = MetricsRegistry.disabled()
        if self.fleet is None:
            self.fleet = AgentFleet.for_table(self.grid.trust_table)
        if self.fleet.grid_table is not self.grid.trust_table:
            raise ConfigurationError(
                "the agent fleet must maintain this grid's trust table"
            )
        if self.retry is not None and self.faults is None:
            raise ConfigurationError("a retry policy requires a fault model")
        if not 0.0 <= self.failure_satisfaction <= 1.0:
            raise ConfigurationError(
                "failure_satisfaction must lie in [0, 1]"
            )
        self._rng = RngFactory(seed=self.seed)
        self._behavior_rng = self._rng.stream("behavior")
        probe = make_heuristic(self.heuristic)
        if isinstance(probe, BatchHeuristic) and self.batch_interval is None:
            raise ConfigurationError(
                f"heuristic {self.heuristic!r} is batch-mode; set batch_interval"
            )
        self._trust_source = None
        self._adversaries = None
        self._score_weights = None
        if self.trustfaults is not None and self.trustfaults.enabled:
            self._wire_trustfaults()
        # Γ-blended fleets report their Γ latency into the session registry.
        if self.metrics.enabled:
            for agent in (*self.fleet.cd_agents, *self.fleet.rd_agents):
                if agent.engine is not None:
                    agent.engine.bind_metrics(self.metrics)

    def _wire_trustfaults(self) -> None:
        # Imported here: repro.grid must stay importable without the
        # trustfaults package in the dependency graph of its core types.
        from repro.trustfaults.adversary import AdversaryFleet
        from repro.trustfaults.query import (
            RecommenderAvailability,
            ResilientTrustSource,
        )

        model = self.trustfaults
        assert model is not None and self.fleet is not None
        if model.table is not None:
            # One source for the whole session: breaker state, refresh
            # schedule and outage sample path persist across rounds.
            self._trust_source = ResilientTrustSource(
                self.grid,
                fault=model.table,
                config=model.query,
                rng=self._rng.stream("trust-plane"),
                metrics=self.metrics,
            )
        engine = self.fleet.cd_agents[0].engine if self.fleet.cd_agents else None
        if model.recommenders:
            if engine is None:
                raise ConfigurationError(
                    "recommender availability faults need a Γ-blended fleet "
                    "(AgentFleet.for_table(..., gamma_weights=...)); a "
                    "direct-only fleet never aggregates recommendations"
                )
            availability = RecommenderAvailability(
                dict(model.recommenders),
                rng=self._rng,
                metrics=self.metrics,
            )
            engine.reputation.source_filter = availability.as_filter()
        if model.integrity is not None:
            if engine is None:
                raise ConfigurationError(
                    "integrity faults need a Γ-blended fleet; adversarial "
                    "opinions only flow through the reputation component"
                )
            self._adversaries = AdversaryFleet(
                model.integrity,
                self.fleet.internal_table,
                self.grid.catalog,
                metrics=self.metrics,
            )
            # Outcome-driven credibility: every realised outcome scores all
            # recommenders holding an opinion about that (trustee, context)
            # against what the transaction actually revealed.  With purging
            # CredibilityWeights this is the countermeasure; with plain
            # RecommenderWeights it is the paper's soft down-weighting.
            self._score_weights = engine.reputation.weights

    @property
    def now(self) -> float:
        """The session clock (advances across rounds)."""
        return self._now

    def journal_trust(self, root, *, config=None, metrics=None):
        """Make the session's trust plane crash-durable under ``root``.

        Provisions a :class:`~repro.core.journal.DurableTrustPlane` over
        the fleet's shared internal DTT/RTT, the learned recommender
        weights, and the grid's published TL table: one base snapshot,
        then a write-ahead journal frame per mutation the rounds produce.
        Call :meth:`checkpoint_trust` per round (or window) to fsync the
        delta — O(mutations since last checkpoint), not O(store).  The
        returned plane is also stored on the session as
        ``self.trust_plane``.

        A restarted session recovers the plane with
        :meth:`DurableTrustPlane.recover
        <repro.core.journal.DurableTrustPlane.recover>` and seeds its
        fleet by passing the recovered table to
        :meth:`AgentFleet.for_table <repro.grid.agents.AgentFleet.for_table>`
        via ``internal_table=``.
        """
        from repro.core.journal import DurableTrustPlane

        assert self.fleet is not None
        engine = self.fleet.cd_agents[0].engine if self.fleet.cd_agents else None
        weights = engine.reputation.weights if engine is not None else None
        self.trust_plane = DurableTrustPlane.create(
            root,
            self.fleet.internal_table,
            weights,
            grid_table=self.grid.trust_table,
            config=config,
            metrics=metrics,
        )
        return self.trust_plane

    def checkpoint_trust(self):
        """Delta-checkpoint the plane provisioned by :meth:`journal_trust`.

        Returns the descriptor dict (root / generation / durable offset /
        base digest); raises :class:`~repro.errors.ServiceError` when no
        plane is attached.
        """
        from repro.errors import ServiceError

        plane = getattr(self, "trust_plane", None)
        if plane is None:
            raise ServiceError(
                "no durable trust plane attached; call journal_trust first"
            )
        return plane.checkpoint()

    def run_round(self, n_requests: int) -> RoundResult:
        """Generate, schedule and score one round of ``n_requests``.

        Returns the :class:`RoundResult`; the grid's trust table reflects
        all updates triggered by the round's completions.
        """
        if n_requests < 1:
            raise ConfigurationError("n_requests must be >= 1")
        round_rng = self._rng.child(f"round-{self._round}")
        eec = range_based_matrix(
            n_requests, self.grid.n_machines, self.heterogeneity, round_rng.stream("eec")
        )
        arrivals = PoissonProcess(
            rate=self.arrival_rate, rng=round_rng.stream("arrivals"), start=self._now
        )
        requests = generate_request_stream(
            self.grid, n_requests, arrivals, round_rng.stream("requests")
        )

        published_before = self.fleet.total_published()
        heuristic = make_heuristic(self.heuristic)
        interval = (
            self.batch_interval if isinstance(heuristic, BatchHeuristic) else None
        )
        injector = None
        on_failure = None
        if self.faults is not None and self.faults.enabled:
            injector = self.faults.injector(
                round_rng.child("faults"), start=self._now
            )
            on_failure = self._score_failure(requests)
        injected = 0
        if self._adversaries is not None:
            injected = self._adversaries.inject(self._now, self._round)
        if self._trust_source is not None:
            self._trust_source.advance(self._now)
        scheduler = TRMScheduler(
            self.grid,
            eec,
            self.policy,
            heuristic,
            batch_interval=interval,
            on_complete=self._score_completion(requests),
            constraint=self.constraint,
            faults=injector,
            retry=self.retry if injector is not None else None,
            on_failure=on_failure,
            metrics=self.metrics,
            trust_source=self._trust_source,
        )
        result = scheduler.run(requests)
        degraded = len(scheduler.costs.degraded_requests)

        self._now = max(self._now, result.effective_makespan)
        self._round += 1
        tcs = [r.trust_cost for r in result.records]
        published = self.fleet.total_published() - published_before
        assert self.metrics is not None
        if self.metrics.enabled:
            self.metrics.counter("session.rounds").add()
            self.metrics.counter("session.requests").add(n_requests)
            self.metrics.counter("session.trust_updates").add(published)
        return RoundResult(
            index=self._round - 1,
            schedule=result,
            mean_trust_cost=float(np.mean(tcs)) if tcs else 0.0,
            published_updates=published,
            table_levels=self.grid.trust_table.levels.copy(),
            rejected=result.n_rejected,
            failures=len(result.failures),
            dropped=result.n_dropped,
            degraded=degraded,
            injected_opinions=injected,
        )

    def run(self, rounds: int, requests_per_round: int) -> SessionResult:
        """Run several rounds and collect the history."""
        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        return SessionResult(
            rounds=tuple(self.run_round(requests_per_round) for _ in range(rounds))
        )

    # -- internal -----------------------------------------------------------

    def _score_completion(self, requests):
        by_index = {r.index: r for r in requests}

        def hook(record: CompletionRecord) -> None:
            request = by_index[record.request_index]
            rd_index = int(self.grid.machine_rd[record.machine_index])
            cd_index = request.client_domain_index
            # Score one representative activity of the request's ToA set;
            # the trust context is per-activity.
            activity = request.task.activities.activities[0]
            satisfaction = self.behavior.sample(
                rd_index, record.completion_time, self._behavior_rng
            )
            self._score_recommenders(cd_index, rd_index, activity, satisfaction)
            self.fleet.cd_agents[cd_index].observe_transaction(
                rd_index, activity, satisfaction, record.completion_time
            )
            if self.metrics.enabled:  # type: ignore[union-attr]
                self.metrics.counter("session.gamma_evals").add(
                    2 if self.score_clients else 1
                )
            if self.score_clients:
                self.fleet.rd_agents[rd_index].observe_transaction(
                    cd_index, activity, satisfaction, record.completion_time
                )

        return hook

    def _score_failure(self, requests):
        by_index = {r.index: r for r in requests}

        def hook(failure: FailureEvent) -> None:
            request = by_index[failure.request_index]
            rd_index = int(self.grid.machine_rd[failure.machine_index])
            cd_index = request.client_domain_index
            activity = request.task.activities.activities[0]
            # A failed attempt is observed as a (strongly) unsatisfactory
            # transaction — no behaviour sampling, the outcome is a fact.
            self._score_recommenders(
                cd_index, rd_index, activity, self.failure_satisfaction
            )
            self.fleet.cd_agents[cd_index].observe_transaction(
                rd_index, activity, self.failure_satisfaction,
                failure.failure_time,
            )
            if self.metrics.enabled:  # type: ignore[union-attr]
                self.metrics.counter("session.gamma_evals").add()

        return hook

    def _score_recommenders(
        self, cd_index: int, rd_index: int, activity, actual: float
    ) -> None:
        """Score every opinion about the observed RD against the outcome.

        Each recommender that currently claims something about the resource
        domain (in this transaction's context) is judged by how far its
        claim sits from what the transaction revealed — the "learned based
        on actual outcomes" loop, which is what eventually purges
        adversarial recommenders.
        """
        if self._score_weights is None:
            return
        trustee = domain_entity_id(AgentSide.RESOURCE_DOMAIN, rd_index)
        observer = domain_entity_id(AgentSide.CLIENT_DOMAIN, cd_index)
        for rec_id, rec in self.fleet.internal_table.recommenders(
            trustee, activity.context, excluding=observer
        ):
            self._score_weights.observe_outcome(rec_id, rec.value, actual)
