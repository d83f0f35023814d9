"""TrustFeedback — the evidence path of the paper's Figure-1 loop.

Figure 1 is one loop: the scheduler allocates from the trust-level
table, transactions execute, the domain agents observe the outcomes and
update the table.  :class:`TrustFeedback` is the one place where a
settled attempt becomes trust evidence: a completion is scored against
the ground-truth :class:`~repro.grid.behavior.BehaviorModel`, a failure
as :data:`FAILURE_SATISFACTION`; scored recommenders are judged against
the outcome (outcome-driven credibility), then the agents observe it.
It rides the scheduler's ``on_complete`` hook (it is callable on a
completion record) and ``on_failure`` hook (:meth:`TrustFeedback.failure`),
and owns the loop's state: :meth:`journal` makes the trust tables
durable, :meth:`state_dict`/:meth:`restore` carry the rest through a
service checkpoint.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.recommender import RecommenderWeights
from repro.errors import ConfigurationError
from repro.faults.records import FailureEvent
from repro.grid.activities import ActivityType
from repro.grid.agents import AgentFleet, AgentSide, domain_entity_id
from repro.grid.behavior import BehaviorModel
from repro.grid.request import Request
from repro.obs.metrics import MetricsRegistry
from repro.state import Obj, restore_rng, rng_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.topology import Grid
    from repro.scheduling.result import CompletionRecord

__all__ = ["FAILURE_SATISFACTION", "TrustFeedback"]

#: The satisfaction a failed attempt is observed with: a maximally
#: unsatisfactory transaction, so a flaky domain erodes its own trust and
#: trust-aware scheduling learns to route around it.
FAILURE_SATISFACTION = 0.0


class TrustFeedback:
    """Turns settled attempts into agent observations (Fig. 1).

    Args:
        grid: the Grid whose machines map to resource domains.
        behavior: ground truth for how resource domains behave.
        rng: the satisfaction stream; hold on to it, its position is
            part of the loop's state.
        fleet: the agents maintaining ``grid``'s trust table (default:
            one per domain, always publish).
        score_clients: if True, RD-side agents also score the originating
            client domains with the same satisfaction sample.
        score_weights: recommender weights to score against every
            outcome (``None``: no recommender scoring).
        metrics: optional registry counting ``session.observations``
            (agent observations, one or two per completion).
    """

    #: Spec of :meth:`state_dict` (see :mod:`repro.state`).
    STATE = Obj("feedback state", {"rng": dict, "published": [int]})

    def __init__(
        self,
        grid: "Grid",
        behavior: BehaviorModel,
        rng: np.random.Generator,
        *,
        fleet: AgentFleet | None = None,
        score_clients: bool = False,
        score_weights: RecommenderWeights | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if fleet is None:
            fleet = AgentFleet.for_table(grid.trust_table)
        if fleet.grid_table is not grid.trust_table:
            raise ConfigurationError(
                "the agent fleet must maintain this grid's trust table"
            )
        self.grid = grid
        self.behavior = behavior
        self.rng = rng
        self.fleet = fleet
        self.score_clients = score_clients
        self.score_weights = score_weights
        self.metrics = metrics if metrics is not None else MetricsRegistry.disabled()
        self._agents = (*fleet.cd_agents, *fleet.rd_agents)
        # request index -> (client domain, scored activity) of the bound set.
        self._requests: dict[int, tuple[int, ActivityType]] = {}

    def bind(self, requests: Iterable[Request]) -> "TrustFeedback":
        """Serve the settled attempts of ``requests``; returns ``self``.

        Each request is scored on one representative activity of its ToA
        set (the first); the trust context is per activity.
        """
        self._requests = {
            r.index: (r.client_domain_index, r.task.activities.activities[0])
            for r in requests
        }
        return self

    # -- hooks ---------------------------------------------------------------

    def __call__(self, record: "CompletionRecord") -> None:
        """Completion hook: observe one behaviour sample at completion."""
        rd = int(self.grid.machine_rd[record.machine_index])
        satisfaction = self.behavior.sample(rd, record.completion_time, self.rng)
        self._observe(
            record.request_index, rd, satisfaction, record.completion_time,
            self.score_clients,
        )

    def failure(self, failure: FailureEvent) -> None:
        """Failure hook: the client domain observes
        :data:`FAILURE_SATISFACTION` at the failure time (no sampling, the
        outcome is a fact)."""
        rd = int(self.grid.machine_rd[failure.machine_index])
        self._observe(
            failure.request_index, rd, FAILURE_SATISFACTION,
            failure.failure_time, False,
        )

    def _observe(
        self, request_index: int, rd: int, satisfaction: float, time: float,
        both_sides: bool,
    ) -> None:
        cd, activity = self._requests[request_index]
        fleet = self.fleet
        weights = self.score_weights
        if weights is not None:
            # Every recommender claiming something about the RD in this
            # context is judged by how far its claim sits from what the
            # transaction revealed.
            for rec_id, rec in fleet.internal_table.recommenders(
                domain_entity_id(AgentSide.RESOURCE_DOMAIN, rd),
                activity.context,
                excluding=domain_entity_id(AgentSide.CLIENT_DOMAIN, cd),
            ):
                weights.observe_outcome(rec_id, rec.value, satisfaction)
        fleet.cd_agents[cd].observe_transaction(rd, activity, satisfaction, time)
        if self.metrics.enabled:
            self.metrics.counter("session.observations").add(2 if both_sides else 1)
        if both_sides:
            fleet.rd_agents[rd].observe_transaction(cd, activity, satisfaction, time)

    # -- state ---------------------------------------------------------------

    def journal(self, root, *, config=None, metrics=None):
        """Make the loop's trust state crash-durable under ``root``.

        Provisions a :class:`~repro.core.journal.DurableTrustPlane` over
        the fleet's internal DTT/RTT, the Γ engine's recommender weights
        and the Grid table; its ``checkpoint()`` (or a ``GridService``
        given it as ``trust_plane=``) fsyncs the delta.  A restarted run
        recovers it and rebuilds the fleet over its ``table`` and
        ``weights``.
        """
        from repro.core.journal import DurableTrustPlane

        engine = self.fleet.cd_agents[0].engine if self.fleet.cd_agents else None
        return DurableTrustPlane.create(
            root,
            self.fleet.internal_table,
            engine.reputation.weights if engine is not None else None,
            grid_table=self.fleet.grid_table,
            config=config,
            metrics=metrics,
        )

    def state_dict(self) -> dict[str, Any]:
        """What :meth:`journal` does not make durable: the satisfaction
        RNG's ``bit_generator.state`` and each agent's publish count (CD
        agents, then RD agents)."""
        return {
            "rng": rng_state(self.rng),
            "published": [agent.published_count for agent in self._agents],
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`.

        Raises:
            ConfigurationError: if the publish counts do not match the
                fleet's agents one to one, or one is negative, or numpy
                refuses the RNG state; nothing is restored then.
        """
        published = state["published"]
        if len(published) != len(self._agents) or min(published, default=0) < 0:
            raise ConfigurationError(
                f"feedback state holds publish counts {published!r}, the "
                f"fleet has {len(self._agents)} agents"
            )
        restore_rng(self.rng, state["rng"])
        for agent, count in zip(self._agents, published):
            agent.published_count = count
