"""Trust agents — the monitoring components of the paper's Figure 1.

"The CDs and RDs have agents associated with them that monitor the Grid
level transactions and form the trust notions.  These agents have access to
the trust level table.  If the new trust values they form are different from
the existing values in the tables, the agents update the table."

A :class:`DomainTrustAgent` belongs to one domain (a CD or an RD).  It feeds
observed transaction outcomes into a Section-2 :class:`TrustEvolver` and,
when a :class:`~repro.core.update.SignificancePolicy` deems the evidence
significant, publishes the quantised level into the shared
:class:`~repro.grid.trust_table.GridTrustTable`.

Because the Grid table stores the *symmetric quantifier* of the pairwise
relationship, the published level is clamped to the offerable range
``A..E`` (``F`` exists only on the required side).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.engine import TrustEngine
from repro.core.evolution import TransactionOutcome, TrustEvolver
from repro.core.levels import MAX_OFFERED_LEVEL, TrustLevel
from repro.core.recommender import RecommenderWeights
from repro.core.tables import TrustTable, value_to_level
from repro.core.update import AlwaysPublish, SignificancePolicy
from repro.errors import ConfigurationError
from repro.grid.activities import ActivityType
from repro.grid.trust_table import GridTrustTable

__all__ = ["AgentSide", "DomainTrustAgent", "AgentFleet", "domain_entity_id"]


class AgentSide(Enum):
    """Which side of the relationship an agent observes for."""

    CLIENT_DOMAIN = "cd"
    RESOURCE_DOMAIN = "rd"


def domain_entity_id(side: AgentSide, index: int) -> str:
    """Identity of a domain in the internal trust table, e.g. ``"rd:2"``.

    Public so other subsystems (the adversarial recommenders of
    :mod:`repro.trustfaults`) can address the same entities the agents use.
    """
    return f"{side.value}:{index}"


@dataclass
class DomainTrustAgent:
    """Monitoring agent for one domain (Fig. 1).

    Attributes:
        side: whether this agent serves a client domain or a resource domain.
        domain_index: the dense index of the served domain.
        grid_table: the shared Grid trust-level table the agent may update.
        evolver: the Section-2 trust evolution engine holding the agent's
            internal (continuous) evidence.
        policy: when internal evidence becomes a published level.
        engine: optional Section-2 :class:`TrustEngine` over the *shared*
            internal table.  When set, the published level quantises the
            eventual trust ``Γ = α·Θ + β·Ω`` — the agent's direct evidence
            blended with other agents' opinions — instead of the agent's raw
            direct record.
    """

    side: AgentSide
    domain_index: int
    grid_table: GridTrustTable
    evolver: TrustEvolver
    policy: SignificancePolicy = field(default_factory=AlwaysPublish)
    engine: TrustEngine | None = None
    published_count: int = field(default=0, init=False)
    # The agent's own id and its counterparts' ids (by counterpart index),
    # built once: observe_transaction runs on every completion.
    _entity_id: str = field(init=False, repr=False, compare=False)
    _counterpart_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _is_client: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._is_client = self.side is AgentSide.CLIENT_DOMAIN
        other_side, n_other = (
            (AgentSide.RESOURCE_DOMAIN, self.grid_table.shape[1])
            if self._is_client
            else (AgentSide.CLIENT_DOMAIN, self.grid_table.shape[0])
        )
        self._entity_id = domain_entity_id(self.side, self.domain_index)
        self._counterpart_ids = tuple(
            domain_entity_id(other_side, i) for i in range(n_other)
        )

    def observe_transaction(
        self,
        counterpart_index: int,
        activity: ActivityType,
        satisfaction: float,
        time: float,
    ) -> TrustLevel | None:
        """Fold one observed transaction and possibly publish a new level.

        The Grid cell is checked first: a refused observation leaves the
        internal table, its journal and the Grid table as they were.

        Args:
            counterpart_index: index of the domain on the other side (an RD
                index for a CD agent and vice versa).
            activity: the ToA the transaction engaged in.
            satisfaction: observed behaviour quality in ``[0, 1]``.
            time: transaction completion time.

        Returns:
            The newly published :class:`TrustLevel`, or ``None`` when the
            evidence was folded in without a table update.

        Raises:
            ConfigurationError: if the (CD, RD, ToA) cell lies outside the
                Grid table, ``satisfaction`` lies outside ``[0, 1]``, or
                ``time`` precedes the pair's last transaction (with a Γ
                engine: any truster's last transaction about the
                counterpart in this context).
        """
        if self._is_client:
            cd, rd = self.domain_index, counterpart_index
        else:
            cd, rd = counterpart_index, self.domain_index
        k = activity.index
        grid_table = self.grid_table
        published = grid_table.get(cd, rd, k)
        context = activity.context
        trustee = self._counterpart_ids[counterpart_index]
        engine = self.engine
        if engine is not None:
            # Ω refuses a clock older than any opinion it averages; check
            # that here, before anything is folded or journaled.
            latest = engine.reputation.table.latest(trustee, context)
            if time < latest:
                raise ConfigurationError(
                    f"time order: time {time!r} < {latest!r}, the newest "
                    f"opinion about {trustee!r} in context {context.name!r}"
                )
        record = self.evolver.observe(
            TransactionOutcome(self._entity_id, trustee, context, satisfaction, time)
        )
        if not self.policy.should_publish(record, published):
            return None
        if engine is not None:
            level = value_to_level(
                engine.gamma(self._entity_id, trustee, context, time)
            )
        else:
            level = value_to_level(record.value)
        if not level.is_offerable:
            level = MAX_OFFERED_LEVEL
        if level == published:
            return None
        grid_table.set(cd, rd, k, level)
        self.published_count += 1
        return level


@dataclass
class AgentFleet:
    """All agents of a Grid plus their shared internal trust table.

    Builds one agent per CD and per RD, all evolving a *single* internal
    table — the paper's "RTT and DTT will refer to the same table".
    """

    grid_table: GridTrustTable
    cd_agents: tuple[DomainTrustAgent, ...]
    rd_agents: tuple[DomainTrustAgent, ...]
    internal_table: TrustTable

    @classmethod
    def for_table(
        cls,
        grid_table: GridTrustTable,
        *,
        policy: SignificancePolicy | None = None,
        smoothing: float = 0.3,
        gamma_weights: tuple[float, float] | None = None,
        recommender_weights: "RecommenderWeights | None" = None,
        internal_table: TrustTable | None = None,
    ) -> "AgentFleet":
        """Create a fleet covering every CD and RD of ``grid_table``.

        Args:
            grid_table: the shared Grid trust-level table to maintain.
            policy: publication significance policy (default: always).
            smoothing: EMA factor of the per-agent evolvers.
            gamma_weights: optional ``(alpha, beta)``; when given, each
                agent publishes Γ-blended levels (direct + reputation over
                the shared internal table) instead of raw direct records.
            recommender_weights: optional resolver for the recommender
                trust factor ``R(z, y)`` used by the Γ engine's reputation
                component (e.g. purging
                :class:`~repro.trustfaults.credibility.CredibilityWeights`);
                only meaningful together with ``gamma_weights``.
            internal_table: optional pre-populated internal DTT/RTT —
                typically the ``table`` of a recovered
                :class:`~repro.core.journal.DurableTrustPlane` — so a
                restarted session resumes with its accumulated trust
                knowledge instead of an empty table.
        """
        n_cd, n_rd, _ = grid_table.shape
        internal = internal_table if internal_table is not None else TrustTable()
        policy = policy if policy is not None else AlwaysPublish()
        engine: TrustEngine | None = None
        if gamma_weights is not None:
            alpha, beta = gamma_weights
            engine = TrustEngine.build(
                alpha=alpha,
                beta=beta,
                table=internal,
                weights=recommender_weights,
            )

        def make(side: AgentSide, index: int) -> DomainTrustAgent:
            return DomainTrustAgent(
                side=side,
                domain_index=index,
                grid_table=grid_table,
                evolver=TrustEvolver(table=internal, smoothing=smoothing),
                policy=policy,
                engine=engine,
            )

        return cls(
            grid_table=grid_table,
            cd_agents=tuple(make(AgentSide.CLIENT_DOMAIN, i) for i in range(n_cd)),
            rd_agents=tuple(make(AgentSide.RESOURCE_DOMAIN, j) for j in range(n_rd)),
            internal_table=internal,
        )

    def total_published(self) -> int:
        """Total number of table updates performed by any agent."""
        return sum(a.published_count for a in self.cd_agents + self.rd_agents)
