"""Tests for repro.grid.agents (Figure-1 monitoring agents)."""

import pytest

from repro.core.evolution import TrustEvolver
from repro.core.journal import DurableTrustPlane
from repro.core.levels import TrustLevel
from repro.core.tables import TrustTable
from repro.core.update import MinEvidencePolicy
from repro.grid.activities import ActivityCatalog
from repro.grid.agents import AgentFleet, AgentSide, DomainTrustAgent, domain_entity_id
from repro.errors import ConfigurationError
from repro.grid.trust_table import GridTrustTable


@pytest.fixture
def grid_table() -> GridTrustTable:
    return GridTrustTable(2, 2, 2, initial_level="C")


@pytest.fixture
def catalog() -> ActivityCatalog:
    return ActivityCatalog.default(2)


def make_agent(grid_table, side=AgentSide.CLIENT_DOMAIN, index=0, policy=None):
    kwargs = {"policy": policy} if policy is not None else {}
    return DomainTrustAgent(
        side=side,
        domain_index=index,
        grid_table=grid_table,
        evolver=TrustEvolver(table=TrustTable(), smoothing=1.0),
        **kwargs,
    )


class TestDomainTrustAgent:
    def test_good_outcome_publishes_high_level(self, grid_table, catalog):
        agent = make_agent(grid_table)
        published = agent.observe_transaction(1, catalog.by_index(0), 0.95, time=1.0)
        # value 0.95 quantises to F, clamped to the offerable E.
        assert published is TrustLevel.E
        assert grid_table.get(0, 1, 0) is TrustLevel.E
        assert agent.published_count == 1

    def test_bad_outcome_publishes_low_level(self, grid_table, catalog):
        agent = make_agent(grid_table)
        published = agent.observe_transaction(0, catalog.by_index(1), 0.05, time=1.0)
        assert published is TrustLevel.A
        assert grid_table.get(0, 0, 1) is TrustLevel.A

    def test_no_update_when_level_unchanged(self, grid_table, catalog):
        agent = make_agent(grid_table)
        # value 0.45 -> level C == initial C: no publication.
        assert agent.observe_transaction(0, catalog.by_index(0), 0.45, time=1.0) is None
        assert agent.published_count == 0

    def test_rd_agent_indexes_table_transposed(self, grid_table, catalog):
        agent = make_agent(grid_table, side=AgentSide.RESOURCE_DOMAIN, index=1)
        agent.observe_transaction(0, catalog.by_index(0), 0.95, time=1.0)
        # counterpart 0 is the CD; table coordinates are (cd=0, rd=1).
        assert grid_table.get(0, 1, 0) is TrustLevel.E
        assert grid_table.get(1, 0, 0) is TrustLevel.C  # untouched

    def test_policy_gates_publication(self, grid_table, catalog):
        agent = make_agent(grid_table, policy=MinEvidencePolicy(min_transactions=3))
        act = catalog.by_index(0)
        assert agent.observe_transaction(1, act, 0.95, time=1.0) is None
        assert agent.observe_transaction(1, act, 0.95, time=2.0) is None
        assert agent.observe_transaction(1, act, 0.95, time=3.0) is TrustLevel.E

    def test_entity_ids_distinct_per_side(self, grid_table):
        cd_agent = make_agent(grid_table, side=AgentSide.CLIENT_DOMAIN, index=1)
        rd_agent = make_agent(grid_table, side=AgentSide.RESOURCE_DOMAIN, index=1)
        assert domain_entity_id(cd_agent.side, cd_agent.domain_index) != (
            domain_entity_id(rd_agent.side, rd_agent.domain_index)
        )


class TestAgentFleet:
    def test_fleet_covers_all_domains(self, grid_table):
        fleet = AgentFleet.for_table(grid_table)
        assert len(fleet.cd_agents) == 2
        assert len(fleet.rd_agents) == 2

    def test_fleet_shares_internal_table(self, grid_table):
        fleet = AgentFleet.for_table(grid_table)
        tables = {id(a.evolver.table) for a in fleet.cd_agents + fleet.rd_agents}
        assert tables == {id(fleet.internal_table)}

    def test_total_published(self, grid_table, catalog):
        fleet = AgentFleet.for_table(grid_table)
        fleet.cd_agents[0].observe_transaction(0, catalog.by_index(0), 0.95, 1.0)
        fleet.rd_agents[1].observe_transaction(1, catalog.by_index(1), 0.05, 1.0)
        assert fleet.total_published() == 2

    def test_gamma_weights_blend_reputation_into_publication(self, grid_table, catalog):
        """With Γ publication, another agent's bad opinion drags down the
        level a fresh agent publishes about the same trustee."""
        fleet = AgentFleet.for_table(
            grid_table, gamma_weights=(0.5, 0.5), smoothing=1.0
        )
        act = catalog.by_index(0)
        # cd0 has a terrible direct experience with rd1 (recorded but the
        # publication sets (0,1); we care about its effect on cd1's view).
        fleet.cd_agents[0].observe_transaction(1, act, 0.0, time=1.0)
        # cd1 has a perfect experience with rd1.  Direct Θ = 1.0, but the
        # reputation Ω (cd0's record) is 0.0, so Γ = 0.5 -> level D.
        published = fleet.cd_agents[1].observe_transaction(1, act, 1.0, time=2.0)
        assert published is TrustLevel.D

    def test_gamma_weights_pure_direct_matches_default(self, grid_table, catalog):
        fleet = AgentFleet.for_table(
            grid_table, gamma_weights=(1.0, 0.0), smoothing=1.0
        )
        act = catalog.by_index(0)
        published = fleet.cd_agents[0].observe_transaction(1, act, 0.95, time=1.0)
        assert published is TrustLevel.E

    def test_both_sides_feed_shared_reputation(self, grid_table, catalog):
        """A CD agent's observations become reputation data an RD agent's
        engine could consult — the single-table design of the paper."""
        fleet = AgentFleet.for_table(grid_table)
        fleet.cd_agents[0].observe_transaction(1, catalog.by_index(0), 0.9, 1.0)
        recs = list(
            fleet.internal_table.recommenders(
                "rd:1", catalog.by_index(0).context, excluding="cd:9"
            )
        )
        assert len(recs) == 1
        assert recs[0][0] == "cd:0"


class TestRefusedObservations:
    """A refused observation leaves no trace: not in the internal table,
    not in its epoch, not in the journal buffer, not in the Grid table."""

    @pytest.fixture
    def journaled(self, grid_table, catalog, tmp_path):
        fleet = AgentFleet.for_table(grid_table, gamma_weights=(0.7, 0.3))
        fleet.cd_agents[0].observe_transaction(1, catalog.by_index(0), 0.4, 1.0)
        plane = DurableTrustPlane.create(
            tmp_path / "plane",
            fleet.internal_table,
            fleet.cd_agents[0].engine.reputation.weights,
            grid_table=grid_table,
        )
        yield fleet, plane
        plane.close()

    @staticmethod
    def state(fleet, plane):
        return (
            list(fleet.internal_table.items()),
            fleet.internal_table.epoch,
            plane._writer.pending_bytes,
            fleet.grid_table.levels.tobytes(),
            fleet.grid_table.epoch,
            fleet.total_published(),
        )

    @pytest.mark.parametrize(
        "side,agent,counterpart,satisfaction,time,match",
        [
            ("cd", 0, 5, 0.9, 1.0, "resource-domain index 5"),
            ("cd", 0, -1, 0.9, 1.0, "resource-domain index -1"),
            ("rd", 0, 2, 0.9, 1.0, "client-domain index 2"),
            ("rd", 0, -1, 0.9, 1.0, "client-domain index -1"),
            ("cd", 0, 1, 1.5, 2.0, "satisfaction must lie in \\[0, 1\\], got 1.5"),
            ("cd", 0, 1, float("nan"), 2.0, "satisfaction .* got nan"),
            ("cd", 0, 1, 0.9, 0.5, "time order: time 0.5 < 1.0"),
            ("cd", 0, 1, 0.9, float("inf"), "last_transaction must be finite, got inf"),
            # cd:0 rated rd:1 at 1.0; Ω cannot average that opinion at 0.5.
            ("cd", 1, 1, 0.2, 0.5, "time order: time 0.5 < 1.0, .* about 'rd:1'"),
        ],
        ids=[
            "rd-past-axis", "rd-negative", "cd-past-axis", "cd-negative",
            "satisfaction-above-one", "satisfaction-nan", "time-backwards",
            "time-infinite", "time-before-another-truster",
        ],
    )
    def test_refusal_leaves_no_trace(
        self, journaled, catalog, side, agent, counterpart, satisfaction, time, match
    ):
        fleet, plane = journaled
        agents = fleet.cd_agents if side == "cd" else fleet.rd_agents
        act = catalog.by_index(0)
        before = self.state(fleet, plane)
        with pytest.raises(ConfigurationError, match=match):
            agents[agent].observe_transaction(counterpart, act, satisfaction, time)
        assert self.state(fleet, plane) == before

    def test_direct_only_fleet_orders_time_per_pair_only(self, grid_table, catalog):
        # Without a Γ engine nobody averages other trusters' opinions, so
        # an observation older than another truster's is accepted.
        fleet = AgentFleet.for_table(grid_table)
        act = catalog.by_index(0)
        fleet.cd_agents[0].observe_transaction(0, act, 0.9, 5.0)
        fleet.cd_agents[1].observe_transaction(0, act, 0.2, 1.0)
        assert len(fleet.internal_table) == 2

    def test_accepted_observation_after_refusals_journals_one_record(
        self, journaled, catalog
    ):
        fleet, _ = journaled
        act = catalog.by_index(0)
        with pytest.raises(ConfigurationError):
            fleet.cd_agents[0].observe_transaction(5, act, 0.9, 1.0)
        epoch = fleet.internal_table.epoch
        fleet.cd_agents[0].observe_transaction(1, act, 0.9, 2.0)
        assert fleet.internal_table.epoch == epoch + 1
        assert ("cd:0", "rd:5", act.context) not in fleet.internal_table
