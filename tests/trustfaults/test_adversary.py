"""Tests for adversarial recommendation streams."""

from repro.core.tables import TrustTable
from repro.grid.agents import AgentSide, domain_entity_id
from repro.obs.metrics import MetricsRegistry
from repro.trustfaults.adversary import AdversaryFleet
from repro.trustfaults.model import (
    AdversarySpec,
    AttackKind,
    IntegrityFaultModel,
)


def make_fleet(small_grid, *specs, metrics=None):
    table = TrustTable()
    fleet = AdversaryFleet(
        IntegrityFaultModel(adversaries=tuple(specs)),
        table,
        small_grid.catalog,
        metrics=metrics,
    )
    return fleet, table


def opinions_about(table, rd_index, context):
    trustee = domain_entity_id(AgentSide.RESOURCE_DOMAIN, rd_index)
    return dict(table.recommenders(trustee, context, excluding=object()))


class TestInjection:
    def test_badmouth_reports_low_about_targets(self, small_grid):
        spec = AdversarySpec(
            kind=AttackKind.BADMOUTH, targets=(0, 1), n_recommenders=2
        )
        fleet, table = make_fleet(small_grid, spec)
        written = fleet.inject(10.0, round_index=0)
        n_contexts = len(small_grid.catalog)
        assert written == 2 * 2 * n_contexts
        for rd in (0, 1):
            for context in (a.context for a in small_grid.catalog):
                recs = opinions_about(table, rd, context)
                assert len(recs) == 2
                assert all(
                    rec.value == spec.value_low for rec in recs.values()
                )
                assert all(
                    rec.last_transaction == 10.0 for rec in recs.values()
                )

    def test_ballot_stuff_reports_high(self, small_grid):
        spec = AdversarySpec(kind=AttackKind.BALLOT_STUFF, targets=(1,))
        fleet, table = make_fleet(small_grid, spec)
        fleet.inject(0.0, round_index=0)
        context = small_grid.catalog.by_index(0).context
        recs = opinions_about(table, 1, context)
        assert all(rec.value == spec.value_high for rec in recs.values())

    def test_collusion_also_stuffs_the_clique(self, small_grid):
        spec = AdversarySpec(
            kind=AttackKind.COLLUSION, targets=(0,), n_recommenders=3
        )
        fleet, table = make_fleet(small_grid, spec)
        fleet.inject(0.0, round_index=0)
        members = tuple(
            f"adv:{spec.group_label}:{i}" for i in range(spec.n_recommenders)
        )
        context = small_grid.catalog.by_index(0).context
        for member in members:
            peers = dict(
                table.recommenders(member, context, excluding=object())
            )
            assert set(peers) == set(members) - {member}
            assert all(rec.value == spec.value_high for rec in peers.values())

    def test_oscillate_alternates_phases(self, small_grid):
        spec = AdversarySpec(
            kind=AttackKind.OSCILLATE, targets=(0,), period=2
        )
        fleet, table = make_fleet(small_grid, spec)
        context = small_grid.catalog.by_index(0).context

        def reported(round_index):
            fleet.inject(float(round_index), round_index)
            recs = opinions_about(table, 0, context)
            (value,) = {rec.value for rec in recs.values()}
            return value

        assert reported(0) == spec.value_low  # truthful-looking phase
        assert reported(1) == spec.value_low
        assert reported(2) == spec.value_high  # lying phase
        assert reported(3) == spec.value_high
        assert reported(4) == spec.value_low

    def test_rerecording_overwrites_not_accumulates(self, small_grid):
        spec = AdversarySpec(kind=AttackKind.BADMOUTH, targets=(0,))
        fleet, table = make_fleet(small_grid, spec)
        fleet.inject(0.0, round_index=0)
        size = len(table)
        fleet.inject(1.0, round_index=1)
        assert len(table) == size  # freshest opinion wins, table bounded

    def test_member_identities_are_stable_and_labelled(self, small_grid):
        spec = AdversarySpec(
            kind=AttackKind.BADMOUTH,
            targets=(0,),
            n_recommenders=2,
            label="cartel",
        )
        fleet, table = make_fleet(small_grid, spec)
        fleet.inject(0.0, round_index=0)
        context = small_grid.catalog.by_index(0).context
        assert set(opinions_about(table, 0, context)) == {
            "adv:cartel:0", "adv:cartel:1"
        }

    def test_injected_opinions_metered(self, small_grid):
        metrics = MetricsRegistry(enabled=True)
        spec = AdversarySpec(kind=AttackKind.BADMOUTH, targets=(0,))
        fleet, _ = make_fleet(small_grid, spec, metrics=metrics)
        written = fleet.inject(0.0, round_index=0)
        assert written > 0
        assert (
            metrics.snapshot()["trustq.injected_opinions"]["value"] == written
        )
