"""Tests for graceful cost-provider degradation under trust-plane faults."""

import numpy as np
import pytest

from repro.core.ets import EtsTable
from repro.grid.activities import ActivityCatalog, ActivitySet
from repro.grid.request import Request, Task
from repro.grid.topology import GridBuilder
from repro.obs.metrics import MetricsRegistry
from repro.scheduling.constraints import InfeasiblePolicy, TrustConstraint
from repro.scheduling.costs import CostProvider
from repro.scheduling.policy import TrustPolicy
from repro.trustfaults.model import TrustQueryConfig, TrustSourceFault
from repro.trustfaults.query import ResilientTrustSource


def make_request(grid, index=0, client=0, activities=(0,), arrival=0.0):
    task = Task(
        index=index,
        activities=ActivitySet.of([grid.catalog.by_index(a) for a in activities]),
    )
    return Request(
        index=index, client=grid.clients[client], task=task, arrival_time=arrival
    )


def blackout_source(grid, **config_kwargs):
    return ResilientTrustSource(
        grid,
        fault=TrustSourceFault(blackout=True),
        config=TrustQueryConfig(**config_kwargs),
    )


def f_grid(*, f_forces_max=True, all_f=False):
    """A grid with one machine in a B-required RD and one in an F-required RD."""
    catalog = ActivityCatalog(["execute", "store"])
    builder = GridBuilder(catalog)
    gd = builder.grid_domain("site")
    rd0 = builder.resource_domain(gd, required_level="F" if all_f else "B")
    rd1 = builder.resource_domain(gd, required_level="F")
    builder.machine(rd0)
    builder.machine(rd1)
    cd = builder.client_domain(gd, required_level="C")
    builder.client(cd)
    return builder.build(ets=EtsTable(f_forces_max=f_forces_max))


@pytest.fixture
def eec():
    return np.array([[10.0, 20.0, 30.0], [5.0, 5.0, 5.0]], dtype=np.float64)


class TestHealthySourceIsTransparent:
    def test_rows_bit_identical_with_healthy_source(self, small_grid, eec):
        policy = TrustPolicy.aware()
        bare = CostProvider(grid=small_grid, eec=eec, policy=policy)
        fronted = CostProvider(
            grid=small_grid,
            eec=eec,
            policy=policy,
            trust_source=ResilientTrustSource(small_grid),
        )
        for index in (0, 1):
            req = make_request(small_grid, index=index)
            np.testing.assert_array_equal(
                bare.mapping_ecc_row(req), fronted.mapping_ecc_row(req)
            )
        reqs = [make_request(small_grid, index=i) for i in (0, 1)]
        np.testing.assert_array_equal(
            bare.mapping_ecc_matrix(reqs), fronted.mapping_ecc_matrix(reqs)
        )
        assert fronted.degraded_requests == frozenset()


class TestDegradedPricing:
    def test_blackout_prices_trust_unaware(self, small_grid, eec):
        policy = TrustPolicy.aware()
        provider = CostProvider(
            grid=small_grid,
            eec=eec,
            policy=policy,
            trust_source=blackout_source(small_grid),
        )
        req = make_request(small_grid, index=0)
        row = provider.mapping_ecc_row(req)
        expected = eec[0] + policy.esc_unaware(eec[0])
        np.testing.assert_allclose(row, expected)
        assert provider.degraded_requests == frozenset({0})

    def test_degraded_rows_never_cached(self, small_grid, eec):
        metrics = MetricsRegistry(enabled=True)
        provider = CostProvider(
            grid=small_grid,
            eec=eec,
            policy=TrustPolicy.aware(),
            metrics=metrics,
            trust_source=blackout_source(small_grid),
        )
        req = make_request(small_grid, index=0)
        provider.mapping_ecc_row(req)
        provider.mapping_ecc_row(req)
        # Both accesses re-attempted the plane and re-degraded.
        assert metrics.snapshot()["costs.degraded_rows"]["value"] == 2

    def test_matrix_matches_scalar_rows_under_blackout(self, small_grid, eec):
        policy = TrustPolicy.aware()
        source = blackout_source(small_grid)
        provider = CostProvider(
            grid=small_grid, eec=eec, policy=policy, trust_source=source
        )
        reqs = [
            make_request(small_grid, index=0, client=0),
            make_request(small_grid, index=1, client=1),
        ]
        matrix = provider.mapping_ecc_matrix(reqs)
        for pos, req in enumerate(reqs):
            np.testing.assert_array_equal(
                matrix[pos], provider.mapping_ecc_row(req)
            )
        assert provider.degraded_requests == frozenset({0, 1})

    def test_realized_cost_pays_blanket_security(self, small_grid, eec):
        policy = TrustPolicy.aware()
        provider = CostProvider(
            grid=small_grid,
            eec=eec,
            policy=policy,
            trust_source=blackout_source(small_grid),
        )
        req = make_request(small_grid, index=0)
        provider.mapping_ecc_row(req)  # degrades
        machines = list(range(small_grid.n_machines))
        paid_eec, cost, _tc = provider.realized_costs([req] * len(machines), machines)
        np.testing.assert_array_equal(paid_eec, eec[0])
        np.testing.assert_allclose(cost, eec[0] + policy.esc_unaware(eec[0]))

    def test_exclusions_still_apply_when_degraded(self, small_grid, eec):
        provider = CostProvider(
            grid=small_grid,
            eec=eec,
            policy=TrustPolicy.aware(),
            trust_source=blackout_source(small_grid),
        )
        provider.exclude(0, 1)
        row = provider.mapping_ecc_row(make_request(small_grid, index=0))
        assert row[1] == np.inf
        assert np.isfinite(row[0]) and np.isfinite(row[2])


class TestRecoveryRepricing:
    def test_rows_reprice_exactly_after_recovery(self, small_grid, eec):
        policy = TrustPolicy.aware()
        source = ResilientTrustSource(
            small_grid,
            fault=TrustSourceFault(outages=((0.0, 100.0),)),
            config=TrustQueryConfig(failure_threshold=3, cooldown=50.0),
        )
        provider = CostProvider(
            grid=small_grid, eec=eec, policy=policy, trust_source=source
        )
        fresh = CostProvider(grid=small_grid, eec=eec, policy=policy)
        req = make_request(small_grid, index=0)
        source.advance(5.0)
        degraded_row = provider.mapping_ecc_row(req)
        assert provider.degraded_requests == frozenset({0})
        source.advance(200.0)  # outage over (and past any cooldown)
        recovered = provider.mapping_ecc_row(req)
        np.testing.assert_array_equal(recovered, fresh.mapping_ecc_row(req))
        assert not np.array_equal(degraded_row, recovered)
        assert provider.degraded_requests == frozenset()

    def test_matrix_repricing_after_recovery(self, small_grid, eec):
        policy = TrustPolicy.aware()
        source = ResilientTrustSource(
            small_grid,
            fault=TrustSourceFault(outages=((0.0, 100.0),)),
            config=TrustQueryConfig(failure_threshold=3),
        )
        provider = CostProvider(
            grid=small_grid, eec=eec, policy=policy, trust_source=source
        )
        fresh = CostProvider(grid=small_grid, eec=eec, policy=policy)
        reqs = [make_request(small_grid, index=i, client=i) for i in (0, 1)]
        source.advance(5.0)
        provider.mapping_ecc_matrix(reqs)
        assert provider.degraded_requests == frozenset({0, 1})
        source.advance(200.0)
        np.testing.assert_array_equal(
            provider.mapping_ecc_matrix(reqs), fresh.mapping_ecc_matrix(reqs)
        )
        assert provider.degraded_requests == frozenset()


class TestForcedConstraintUnderDegradation:
    """Table 1's RTL = F row is derivable without the table, so REJECT
    admission control keeps holding through a trust-plane outage."""

    def test_f_machines_stay_rejected_while_degraded(self):
        grid = f_grid()
        eec = np.array([[10.0, 10.0]], dtype=np.float64)
        policy = TrustPolicy.aware()
        provider = CostProvider(
            grid=grid,
            eec=eec,
            policy=policy,
            constraint=TrustConstraint(
                max_trust_cost=5, infeasible=InfeasiblePolicy.REJECT
            ),
            trust_source=blackout_source(grid),
        )
        req = make_request(grid, index=0)
        row = provider.mapping_ecc_row(req)
        assert np.isfinite(row[0])  # B-required machine: unknown, admitted
        assert row[1] == np.inf  # F-required machine: forced TC_MAX
        assert provider.is_feasible(req)
        matrix = provider.mapping_ecc_matrix([req])
        np.testing.assert_array_equal(matrix[0], row)

    def test_all_f_grid_rejects_under_degradation(self):
        grid = f_grid(all_f=True)
        eec = np.array([[10.0, 10.0]], dtype=np.float64)
        provider = CostProvider(
            grid=grid,
            eec=eec,
            policy=TrustPolicy.aware(),
            constraint=TrustConstraint(
                max_trust_cost=5, infeasible=InfeasiblePolicy.REJECT
            ),
            trust_source=blackout_source(grid),
        )
        req = make_request(grid, index=0)
        assert not provider.is_feasible(req)
        assert np.all(provider.mapping_ecc_row(req) == np.inf)

    def test_variant_without_f_override_admits_everything(self):
        grid = f_grid(f_forces_max=False, all_f=True)
        eec = np.array([[10.0, 10.0]], dtype=np.float64)
        provider = CostProvider(
            grid=grid,
            eec=eec,
            policy=TrustPolicy.aware(),
            constraint=TrustConstraint(
                max_trust_cost=5, infeasible=InfeasiblePolicy.REJECT
            ),
            trust_source=blackout_source(grid),
        )
        req = make_request(grid, index=0)
        # Without the override nothing is derivable locally: unknown
        # pairings are admitted rather than rejected on absent evidence.
        assert provider.is_feasible(req)
        assert np.all(np.isfinite(provider.mapping_ecc_row(req)))
