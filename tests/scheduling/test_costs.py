"""Tests for the CostProvider."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.grid.activities import ActivitySet
from repro.grid.request import Request, Task
from repro.obs.metrics import MetricsRegistry
from repro.scheduling.constraints import InfeasiblePolicy, TrustConstraint
from repro.scheduling.costs import CostProvider
from repro.scheduling.policy import TrustPolicy


def make_request(grid, index=0, client=0, activities=(0,), arrival=0.0) -> Request:
    task = Task(
        index=index,
        activities=ActivitySet.of([grid.catalog.by_index(a) for a in activities]),
    )
    return Request(index=index, client=grid.clients[client], task=task, arrival_time=arrival)


@pytest.fixture
def provider(small_grid):
    eec = np.array(
        [[10.0, 20.0, 30.0], [5.0, 5.0, 5.0]], dtype=np.float64
    )
    return CostProvider(grid=small_grid, eec=eec, policy=TrustPolicy.aware())


class TestValidation:
    def test_column_count_must_match_machines(self, small_grid):
        with pytest.raises(ConfigurationError, match="machines"):
            CostProvider(small_grid, np.ones((2, 2)), TrustPolicy.aware())

    def test_eec_must_be_positive(self, small_grid):
        with pytest.raises(ConfigurationError):
            CostProvider(small_grid, np.zeros((2, 3)), TrustPolicy.aware())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_eec_must_be_finite(self, small_grid, value):
        eec = np.ones((2, 3))
        eec[1, 2] = value
        with pytest.raises(ConfigurationError, match=r"\(task 1, machine 2\)"):
            CostProvider(small_grid, eec, TrustPolicy.aware())

    def test_nan_eec_from_scenario_json_is_refused(self, small_scenario):
        import json

        from repro.scheduling.mct import MctHeuristic
        from repro.scheduling.scheduler import TRMScheduler
        from repro.workloads.serialization import scenario_from_dict, scenario_to_dict

        data = scenario_to_dict(small_scenario)
        data["eec"][3][1] = float("nan")
        scenario = scenario_from_dict(json.loads(json.dumps(data)))
        with pytest.raises(ConfigurationError, match=r"\(task 3, machine 1\) is nan"):
            TRMScheduler(
                scenario.grid, scenario.eec, TrustPolicy.aware(), MctHeuristic()
            ).run(list(scenario.requests))

    def test_eec_must_be_2d(self, small_grid):
        with pytest.raises(ConfigurationError):
            CostProvider(small_grid, np.ones(3), TrustPolicy.aware())

    def test_task_index_out_of_matrix(self, small_grid, provider):
        req = make_request(small_grid, index=9)
        with pytest.raises(ConfigurationError):
            provider.eec_row(req)


class TestRows:
    def test_eec_row(self, small_grid, provider):
        req = make_request(small_grid, index=1)
        np.testing.assert_allclose(provider.eec_row(req), [5.0, 5.0, 5.0])

    def test_trust_cost_row_matches_grid(self, small_grid, provider):
        # Trust table is uniform A; cd0 RTL=C(3); RD RTLs are B(2), D(4).
        # Effective RTL per RD: [3, 4]; OTL=1 -> TC per RD [2, 3].
        # Machines [rd0, rd0, rd1] -> [2, 2, 3].
        req = make_request(small_grid, index=0, client=0)
        np.testing.assert_allclose(provider.trust_cost_row(req), [2.0, 2.0, 3.0])

    def test_trust_cost_row_cached(self, small_grid, provider):
        req = make_request(small_grid, index=0)
        a = provider.trust_cost_row(req)
        b = provider.trust_cost_row(req)
        assert a is b
        with pytest.raises(ValueError):
            a[0] = 99  # cached row is frozen

    def test_mapping_row_aware(self, small_grid, provider):
        req = make_request(small_grid, index=0, client=0)
        # ECC = EEC * (1 + 0.15*TC) with TC [2, 2, 3].
        expected = np.array([10.0, 20.0, 30.0]) * np.array([1.3, 1.3, 1.45])
        np.testing.assert_allclose(provider.mapping_ecc_row(req), expected)

    def test_unaware_policy_switches_formula(self, small_grid, provider):
        unaware = CostProvider(grid=small_grid, eec=provider.eec, policy=TrustPolicy.unaware())
        req = make_request(small_grid, index=0)
        np.testing.assert_allclose(
            unaware.mapping_ecc_row(req), np.array([10.0, 20.0, 30.0]) * 1.5
        )
        # Trust costs are policy independent.
        np.testing.assert_allclose(
            unaware.trust_cost_row(req), provider.trust_cost_row(req)
        )

    def test_composed_activities_lower_otl(self, small_grid, provider):
        # Raise activity 0's level for cd0/rd0 to E; activity 1 stays A.
        small_grid.trust_table.set(0, 0, 0, "E")
        provider2 = CostProvider(
            grid=small_grid, eec=provider.eec, policy=TrustPolicy.aware()
        )
        atomic = make_request(small_grid, index=0, activities=(0,))
        composed = make_request(small_grid, index=1, activities=(0, 1))
        # Atomic on rd0: OTL=E(5) >= RTL C(3)/B(2) -> TC 0 on machines 0,1.
        np.testing.assert_allclose(provider2.trust_cost_row(atomic)[:2], [0.0, 0.0])
        # Composed drags OTL back to A -> TC 2.
        np.testing.assert_allclose(provider2.trust_cost_row(composed)[:2], [2.0, 2.0])


class TestConstraintAcrossPolicies:
    """A paired aware/unaware comparison under one TrustConstraint prices
    feasibility identically under both policies."""

    @staticmethod
    def pair(small_grid, provider, constraint):
        return [
            CostProvider(
                grid=small_grid, eec=provider.eec, policy=policy, constraint=constraint
            )
            for policy in (TrustPolicy.aware(), TrustPolicy.unaware())
        ]

    def test_constraint_prices_both_policies(self, small_grid, provider):
        # TC row is [2, 2, 3]; cap at 2 -> machine 2 must price at +inf
        # under BOTH policies of a paired comparison.
        constrained, unaware = self.pair(
            small_grid, provider, TrustConstraint(max_trust_cost=2)
        )
        req = make_request(small_grid, index=0)
        assert np.isinf(constrained.mapping_ecc_row(req)[2])
        assert np.isinf(unaware.mapping_ecc_row(req)[2])
        np.testing.assert_array_equal(
            np.isinf(constrained.mapping_ecc_row(req)),
            np.isinf(unaware.mapping_ecc_row(req)),
        )

    def test_feasibility_agrees_across_policies(self, small_grid, provider):
        # Cap below every machine's TC: both providers must reject.
        constrained, unaware = self.pair(
            small_grid,
            provider,
            TrustConstraint(max_trust_cost=1, infeasible=InfeasiblePolicy.REJECT),
        )
        req = make_request(small_grid, index=0)
        assert not constrained.is_feasible(req)
        assert not unaware.is_feasible(req)


class TestRetryPricing:
    """The retry path's cache/exclusion interplay: exclusions must survive
    a trust-cache invalidation, and the relaxation fallback must restore
    the full row."""

    def test_exclusion_prices_machine_infinite(self, small_grid, provider):
        req = make_request(small_grid, index=0)
        provider.exclude(req.index, 1)
        row = provider.mapping_ecc_row(req)
        assert np.isinf(row[1])
        assert np.isfinite(row[[0, 2]]).all()
        assert provider.state_dict()["exclusions"] == {str(req.index): [1]}

    def test_exclusion_survives_tc_cache_invalidation(self, small_grid, provider):
        req = make_request(small_grid, index=0)
        provider.exclude(req.index, 0)
        # Re-pricing a retry invalidates the TC cache; the exclusions are
        # independent state and must keep the failed machine at +inf.
        provider.invalidate_trust_cache(req.index)
        row = provider.mapping_ecc_row(req)
        assert np.isinf(row[0])
        assert np.isfinite(row[1:]).all()

    def test_clear_exclusions_restores_full_row(self, small_grid, provider):
        req = make_request(small_grid, index=0)
        baseline = provider.mapping_ecc_row(req).copy()
        for machine in range(3):
            provider.exclude(req.index, machine)
        assert not np.isfinite(provider.mapping_ecc_row(req)).any()
        # Relaxation fallback: drop all exclusions, full row comes back.
        provider.clear_exclusions(req.index)
        np.testing.assert_allclose(provider.mapping_ecc_row(req), baseline)

    def test_invalidation_sees_evolved_trust(self, small_grid, provider):
        req = make_request(small_grid, index=0)
        before = provider.trust_cost_row(req).copy()
        # Trust evolves between attempts: rd0's level for activity 0 rises.
        # The publish moves CD 0's epoch, so the next read re-prices.
        small_grid.trust_table.set(0, 0, 0, "E")
        after = provider.trust_cost_row(req)
        assert after[0] < before[0]
        # A retry's forced fetch prices the same evolved row.
        provider.invalidate_trust_cache(req.index)
        np.testing.assert_array_equal(provider.trust_cost_row(req), after)

    def test_exclusions_are_per_request(self, small_grid, provider):
        first = make_request(small_grid, index=0)
        second = make_request(small_grid, index=1)
        provider.exclude(first.index, 2)
        assert np.isinf(provider.mapping_ecc_row(first)[2])
        assert np.isfinite(provider.mapping_ecc_row(second)).all()

    def test_exclude_validates_machine_index(self, small_grid, provider):
        with pytest.raises(ConfigurationError):
            provider.exclude(0, 99)


class TestSharedTrustCostCache:
    """Regression: the TC cache used to be keyed by ``request.index``, so
    duplicate requests (same client domain, same ToA set) each recomputed
    an identical row.  It is now keyed by the pricing key and shared."""

    def make_provider(self, small_grid):
        metrics = MetricsRegistry(enabled=True)
        eec = np.array([[10.0, 20.0, 30.0], [5.0, 5.0, 5.0]])
        provider = CostProvider(
            grid=small_grid, eec=eec, policy=TrustPolicy.aware(), metrics=metrics
        )
        return provider, metrics

    def test_duplicate_requests_share_one_row(self, small_grid):
        provider, metrics = self.make_provider(small_grid)
        first = make_request(small_grid, index=0, client=0, activities=(0,))
        twin = make_request(small_grid, index=1, client=0, activities=(0,))
        row = provider.trust_cost_row(first)
        assert metrics.counter("costs.tc_rows").value == 1
        assert provider.trust_cost_row(twin) is row
        assert metrics.counter("costs.tc_rows").value == 1  # no recompute

    def test_key_normalises_activity_order(self, small_grid):
        provider, metrics = self.make_provider(small_grid)
        a = make_request(small_grid, index=0, activities=(0, 1))
        b = make_request(small_grid, index=1, activities=(1, 0))
        assert provider.trust_cost_row(a) is provider.trust_cost_row(b)
        assert metrics.counter("costs.tc_rows").value == 1

    def test_distinct_keys_do_not_collide(self, small_grid):
        provider, _ = self.make_provider(small_grid)
        by_client = provider.trust_cost_row(
            make_request(small_grid, index=0, client=0)
        )
        other_client = provider.trust_cost_row(
            make_request(small_grid, index=1, client=1)
        )
        assert by_client is not other_client

    def test_retried_request_reprices_sibling_does_not(self, small_grid):
        provider, metrics = self.make_provider(small_grid)
        retried = make_request(small_grid, index=0, client=0, activities=(0,))
        sibling = make_request(small_grid, index=1, client=0, activities=(0,))
        before = provider.trust_cost_row(retried)
        assert provider.trust_cost_row(sibling) is before
        # Trust evolves between attempts; the retry's fresh fetch re-prices.
        small_grid.trust_table.set(0, 0, 0, "E")
        provider.invalidate_trust_cache(retried.index)
        after = provider.trust_cost_row(retried)
        assert after[0] < before[0]
        assert metrics.counter("costs.tc_rows").value == 2
        # The fetch refreshed the shared entry: the identical sibling reads
        # the evolved row with no recompute of its own.
        assert provider.trust_cost_row(sibling) is after
        assert metrics.counter("costs.tc_rows").value == 2
        assert provider.trust_cost_row(retried) is after
        # A retry demands a fresh fetch even at an unchanged epoch.
        provider.invalidate_trust_cache(retried.index)
        provider.trust_cost_row(retried)
        assert metrics.counter("costs.tc_rows").value == 3


class TestMappingRowCache:
    """``mapping_ecc_row`` keeps no finished-row cache: it assembles the row
    on every call from the one epoch-checked TC memo, so exclusions and
    published trust show on the next call while the TC row underneath is
    computed once per pricing key and epoch."""

    def make_provider(self, small_grid):
        metrics = MetricsRegistry(enabled=True)
        eec = np.array([[10.0, 20.0, 30.0], [5.0, 5.0, 5.0]])
        provider = CostProvider(
            grid=small_grid, eec=eec, policy=TrustPolicy.aware(), metrics=metrics
        )
        return provider, metrics.counter("costs.tc_rows")

    def test_repeated_calls_return_cached_object(self, small_grid):
        provider, tc_rows = self.make_provider(small_grid)
        req = make_request(small_grid, index=0)
        row = provider.mapping_ecc_row(req)
        tc = provider.trust_cost_row(req)
        again = provider.mapping_ecc_row(req)
        np.testing.assert_array_equal(again, row)
        assert provider.trust_cost_row(req) is tc  # the cached TC object
        assert tc_rows.value == 1
        with pytest.raises(ValueError):
            row[0] = 0.0  # returned rows are frozen

    def test_excluded_request_row_is_cached_too(self, small_grid):
        provider, tc_rows = self.make_provider(small_grid)
        req = make_request(small_grid, index=0)
        provider.exclude(req.index, 1)
        row = provider.mapping_ecc_row(req)
        assert np.isinf(row[1])
        np.testing.assert_array_equal(provider.mapping_ecc_row(req), row)
        assert tc_rows.value == 1  # exclusions never re-price TC

    def test_exclude_invalidates_cached_row(self, small_grid, provider):
        req = make_request(small_grid, index=0)
        before = provider.mapping_ecc_row(req)
        provider.exclude(req.index, 2)
        after = provider.mapping_ecc_row(req)
        assert after is not before
        assert np.isinf(after[2]) and np.isfinite(before[2])

    def test_clear_exclusions_invalidates_cached_row(self, small_grid, provider):
        req = make_request(small_grid, index=0)
        baseline = provider.mapping_ecc_row(req).copy()
        provider.exclude(req.index, 0)
        provider.clear_exclusions(req.index)
        np.testing.assert_array_equal(provider.mapping_ecc_row(req), baseline)

    def test_trust_invalidation_refreshes_mapping_row(self, small_grid, provider):
        req = make_request(small_grid, index=0)
        before = provider.mapping_ecc_row(req)
        small_grid.trust_table.set(0, 0, 0, "E")
        after = provider.mapping_ecc_row(req)  # the publish alone re-prices
        assert after[0] < before[0]
        provider.invalidate_trust_cache(req.index)
        np.testing.assert_array_equal(provider.mapping_ecc_row(req), after)


class TestMatrixAssembly:
    """The batched ``mapping_ecc_matrix`` must be bit-identical to stacking
    ``mapping_ecc_row`` calls, across constraints and retry exclusions."""

    def requests(self, small_grid):
        return [
            make_request(small_grid, index=0, client=0, activities=(0,)),
            make_request(small_grid, index=1, client=1, activities=(0, 1)),
        ]

    def stack(self, provider, requests):
        return np.stack([provider.mapping_ecc_row(r) for r in requests])

    def test_matches_rows_bitwise(self, small_grid, provider):
        requests = self.requests(small_grid)
        np.testing.assert_array_equal(
            provider.mapping_ecc_matrix(requests), self.stack(provider, requests)
        )

    def test_empty_batch(self, small_grid, provider):
        assert provider.mapping_ecc_matrix([]).shape == (0, 3)

    def test_task_index_validated(self, small_grid, provider):
        with pytest.raises(ConfigurationError):
            provider.mapping_ecc_matrix([make_request(small_grid, index=9)])

    @pytest.mark.parametrize("infeasible", list(InfeasiblePolicy))
    def test_matches_rows_under_constraint(self, small_grid, infeasible):
        # Cap at 1: client 0 has no feasible machine (TC row [2, 2, 3]) so
        # the infeasible policy kicks in; client 1 (TC row [1, 1, 3]) keeps
        # a partially-masked row.
        provider = CostProvider(
            grid=small_grid,
            eec=np.array([[10.0, 20.0, 30.0], [5.0, 5.0, 5.0]]),
            policy=TrustPolicy.aware(),
            constraint=TrustConstraint(max_trust_cost=1, infeasible=infeasible),
        )
        requests = self.requests(small_grid)
        matrix = provider.mapping_ecc_matrix(requests)
        np.testing.assert_array_equal(matrix, self.stack(provider, requests))
        if infeasible is InfeasiblePolicy.REJECT:
            assert not np.isfinite(matrix[0]).any()
        else:
            assert np.isfinite(matrix[0]).all()

    def test_matches_rows_with_exclusions_and_override(self, small_grid, provider):
        requests = self.requests(small_grid)
        provider.exclude(0, 1)
        small_grid.trust_table.set(0, 0, 0, "E")
        provider.invalidate_trust_cache(0)
        matrix = provider.mapping_ecc_matrix(requests)
        np.testing.assert_array_equal(matrix, self.stack(provider, requests))
        assert np.isinf(matrix[0, 1])

    def test_matrix_is_writable_and_detached(self, small_grid, provider):
        requests = self.requests(small_grid)
        matrix = provider.mapping_ecc_matrix(requests)
        matrix[:] = -1.0  # callers may scribble on their copy
        np.testing.assert_array_equal(
            provider.mapping_ecc_matrix(requests), self.stack(provider, requests)
        )

    def test_counts_rows_served_and_tc_computed(self, small_grid):
        metrics = MetricsRegistry(enabled=True)
        provider = CostProvider(
            grid=small_grid,
            eec=np.array([[10.0, 20.0, 30.0], [5.0, 5.0, 5.0]]),
            policy=TrustPolicy.aware(),
            metrics=metrics,
        )
        # Two requests sharing one pricing key: 2 rows served, 1 TC row.
        requests = [
            make_request(small_grid, index=0, client=0, activities=(0,)),
            make_request(small_grid, index=1, client=0, activities=(0,)),
        ]
        provider.mapping_ecc_matrix(requests)
        assert metrics.counter("costs.ecc_rows").value == 2
        assert metrics.counter("costs.tc_rows").value == 1
        provider.mapping_ecc_matrix(requests)
        assert metrics.counter("costs.ecc_rows").value == 4
        assert metrics.counter("costs.tc_rows").value == 1  # cache hit
