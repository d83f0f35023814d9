"""Tests for repro.grid.topology (Grid + GridBuilder)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ets import EtsTable
from repro.errors import ConfigurationError
from repro.grid.activities import ActivityCatalog, ActivitySet
from repro.grid.request import Request, Task
from repro.grid.topology import GridBuilder
from repro.obs.metrics import MetricsRegistry
from repro.scheduling.costs import CostProvider
from repro.scheduling.policy import TrustPolicy


def first_activity(k):
    """Activity masks of ``k`` keys whose ToA set is activity 0 of three."""
    masks = np.zeros((k, 3), dtype=bool)
    masks[:, 0] = True
    return masks


def scalar_tc(grid, cd, acts):
    """Per-machine TC from the table's scalar pricing, with no memo."""
    return np.array(
        [
            grid.trust_table.trust_cost(
                cd, int(rd), acts, int(max(grid.cd_required[cd], grid.rd_required[rd]))
            )
            for rd in grid.machine_rd
        ]
    )


def make_request(grid, index, client):
    task = Task(index=index, activities=ActivitySet.of([grid.catalog.by_index(0)]))
    return Request(index=index, client=grid.clients[client], task=task, arrival_time=0.0)


class TestGridBuilder:
    def test_small_grid_shape(self, small_grid):
        assert small_grid.n_machines == 3
        assert len(small_grid.client_domains) == 2
        assert len(small_grid.resource_domains) == 2
        assert small_grid.trust_table.shape == (2, 2, 3)

    def test_index_arrays(self, small_grid):
        assert small_grid.machine_rd.tolist() == [0, 0, 1]
        assert small_grid.client_cd.tolist() == [0, 1]
        assert small_grid.rd_required.tolist() == [2, 4]  # B, D
        assert small_grid.cd_required.tolist() == [3, 1]  # C, A

    def test_build_requires_both_domain_kinds(self):
        builder = GridBuilder(ActivityCatalog.default(2))
        gd = builder.grid_domain("x")
        builder.resource_domain(gd, required_level="A")
        with pytest.raises(ConfigurationError):
            builder.build()

    def test_empty_catalog_rejected(self):
        with pytest.raises(ConfigurationError):
            GridBuilder(ActivityCatalog([]))

    def test_grid_needs_machines_and_clients(self):
        builder = GridBuilder(ActivityCatalog.default(2))
        gd = builder.grid_domain("x")
        builder.resource_domain(gd, required_level="A")
        builder.client_domain(gd, required_level="A")
        with pytest.raises(ConfigurationError, match="machine"):
            builder.build()

    def test_custom_ets_passed_to_table(self):
        builder = GridBuilder(ActivityCatalog.default(1))
        gd = builder.grid_domain("x")
        rd = builder.resource_domain(gd, required_level="A")
        cd = builder.client_domain(gd, required_level="A")
        builder.machine(rd)
        builder.client(cd)
        grid = builder.build(ets=EtsTable(f_forces_max=False))
        assert grid.trust_table.ets.f_forces_max is False

    def test_rd_defaults_to_full_catalog(self):
        catalog = ActivityCatalog.default(3)
        builder = GridBuilder(catalog)
        gd = builder.grid_domain("x")
        rd = builder.resource_domain(gd, required_level="A")
        assert rd.supported_activities == frozenset(catalog)


class TestGridQueries:
    def test_required_per_rd_is_pairwise_max(self, small_grid):
        # cd0 requires C(3); RDs require B(2) and D(4).
        assert small_grid.required_per_rd(0).tolist() == [3, 4]
        # cd1 requires A(1).
        assert small_grid.required_per_rd(1).tolist() == [2, 4]

    def test_required_per_rd_bounds(self, small_grid):
        with pytest.raises(ConfigurationError):
            small_grid.required_per_rd(2)

    def test_trust_cost_matrix_expands_rds(self, small_grid):
        # Set OTLs: cd0 x rd0 -> E, cd0 x rd1 -> A for activity 0.
        small_grid.trust_table.set(0, 0, 0, "E")
        small_grid.trust_table.set(0, 1, 0, "A")
        costs = small_grid.trust_cost_matrix(np.array([0]), first_activity(1))
        # machines 0,1 in rd0: RTL=C(3) vs OTL E(5) -> 0; machine 2 in rd1:
        # RTL=D(4) vs OTL A(1) -> 3.
        assert costs.tolist() == [[0, 0, 3]]

    def test_trust_cost_matrix_cd_bounds(self, small_grid):
        for cd in (-1, 2):
            with pytest.raises(ConfigurationError, match="client domain"):
                small_grid.trust_cost_matrix(np.array([cd]), first_activity(1))

    def test_machine_rd_mapping_consistent(self, small_grid):
        for m in small_grid.machines:
            assert small_grid.machine_rd[m.index] == m.resource_domain.index


class TestTrustCostMemoRetention:
    """``Grid`` reads the table as it stands; the one trust-cost memo lives
    in :class:`CostProvider`, checked against each CD's epoch.  Publishes
    to one CD must not evict the other CDs' priced rows."""

    def provider(self, grid):
        metrics = MetricsRegistry(enabled=True)
        provider = CostProvider(
            grid=grid, eec=np.ones((2, 3)), policy=TrustPolicy.aware(), metrics=metrics
        )
        return provider, metrics.counter("costs.tc_rows")

    def test_foreign_cd_publish_keeps_rows_cached(self, small_grid):
        provider, tc_rows = self.provider(small_grid)
        cd0 = make_request(small_grid, index=0, client=0)
        cd1 = make_request(small_grid, index=1, client=1)
        row0 = provider.trust_cost_row(cd0)
        provider.trust_cost_row(cd1)
        assert tc_rows.value == 2
        small_grid.trust_table.set(1, 0, 0, "E")  # CD 1 only
        assert provider.trust_cost_row(cd0) is row0
        assert tc_rows.value == 2
        # CD 1's row re-prices to the published level.
        assert np.array_equal(provider.trust_cost_row(cd1), scalar_tc(small_grid, 1, [0]))
        assert tc_rows.value == 3

    def test_own_cd_publish_reprices_exactly(self, small_grid):
        before = small_grid.trust_cost_matrix(np.array([0]), first_activity(1))
        small_grid.trust_table.set(0, 0, 0, "E")
        (after,) = small_grid.trust_cost_matrix(np.array([0]), first_activity(1))
        assert not np.array_equal(before[0], after)
        # The repriced row matches a memo-free scalar recompute.
        assert np.array_equal(after, scalar_tc(small_grid, 0, [0]))

    def test_matrix_rows_survive_foreign_publishes(self, small_grid):
        provider, tc_rows = self.provider(small_grid)
        requests = [
            make_request(small_grid, index=0, client=0),
            make_request(small_grid, index=1, client=0),
        ]
        before = provider.mapping_ecc_matrix(requests)
        assert tc_rows.value == 1
        small_grid.trust_table.set(1, 0, 0, "E")  # CD 1: not in the key
        after = provider.mapping_ecc_matrix(requests)
        assert tc_rows.value == 1
        assert np.array_equal(before, after)
        small_grid.trust_table.set(0, 0, 0, "E")  # CD 0: must reprice
        repriced = provider.mapping_ecc_matrix(requests)
        assert tc_rows.value == 2
        assert not np.array_equal(before, repriced)
        tc = np.stack([scalar_tc(small_grid, 0, [0])] * 2)
        assert np.array_equal(
            small_grid.trust_cost_matrix(np.array([0, 0]), first_activity(2)), tc
        )
        assert np.array_equal(
            repriced, TrustPolicy.aware().mapping_ecc(np.ones((2, 3)), tc)
        )


LEVELS = "ABCDEF"


@st.composite
def pricing_cases(draw):
    """A random grid (RTLs, machine→RD map, levels, ETS variant) and keys."""
    n_act = draw(st.integers(1, 4))
    cd_rtl = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3))
    rd_rtl = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3))
    machine_rd = draw(
        st.lists(st.integers(0, len(rd_rtl) - 1), min_size=1, max_size=5)
    )
    f_forces_max = draw(st.booleans())
    builder = GridBuilder(ActivityCatalog.default(n_act))
    gd = builder.grid_domain("site")
    rds = [builder.resource_domain(gd, required_level=level) for level in rd_rtl]
    for rd in machine_rd:
        builder.machine(rds[rd])
    for level in cd_rtl:
        builder.client(builder.client_domain(gd, required_level=level))
    grid = builder.build(ets=EtsTable(f_forces_max=f_forces_max))
    seed = draw(st.integers(0, 2**32 - 1))
    levels = np.random.default_rng(seed).integers(
        1, 6, size=(len(cd_rtl), len(rd_rtl), n_act)
    )
    grid.trust_table.fill_from(levels)
    key = st.tuples(
        st.integers(0, len(cd_rtl) - 1),
        st.sets(st.integers(0, n_act - 1), min_size=1),
    )
    keys = draw(st.lists(key, min_size=1, max_size=6))
    # Duplicate keys in one call must price identically.
    keys += draw(st.lists(st.sampled_from(keys), max_size=2))
    rtl = {
        (cd, rd): max(LEVELS.index(a), LEVELS.index(b)) + 1
        for cd, a in enumerate(cd_rtl)
        for rd, b in enumerate(rd_rtl)
    }
    return grid, machine_rd, rtl, keys


@settings(max_examples=200, deadline=None)
@given(pricing_cases())
def test_trust_cost_matrix_equals_scalar_oracle(case):
    """Every cell is ``trust_cost(cd, rd, acts, max(cd RTL, rd RTL))``."""
    grid, machine_rd, rtl, keys = case
    masks = np.zeros((len(keys), len(grid.catalog)), dtype=bool)
    for i, (_cd, acts) in enumerate(keys):
        masks[i, sorted(acts)] = True
    got = grid.trust_cost_matrix(np.array([cd for cd, _ in keys]), masks)
    assert got.shape == (len(keys), len(machine_rd))
    for i, (cd, acts) in enumerate(keys):
        for m, rd in enumerate(machine_rd):
            want = grid.trust_table.trust_cost(cd, rd, sorted(acts), rtl[cd, rd])
            assert got[i, m] == want, (i, m)
