"""The one-pass commit equals the per-row realised-cost oracle, byte for byte.

:meth:`CostProvider.realized_costs` prices a whole plan with one EEC gather
and one policy call; :func:`realized_ecc_row_oracle` prices each item from
its full per-machine rows.  Both run on twin providers brought into the same
state — fresh, degraded by a trust-plane outage, retry-dirty or holding a
retry fetch priced after trust evolved — so each path resolves its own
retry state.

The plane then recovers and agents keep publishing between calls: every TC
read through any accessor must equal a memo-free recompute from
:meth:`GridTrustTable.trust_cost` at that moment.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.activities import ActivityCatalog, ActivitySet
from repro.grid.request import Request, Task
from repro.grid.topology import GridBuilder
from repro.scheduling.constraints import InfeasiblePolicy, TrustConstraint
from repro.scheduling.costs import CostProvider
from repro.scheduling.esc_models import LadderEsc, LinearEsc, TableEsc
from repro.scheduling.policy import SecurityAccounting, TrustPolicy
from repro.trustfaults.model import TrustQueryConfig, TrustSourceFault
from repro.trustfaults.query import ResilientTrustSource
from tests.scheduling.oracles import realized_ecc_row_oracle

ESC_MODELS = (
    LinearEsc(),
    LinearEsc(7.5),
    TableEsc((0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.8)),
    LadderEsc(),
)
STATES = ("fresh", "degraded", "retry-dirty", "retry-fetched")
ACCESSORS = (
    "mapping_ecc_matrix",
    "mapping_ecc_row",
    "trust_cost_row",
    "realized_costs",
    "is_feasible",
)
#: The plane is down from t=0 until OUTAGE_END, then answers again.
OUTAGE_END = 1e6
LEVELS = "ABCDE"
N_MACHINES = 3
N_ACTIVITIES = 3


def policy_for(kind: str, esc_model) -> TrustPolicy:
    if kind == "aware":
        return TrustPolicy.aware(esc_model=esc_model)
    accounting = (
        SecurityAccounting.CONSERVATIVE_FLAT
        if kind == "unaware-flat"
        else SecurityAccounting.PAIR_REALIZED
    )
    return TrustPolicy.unaware(accounting=accounting, esc_model=esc_model)


def build_grid():
    """2 RDs (3 machines), 2 CDs (2 clients), 3 ToAs — a fresh trust table."""
    catalog = ActivityCatalog(["execute", "store", "print"])
    builder = GridBuilder(catalog)
    gd_a = builder.grid_domain("site-a")
    gd_b = builder.grid_domain("site-b")
    rd0 = builder.resource_domain(gd_a, required_level="B")
    rd1 = builder.resource_domain(gd_b, required_level="D")
    builder.machine(rd0)
    builder.machine(rd0)
    builder.machine(rd1)
    cd0 = builder.client_domain(gd_a, required_level="C")
    cd1 = builder.client_domain(gd_b, required_level="A")
    builder.client(cd0)
    builder.client(cd1)
    return builder.build()


@st.composite
def scenarios(draw):
    n_tasks = draw(st.integers(1, 4))
    eec = np.array(
        draw(
            st.lists(
                st.floats(0.5, 1e4, allow_nan=False),
                min_size=n_tasks * N_MACHINES,
                max_size=n_tasks * N_MACHINES,
            )
        )
    ).reshape(n_tasks, N_MACHINES)
    items = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_tasks - 1),  # task
                st.integers(0, 1),  # client
                st.sets(st.integers(0, N_ACTIVITIES - 1), min_size=1),
                st.integers(0, N_MACHINES - 1),  # machine
                st.sampled_from(STATES),
            ),
            min_size=1,
            max_size=10,
        )
    )
    # Trust evolving after the shared rows were priced: (cd, rd, activity, level).
    publishes = st.lists(
        st.tuples(
            st.integers(0, 1),
            st.integers(0, 1),
            st.integers(0, N_ACTIVITIES - 1),
            st.sampled_from(LEVELS),
        ),
        max_size=4,
    )
    evolution = draw(publishes)
    # After recovery: publishes between calls, each call one accessor
    # (row accessors read the request at ``pick``).
    steps = draw(
        st.lists(
            st.tuples(publishes, st.sampled_from(ACCESSORS), st.integers(0, 9)),
            max_size=6,
        )
    )
    cap = draw(st.integers(0, 6))
    return eec, items, evolution, steps, cap


def prepared(policy, eec, items, evolution, cap):
    """A provider behind a trust plane that is down, in the scenario's state."""
    grid = build_grid()
    source = ResilientTrustSource(
        grid,
        fault=TrustSourceFault(outages=((0.0, OUTAGE_END),)),
        config=TrustQueryConfig(),
    )
    provider = CostProvider(
        grid=grid,
        eec=eec,
        policy=policy,
        constraint=TrustConstraint(cap, InfeasiblePolicy.REJECT),
        trust_source=source,
    )
    requests = [
        Request(
            index=i,
            client=grid.clients[client],
            task=Task(
                index=task,
                activities=ActivitySet.of([grid.catalog.by_index(a) for a in acts]),
            ),
            arrival_time=0.0,
        )
        for i, (task, client, acts, _machine, _state) in enumerate(items)
    ]
    states = [item[4] for item in items]
    for request, state in zip(requests, states):
        if state == "degraded":
            provider.mapping_ecc_row(request)  # the plane refuses: degraded
    for request in requests:
        provider.trust_cost_row(request)  # shared rows at the old levels
    for cd, rd, activity, level in evolution:
        grid.trust_table.set(cd, rd, activity, level)
    for request, state in zip(requests, states):
        if state.startswith("retry"):
            provider.invalidate_trust_cache(request.index)
        if state == "retry-fetched":
            provider.trust_cost_row(request)  # fetched at the new levels
    return provider, requests


def fresh_tc(grid, request):
    """The request's TC row from the table's scalar pricing, with no memo."""
    cd = request.client_domain_index
    acts = request.task.activities.indices
    required = grid.required_per_rd(cd)
    return np.array(
        [
            grid.trust_table.trust_cost(cd, int(rd), acts, int(required[rd]))
            for rd in grid.machine_rd
        ],
        dtype=np.float64,
    )


def fresh_mapping_row(provider, request):
    tc = fresh_tc(provider.grid, request)
    row = provider.policy.mapping_ecc(provider.eec_row(request), tc)
    return provider.constraint.apply(row, tc)


def check_reads_track_publishes(provider, requests, machines, steps):
    """Publish, then read through one accessor; compare to a recompute."""
    grid = provider.grid
    provider.trust_source.advance(2 * OUTAGE_END)  # the plane has recovered
    for publishes, accessor, pick in steps:
        for cd, rd, activity, level in publishes:
            grid.trust_table.set(cd, rd, activity, level)
        request = requests[pick % len(requests)]
        if accessor == "mapping_ecc_matrix":
            want = np.stack([fresh_mapping_row(provider, r) for r in requests])
            got = provider.mapping_ecc_matrix(requests)
        elif accessor == "mapping_ecc_row":
            want = fresh_mapping_row(provider, request)
            got = provider.mapping_ecc_row(request)
        elif accessor == "trust_cost_row":
            want = fresh_tc(grid, request)
            got = provider.trust_cost_row(request)
        elif accessor == "realized_costs":
            degraded = provider.degraded_requests
            eec, cost, tc = provider.realized_costs(requests, machines)
            want = np.array([fresh_tc(grid, r)[m] for r, m in zip(requests, machines)])
            assert tc.tobytes() == want.tobytes()
            live = [r.index not in degraded for r in requests]
            want = provider.policy.realized_ecc(eec[live], want[live])
            got = cost[live]
        else:
            want = provider.constraint.feasible_mask(fresh_tc(grid, request)).any()
            got = provider.is_feasible(request)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), accessor


@settings(max_examples=150, deadline=None)
@given(
    scenario=scenarios(),
    kind=st.sampled_from(("aware", "unaware-flat", "unaware-pair")),
    esc_model=st.sampled_from(ESC_MODELS),
)
def test_realized_costs_equal_the_per_row_oracle(scenario, kind, esc_model):
    eec, items, evolution, steps, cap = scenario
    policy = policy_for(kind, esc_model)
    machines = [item[3] for item in items]
    fast, fast_requests = prepared(policy, eec, items, evolution, cap)
    slow, slow_requests = prepared(policy, eec, items, evolution, cap)
    degraded = {i for i, item in enumerate(items) if item[4] == "degraded"}
    assert fast.degraded_requests == slow.degraded_requests == degraded

    got_eec, got_cost, got_tc = fast.realized_costs(fast_requests, machines)

    want_cost = np.array(
        [realized_ecc_row_oracle(slow, r)[m] for r, m in zip(slow_requests, machines)]
    )
    want_eec = np.array([slow.eec_row(r)[m] for r, m in zip(slow_requests, machines)])
    want_tc = np.array(
        [slow.trust_cost_row(r)[m] for r, m in zip(slow_requests, machines)]
    )
    assert got_eec.tobytes() == want_eec.tobytes()
    assert got_cost.tobytes() == want_cost.tobytes()
    assert got_tc.tobytes() == want_tc.tobytes()

    check_reads_track_publishes(fast, fast_requests, machines, steps)


class TestRefusals:
    def request(self, grid, task=0):
        return Request(
            index=0,
            client=grid.clients[0],
            task=Task(index=task, activities=ActivitySet.of([grid.catalog.by_index(0)])),
            arrival_time=0.0,
        )

    def test_negative_trust_cost_still_raises(self, monkeypatch):
        grid = build_grid()
        provider = CostProvider(grid, np.ones((1, N_MACHINES)), TrustPolicy.aware())
        monkeypatch.setattr(
            grid,
            "trust_cost_matrix",
            lambda cds, masks: np.full((len(cds), N_MACHINES), -1),
        )
        with pytest.raises(ValueError, match="non-negative"):
            provider.realized_costs([self.request(grid)], [0])

    def test_task_index_is_bound_checked(self):
        from repro.errors import ConfigurationError

        grid = build_grid()
        provider = CostProvider(grid, np.ones((1, N_MACHINES)), TrustPolicy.aware())
        with pytest.raises(ConfigurationError, match="task index 3"):
            provider.realized_costs([self.request(grid, task=3)], [0])
