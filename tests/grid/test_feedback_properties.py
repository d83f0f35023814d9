"""Property: the journaled trust feedback loop is exact and refusals leave
no trace.

Random observation streams, with off-grid counterparts, out-of-range
satisfactions and stale (backdated) observations, are fed through a
Γ-blended ``AgentFleet`` whose internal table, recommender weights and
Grid table are journaled by a ``DurableTrustPlane`` (checkpointed, and
compacted, along the way).  Every observation the model refuses must
raise ``ConfigurationError`` and leave the live state and the journal
buffer as they were; every accepted one must survive
``DurableTrustPlane.recover`` exactly.

Observation times follow either one fleet-wide clock that never runs
backwards, as the simulator delivers completions, or one random clock per
(truster, trustee, context) pair, so an observation can be older than
*another* truster's opinion about the same trustee, which Ω cannot
average and a Γ agent refuses; a stale observation is dated before its
own pair's last transaction.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.journal import DurableTrustPlane, JournalConfig
from repro.errors import ConfigurationError
from repro.grid.activities import ActivityCatalog
from repro.grid.agents import AgentFleet
from repro.grid.trust_table import GridTrustTable

N_CD, N_RD, N_ACT = 3, 2, 2

observations = st.lists(
    st.tuples(
        st.sampled_from(["cd", "rd"]),
        st.integers(0, max(N_CD, N_RD) - 1),
        st.integers(-2, max(N_CD, N_RD) + 1),
        st.integers(0, N_ACT - 1),
        st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([-0.25, 1.25, math.nan]),
        ),
        st.integers(0, 3),
        st.booleans(),
        st.booleans(),
    ),
    max_size=40,
)

#: The same shape with every observation on the grid and well-formed, so
#: a stream is dense in clock refusals.
on_grid = st.lists(
    st.tuples(
        st.sampled_from(["cd", "rd"]),
        st.integers(0, max(N_CD, N_RD) - 1),
        st.integers(0, min(N_CD, N_RD) - 1),
        st.integers(0, N_ACT - 1),
        st.floats(0.0, 1.0),
        st.integers(0, 3),
        st.booleans(),
        st.booleans(),
    ),
    max_size=40,
)


def _state(fleet, plane):
    grid = fleet.grid_table
    return (
        list(fleet.internal_table.items()),
        fleet.internal_table.epoch,
        plane._writer.pending_bytes,
        grid.levels.tobytes(),
        grid.epoch,
        [grid.cd_epoch(cd) for cd in range(N_CD)],
        fleet.total_published(),
    )


def _pair_ids(side, agent, counterpart):
    if side == "cd":
        return f"cd:{agent}", f"rd:{counterpart}"
    return f"rd:{agent}", f"cd:{counterpart}"


def _refused(opinions, side, counterpart, satisfaction, time):
    n_other = N_RD if side == "cd" else N_CD
    if not 0 <= counterpart < n_other or not 0.0 <= satisfaction <= 1.0:
        return True
    # Every agent is Γ-blended: no opinion about the trustee in this
    # context, its own included, may be newer than the observation.
    return any(time < rec.last_transaction for rec in opinions.values())


@settings(max_examples=80, deadline=None)
@given(stream=st.one_of(observations, on_grid), shared_clock=st.booleans())
# cd:1's clock lags cd:0's: its observation of rd:0 predates cd:0's opinion.
@example(
    stream=[
        ("cd", 0, 0, 0, 0.9, 3, False, False),
        ("cd", 1, 0, 0, 0.2, 1, False, False),
    ],
    shared_clock=False,
)
def test_live_state_equals_recovered_and_refusals_leave_no_trace(
    stream, shared_clock, tmp_path_factory
):
    grid = GridTrustTable(N_CD, N_RD, N_ACT, initial_level="C")
    catalog = ActivityCatalog.default(N_ACT)
    fleet = AgentFleet.for_table(grid, gamma_weights=(0.7, 0.3))
    weights = fleet.cd_agents[0].engine.reputation.weights
    root = tmp_path_factory.mktemp("feedback") / "plane"
    plane = DurableTrustPlane.create(
        root, fleet.internal_table, weights, grid_table=grid,
        config=JournalConfig(min_compact_bytes=256),
    )
    clocks: dict = {}
    try:
        for side, agent, counterpart, k, satisfaction, tick, stale, checkpoint in stream:
            agents = fleet.cd_agents if side == "cd" else fleet.rd_agents
            agent %= len(agents)
            activity = catalog.by_index(k)
            truster, trustee = _pair_ids(side, agent, counterpart)
            clock = None if shared_clock else (truster, trustee, k)
            time = clocks[clock] = clocks.get(clock, 0.0) + tick
            prior = fleet.internal_table.get(truster, trustee, activity.context)
            if stale and prior is not None:
                time = prior.last_transaction - 1.0
            opinions = fleet.internal_table.opinions(trustee, activity.context)
            expect_refusal = _refused(opinions, side, counterpart, satisfaction, time)
            before = _state(fleet, plane)
            try:
                agents[agent].observe_transaction(counterpart, activity, satisfaction, time)
            except ConfigurationError:
                assert expect_refusal
                assert _state(fleet, plane) == before
            else:
                assert not expect_refusal
            if checkpoint:
                plane.checkpoint()
    finally:
        plane.close()
    recovered = DurableTrustPlane.recover(root)
    try:
        assert list(recovered.table.items()) == list(fleet.internal_table.items())
        assert recovered.table.epoch == fleet.internal_table.epoch
        assert recovered.grid_table.levels.tobytes() == grid.levels.tobytes()
        assert recovered.grid_table.epoch == grid.epoch
        assert [recovered.grid_table.cd_epoch(cd) for cd in range(N_CD)] == [
            grid.cd_epoch(cd) for cd in range(N_CD)
        ]
    finally:
        recovered.close()
