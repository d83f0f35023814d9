"""Golden tie-break tests: the heuristics' deterministic tie resolution.

The registered batch heuristics run production kernels proven
bit-identical to the scalar oracle loops, which makes the oracles'
tie-breaks load-bearing API: if they drift, every equivalence proof and every frozen
table drifts with them.  These tests pin the documented contracts on
hand-built, tie-rich cost matrices with *literal* expected plans (derived
by hand from the contracts — see the inline walk-throughs):

* a row's best machine is the **lowest-index** argmin;
* among requests tied on the decisive value, the **lowest original
  position** wins (Min-min/Max-min selection, Sufferage claims — where a
  claim is only replaced by a *strictly* larger sufferage);
* Sufferage commits surviving claims in **ascending machine order**;
* KPB admits boundary-tied machines **lowest-index first** (stable
  selection) and breaks completion ties by candidate order.

For the batch heuristics both the production kernel and its oracle loop
are held to the same literals.
"""

import hashlib
from functools import partial

import numpy as np
import pytest

from repro.grid.activities import ActivitySet
from repro.grid.request import Request, Task
from repro.scheduling.costs import CostProvider
from repro.scheduling.kpb import KpbHeuristic, kpb_subset_size
from repro.scheduling.maxmin import MaxMinHeuristic
from repro.scheduling.minmin import MinMinHeuristic
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.registry import make_heuristic
from repro.scheduling.sufferage import SufferageHeuristic
from repro.workloads.scenario import ScenarioSpec, materialize
from tests.scheduling.oracles import OracleHeuristic

# With the trust-unaware policy the mapping cost is EEC * 1.5 everywhere,
# so the tie structure below is exactly the tie structure the heuristics
# see (ECC rows: t0 [3,3,6], t1 [3,6,3], t2 [6,3,3], t3 [3,3,3],
# t4 [12,12,12]).
EEC = np.array(
    [
        [2.0, 2.0, 4.0],
        [2.0, 4.0, 2.0],
        [4.0, 2.0, 2.0],
        [2.0, 2.0, 2.0],
        [8.0, 8.0, 8.0],
    ]
)


@pytest.fixture
def tie_case(small_grid):
    requests = [
        Request(
            index=i,
            client=small_grid.clients[0],
            task=Task(
                index=i,
                activities=ActivitySet.of([small_grid.catalog.by_index(0)]),
            ),
            arrival_time=0.0,
        )
        for i in range(EEC.shape[0])
    ]
    costs = CostProvider(grid=small_grid, eec=EEC, policy=TrustPolicy.unaware())
    return requests, costs


def as_tuples(plan):
    return [(p.request.index, p.machine_index, p.order) for p in plan]


@pytest.mark.parametrize(
    "Heuristic", [MinMinHeuristic, partial(OracleHeuristic, "min-min")], ids=["MinMinHeuristic", "oracle"]
)
def test_min_min_tie_breaks(tie_case, Heuristic):
    # Round 1: t0..t3 all have best completion 3 -> lowest position t0,
    # whose lowest-index argmin is m0.  Round 2: t1/t2/t3 tie at 3 -> t1
    # on m2 (m0 now loaded).  Round 3: t2/t3 tie at 3 -> t2 on m1.
    # Round 4: t3's row is all-6 -> lowest-index m0.  t4 last.
    requests, costs = tie_case
    plan = Heuristic().plan(requests, costs, np.zeros(3))
    assert as_tuples(plan) == [
        (0, 0, 0),
        (1, 2, 1),
        (2, 1, 2),
        (3, 0, 3),
        (4, 1, 4),
    ]


@pytest.mark.parametrize(
    "Heuristic", [MaxMinHeuristic, partial(OracleHeuristic, "max-min")], ids=["MaxMinHeuristic", "oracle"]
)
def test_max_min_tie_breaks(tie_case, Heuristic):
    # Round 1: t4's best (12) dominates -> m0.  Rounds 2-3: the rest all
    # tie on best 3 -> lowest position wins each round (t0 on m1, t1 on
    # m2).  Round 4: t2/t3 tie at 6 -> t2 on m1.  Round 5: t3 on m2.
    requests, costs = tie_case
    plan = Heuristic().plan(requests, costs, np.zeros(3))
    assert as_tuples(plan) == [
        (4, 0, 0),
        (0, 1, 1),
        (1, 2, 2),
        (2, 1, 3),
        (3, 2, 4),
    ]


@pytest.mark.parametrize(
    "Heuristic", [SufferageHeuristic, partial(OracleHeuristic, "sufferage")], ids=["SufferageHeuristic", "oracle"]
)
def test_sufferage_tie_breaks(tie_case, Heuristic):
    # Iteration 1: every sufferage is 0; t0 claims m0 and keeps it against
    # t1/t3/t4 (ties never steal a claim), t2 claims m1; commits ascend by
    # machine (m0 then m1).  Iteration 2: t1/t3/t4 all suffer 3 for m2 ->
    # earliest claimant t1 keeps it.  Iteration 3: t3 beats t4 on m0's
    # claim (0 > 0 is false, t3 claims first).  Iteration 4: t4 on m1.
    requests, costs = tie_case
    plan = Heuristic().plan(requests, costs, np.zeros(3))
    assert as_tuples(plan) == [
        (0, 0, 0),
        (2, 1, 1),
        (1, 2, 2),
        (3, 0, 3),
        (4, 1, 4),
    ]


@pytest.mark.parametrize("Heuristic", [KpbHeuristic])
def test_kpb_tie_breaks(tie_case, Heuristic):
    # k=40% of 3 machines -> subset of 2, admitted in (cost, index) order.
    requests, costs = tie_case
    heuristic = Heuristic(40.0)
    avail = np.array([5.0, 0.0, 0.0])
    # t3 (all costs equal): candidates are the lowest-index pair [m0, m1];
    # completions [8, 3] -> m1.
    assert heuristic.choose(requests[3], costs, avail) == 1
    # t1 (costs [3, 6, 3]): boundary tie between m0 and m2 admits the
    # lowest index first -> candidates [m0, m2]; completions [8, 3] -> m2.
    assert heuristic.choose(requests[1], costs, avail) == 2
    # t0 on idle machines: candidates [m0, m1] tie at 3 -> first wins.
    assert heuristic.choose(requests[0], costs, np.zeros(3)) == 0


def test_kpb_subset_size_pinned():
    assert kpb_subset_size(3, 40.0) == 2
    assert kpb_subset_size(3, 100.0) == 3
    assert kpb_subset_size(16, 25.0) == 4
    assert kpb_subset_size(1, 10.0) == 1  # never empty


# -- large-scale hash goldens (n = 10⁴) ---------------------------------------
#
# At 10⁴ tasks the reference oracles are too slow to serve as in-test
# oracles, so the full assignment sequence is pinned as a sha256 over
# "request:machine" pairs instead: each registered kernel (proven
# bit-identical to its oracle at small n) must hit the literal digest.
# 10⁴ tasks exceed DEFAULT_CHUNK_TASKS, so the claim-queue Min-min streams
# two assembly chunks.  Any tie-break or float-path drift at scale — where
# value collisions are plentiful — changes the digest.

GOLDEN_SCALE_SPEC = dict(n_tasks=10_000, n_machines=16, seed=7)

GOLDEN_SCALE_HASHES = {
    "min-min": "cc5e08ec37bed4e8d130261818fa9ba63c9597748fcedddef602f876871523f1",
    "max-min": "03907d74e63654698f324c8ee6f6307fa8010440269cebc40d04bb4f93965fa4",
    "sufferage": "5220b5a580a9036a113f868b3c206d3d57629da6a8e959ec90dc19bb1fa1ad90",
}


def plan_digest(plan) -> str:
    payload = ",".join(f"{p.request.index}:{p.machine_index}" for p in plan)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def scale_case():
    spec = ScenarioSpec(
        n_tasks=GOLDEN_SCALE_SPEC["n_tasks"],
        n_machines=GOLDEN_SCALE_SPEC["n_machines"],
        target_load=3.0,
    )
    scenario = materialize(spec, seed=GOLDEN_SCALE_SPEC["seed"])
    costs = CostProvider(
        grid=scenario.grid, eec=scenario.eec, policy=TrustPolicy(True)
    )
    return list(scenario.requests), costs


@pytest.mark.parametrize("key", list(GOLDEN_SCALE_HASHES))
def test_scale_hash_goldens(scale_case, key):
    requests, costs = scale_case
    n_machines = GOLDEN_SCALE_SPEC["n_machines"]
    plan = make_heuristic(key).plan(requests, costs, np.zeros(n_machines))
    assert len(plan) == GOLDEN_SCALE_SPEC["n_tasks"]
    assert plan_digest(plan) == GOLDEN_SCALE_HASHES[key]
