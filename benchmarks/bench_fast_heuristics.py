"""Performance bench — scalar oracle loops vs the registered batch kernels.

Measures the planning throughput of the Min-min and Sufferage oracle
loops against the production kernels their registry names build, on a
large meta-request, per the HPC guides' "measure, don't guess" rule.  The
equivalence of the produced plans is asserted in-line (and property-tested
in the test suite).
"""

from functools import partial

import numpy as np
import pytest

from conftest import save_and_echo

from repro.metrics.report import Table
from repro.scheduling.costs import CostProvider
from repro.scheduling.minmin import greedy_min_completion_plan
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.registry import make_heuristic
from repro.scheduling.sufferage import sufferage_reference_plan
from repro.workloads.scenario import ScenarioSpec, materialize

N_TASKS = 300
N_MACHINES = 16

ORACLES = {
    "min-min": partial(greedy_min_completion_plan, prefer_max=False),
    "sufferage": sufferage_reference_plan,
}


@pytest.fixture(scope="module")
def big_batch():
    spec = ScenarioSpec(n_tasks=N_TASKS, n_machines=N_MACHINES, target_load=3.0)
    scenario = materialize(spec, seed=0)
    costs = CostProvider(
        grid=scenario.grid, eec=scenario.eec, policy=TrustPolicy.aware()
    )
    return list(scenario.requests), costs, np.zeros(N_MACHINES)


@pytest.mark.parametrize("kind", ["oracle", "production"])
@pytest.mark.parametrize("name", list(ORACLES))
def test_batch_planning_speed(benchmark, big_batch, name, kind):
    requests, costs, avail = big_batch
    plan = ORACLES[name] if kind == "oracle" else make_heuristic(name).plan
    planned = benchmark(lambda: plan(requests, costs, avail.copy()))
    assert len(planned) == N_TASKS


def test_fast_paths_match_reference(benchmark, big_batch, results_dir):
    requests, costs, avail = big_batch

    def compare_all():
        rows = []
        for name, oracle in ORACLES.items():
            ref = oracle(requests, costs, avail.copy())
            fast = make_heuristic(name).plan(requests, costs, avail.copy())
            identical = [(p.request.index, p.machine_index) for p in ref] == [
                (p.request.index, p.machine_index) for p in fast
            ]
            rows.append((name, type(make_heuristic(name)).__name__, identical))
        return rows

    rows = benchmark.pedantic(compare_all, rounds=1, iterations=1)
    assert all(identical for *_names, identical in rows)

    table = Table(
        headers=["Registry name", "Production kernel", "Plans identical"],
        title=f"Oracle loops vs production kernels, {N_TASKS} tasks x {N_MACHINES} machines.",
    )
    for row in rows:
        table.add_row(*row)
    save_and_echo(results_dir, "fast_heuristics", table.render())
