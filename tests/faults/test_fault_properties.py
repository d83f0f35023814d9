"""Property-based invariants of scheduling under injected failures.

Fault injection re-enqueues work mid-run (retries, repair chains), which is
exactly where a DES breaks if anything schedules into the past.  These
properties fuzz fault regimes through both scheduler modes and assert the
ordering contract: no :class:`~repro.errors.EventOrderError` is ever
raised, traced simulation time is monotone, and every request settles
exactly once — completed, rejected, or dropped.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.model import (
    FaultModel,
    MachineFailureModel,
    TaskFailureModel,
)
from repro.faults.retry import RetryPolicy
from repro.scheduling.mct import MctHeuristic
from repro.scheduling.minmin import MinMinHeuristic
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.scheduler import TRMScheduler
from repro.sim.trace import Tracer
from repro.workloads.scenario import ScenarioSpec, materialize

fault_params = st.fixed_dictionaries(
    {
        "n_tasks": st.integers(min_value=1, max_value=15),
        "n_machines": st.integers(min_value=2, max_value=5),
        "seed": st.integers(min_value=0, max_value=10_000),
        "crash_prob": st.floats(min_value=0.0, max_value=0.7),
        "weibull_shape": st.one_of(
            st.none(), st.floats(min_value=0.5, max_value=4.0)
        ),
        "machine_faults": st.booleans(),
        "mtbf": st.floats(min_value=30.0, max_value=500.0),
        "mttr": st.floats(min_value=5.0, max_value=100.0),
        "max_attempts": st.integers(min_value=1, max_value=4),
        "backoff_base": st.floats(min_value=0.0, max_value=20.0),
        "batch": st.booleans(),
    }
)


def run_case(params):
    scenario = materialize(
        ScenarioSpec(
            n_tasks=params["n_tasks"],
            n_machines=params["n_machines"],
            target_load=3.0,
        ),
        seed=params["seed"],
    )
    model = FaultModel(
        tasks=TaskFailureModel(
            default_crash_prob=params["crash_prob"],
            weibull_shape=params["weibull_shape"],
        ),
        machines=(
            MachineFailureModel(mtbf=params["mtbf"], mttr=params["mttr"])
            if params["machine_faults"]
            else None
        ),
    )
    retry = RetryPolicy(
        max_attempts=params["max_attempts"],
        backoff_base=params["backoff_base"],
    )
    tracer = Tracer()
    scheduler = TRMScheduler(
        scenario.grid,
        scenario.eec,
        TrustPolicy.aware(),
        MinMinHeuristic() if params["batch"] else MctHeuristic(),
        batch_interval=200.0 if params["batch"] else None,
        faults=FaultInjector(model, rng=params["seed"]),
        retry=retry,
        tracer=tracer,
    )
    return scheduler.run(scenario.requests), tracer


@settings(max_examples=60, deadline=None)
@given(fault_params)
def test_faults_never_violate_des_ordering(params):
    # run_case raising EventOrderError (or anything else) fails the property.
    result, tracer = run_case(params)

    # Traced simulation time is monotone: no handler ever ran in the past.
    times = [entry.time for entry in tracer]
    assert all(a <= b for a, b in zip(times, times[1:]))

    # Every request settles exactly once.
    n = params["n_tasks"]
    completed = {r.request_index for r in result.records}
    assert len(completed) == len(result.records)
    assert completed.isdisjoint(result.dropped)
    assert completed.isdisjoint(result.rejected)
    assert completed | set(result.dropped) | set(result.rejected) == set(range(n))

    # Attempts respect the retry budget, failures precede their retries.
    for rec in result.records:
        assert 1 <= rec.attempt <= params["max_attempts"]
    for f in result.failures:
        assert f.start_time <= f.failure_time
        assert f.wasted_work >= 0.0
    assert len(result.failures) + len(result.records) == (
        result.n_completed + len(result.failures)
    )


@settings(max_examples=25, deadline=None)
@given(fault_params)
def test_fault_runs_are_reproducible(params):
    a, _ = run_case(params)
    b, _ = run_case(params)
    assert a.records == b.records
    assert a.failures == b.failures
    assert a.dropped == b.dropped
