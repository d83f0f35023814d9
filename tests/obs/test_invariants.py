"""Observability invariant tests.

Two properties make the instrumentation trustworthy:

1. **Non-interference** — running with a disabled (or enabled) registry
   and tracer produces a :class:`ScheduleResult` bit-identical to an
   uninstrumented run: observation must never change the experiment.
2. **Trace faithfulness** — an enabled run's trace satisfies the request
   lifecycle invariants (arrival → assign → {complete | fail → retry |
   drop}, in time order) for every settled request.

Both are fuzzed over scenarios (with and without fault injection) via
hypothesis, mirroring the DES-ordering properties in ``tests/sim``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.model import FaultModel, MachineFailureModel, TaskFailureModel
from repro.faults.retry import RetryPolicy
from repro.obs.invariants import check_trace_lifecycle
from repro.obs.metrics import MetricsRegistry
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.registry import is_batch, make_heuristic
from repro.scheduling.scheduler import TRMScheduler
from repro.sim.trace import TraceEntry, Tracer
from repro.workloads.scenario import ScenarioSpec, materialize

case_params = st.fixed_dictionaries(
    {
        "n_tasks": st.integers(min_value=1, max_value=20),
        "n_machines": st.integers(min_value=2, max_value=5),
        "seed": st.integers(min_value=0, max_value=10_000),
        "heuristic": st.sampled_from(("mct", "olb", "min-min", "sufferage")),
        "crash_prob": st.sampled_from((0.0, 0.4, 0.8)),
        "machine_faults": st.booleans(),
    }
)


def run_case(params, *, tracer=None, metrics=None):
    """One scheduler run; instrumentation is the only varying input."""
    spec = ScenarioSpec(
        n_tasks=params["n_tasks"],
        n_machines=params["n_machines"],
        target_load=3.0,
    )
    scenario = materialize(spec, seed=params["seed"])
    model = FaultModel(
        tasks=(
            TaskFailureModel(default_crash_prob=params["crash_prob"])
            if params["crash_prob"] > 0
            else None
        ),
        machines=(
            MachineFailureModel(mtbf=500.0, mttr=50.0)
            if params["machine_faults"]
            else None
        ),
    )
    faulty = model.tasks is not None or model.machines is not None
    scheduler = TRMScheduler(
        scenario.grid,
        scenario.eec,
        TrustPolicy.aware(),
        make_heuristic(params["heuristic"]),
        batch_interval=300.0 if is_batch(params["heuristic"]) else None,
        tracer=tracer,
        metrics=metrics,
        faults=FaultInjector(model, rng=params["seed"]) if faulty else None,
        retry=RetryPolicy(max_attempts=3) if faulty else None,
    )
    return scheduler.run(scenario.requests)


def result_fingerprint(result):
    """Everything observable about a ScheduleResult, hashable-comparable."""
    return (
        result.heuristic,
        result.policy_label,
        result.records,
        result.rejected,
        tuple(sorted(result.rejection_reasons.items())),
        result.failures,
        result.dropped,
        tuple((s.busy_time, s.available_time) for s in result.machine_states),
    )


class TestNonInterference:
    @settings(max_examples=40, deadline=None)
    @given(case_params)
    def test_disabled_instrumentation_is_bit_identical(self, params):
        bare = run_case(params)
        disabled = run_case(
            params, tracer=Tracer.disabled(), metrics=MetricsRegistry.disabled()
        )
        assert result_fingerprint(bare) == result_fingerprint(disabled)

    @settings(max_examples=40, deadline=None)
    @given(case_params)
    def test_enabled_instrumentation_is_bit_identical(self, params):
        """Observation is passive: even *enabled* metrics and tracing must
        not perturb a single scheduling decision or RNG draw."""
        bare = run_case(params)
        observed = run_case(
            params, tracer=Tracer(), metrics=MetricsRegistry(enabled=True)
        )
        assert result_fingerprint(bare) == result_fingerprint(observed)

    def test_disabled_registry_records_nothing(self):
        params = {
            "n_tasks": 10, "n_machines": 3, "seed": 1,
            "heuristic": "mct", "crash_prob": 0.0, "machine_faults": False,
        }
        metrics = MetricsRegistry.disabled()
        run_case(params, metrics=metrics)
        assert metrics.snapshot() == {}

    @pytest.mark.parametrize("heuristic", ["min-min", "max-min", "sufferage"])
    def test_latency_histogram_named_by_heuristic(self, heuristic):
        """The mapping-latency histogram is keyed by the heuristic's name
        alone: each name runs one kernel, so there is no kernel label."""
        params = {
            "n_tasks": 8, "n_machines": 3, "seed": 2,
            "heuristic": heuristic, "crash_prob": 0.0, "machine_faults": False,
        }
        metrics = MetricsRegistry(enabled=True)
        run_case(params, metrics=metrics)
        snapshot = metrics.snapshot()
        name = f"sched.map_latency_s.{heuristic}"
        assert name in snapshot
        assert snapshot[name]["count"] >= 1
        assert not [key for key in snapshot if "kernel=" in key and "sched." in key]


class TestTraceLifecycle:
    @settings(max_examples=40, deadline=None)
    @given(case_params)
    def test_enabled_trace_satisfies_lifecycle(self, params):
        tracer = Tracer()
        result = run_case(params, tracer=tracer)
        violations = check_trace_lifecycle(
            tracer,
            completed=[r.request_index for r in result.records],
            rejected=result.rejected,
            dropped=result.dropped,
        )
        assert violations == []

    @settings(max_examples=40, deadline=None)
    @given(case_params)
    def test_every_request_settles_exactly_once(self, params):
        result = run_case(params)
        settled = (
            [r.request_index for r in result.records]
            + list(result.rejected)
            + list(result.dropped)
        )
        assert sorted(settled) == list(range(params["n_tasks"]))

    def test_metrics_account_for_every_settlement(self):
        params = {
            "n_tasks": 15, "n_machines": 3, "seed": 3,
            "heuristic": "mct", "crash_prob": 0.6, "machine_faults": False,
        }
        metrics = MetricsRegistry(enabled=True)
        result = run_case(params, metrics=metrics)
        snap = metrics.snapshot()
        assert snap["sched.completions"]["value"] == result.n_completed
        assert snap.get("sched.drops", {"value": 0})["value"] == result.n_dropped
        assert snap["faults.attempts"]["value"] >= result.n_completed
        if result.failures:
            injected = sum(
                data["value"]
                for name, data in snap.items()
                if name.startswith("faults.injected.")
            )
            assert injected == len(result.failures)


class TestCheckerCatchesBrokenTraces:
    """The checker itself must reject malformed traces, else the lifecycle
    property tests prove nothing."""

    def test_flags_time_disorder(self):
        trace = [
            TraceEntry(time=5.0, kind="arrival", detail={"request": 0}),
            TraceEntry(time=1.0, kind="assign", detail={"request": 0}),
        ]
        rules = {v.rule for v in check_trace_lifecycle(trace)}
        assert "time-order" in rules

    def test_flags_missing_arrival(self):
        trace = [TraceEntry(time=0.0, kind="assign", detail={"request": 0})]
        rules = {v.rule for v in check_trace_lifecycle(trace)}
        assert "no-arrival" in rules

    def test_flags_retry_without_failure(self):
        trace = [
            TraceEntry(time=0.0, kind="arrival", detail={"request": 0}),
            TraceEntry(time=1.0, kind="retry", detail={"request": 0}),
        ]
        rules = {v.rule for v in check_trace_lifecycle(trace)}
        assert "retry-after-failure" in rules

    def test_flags_unassigned_completion(self):
        trace = [TraceEntry(time=0.0, kind="arrival", detail={"request": 0})]
        violations = check_trace_lifecycle(trace, completed=[0])
        assert any(v.rule == "completed-assign" for v in violations)

    def test_flags_missing_terminal_entries(self):
        trace = [
            TraceEntry(time=0.0, kind="arrival", detail={"request": 0}),
            TraceEntry(time=0.0, kind="arrival", detail={"request": 1}),
        ]
        violations = check_trace_lifecycle(trace, rejected=[0], dropped=[1])
        rules = {v.rule for v in violations}
        assert {"rejected-reject", "dropped-drop"} <= rules

    def test_clean_trace_passes(self):
        trace = [
            TraceEntry(time=0.0, kind="arrival", detail={"request": 0}),
            TraceEntry(
                time=0.0, kind="assign",
                detail={"request": 0, "machine": 1, "completion": 2.0},
            ),
        ]
        assert check_trace_lifecycle(trace, completed=[0]) == []
