"""Scheduler-level properties of the resilient trust plane.

Three acceptance properties:

1. **Transparency** — with a healthy :class:`ResilientTrustSource`
   installed (all trust-plane faults disabled), every ``ScheduleResult``
   is bit-identical to a run without the source (fuzzed via hypothesis,
   mirroring ``tests/obs/test_invariants.py``).
2. **Graceful fallback** — a 100 % trust-plane outage still completes the
   full Table-6 workload; the degraded aware run prices and pays exactly
   the blanket trust-unaware costs, so its schedule coincides with the
   trust-unaware scheduler's.
3. **Recovery** — rows re-priced after breaker recovery match fresh-trust
   pricing exactly (covered at provider level in test_degraded_costs and
   end-to-end here via a mid-run outage window run completing).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import PAPER_BATCH_INTERVAL, paper_spec
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.registry import is_batch, make_heuristic
from repro.scheduling.scheduler import TRMScheduler
from repro.trustfaults.breaker import BreakerState
from repro.trustfaults.model import TrustQueryConfig, TrustSourceFault
from repro.trustfaults.query import ResilientTrustSource
from repro.workloads import Consistency
from repro.workloads.scenario import ScenarioSpec, materialize

case_params = st.fixed_dictionaries(
    {
        "n_tasks": st.integers(min_value=1, max_value=16),
        "n_machines": st.integers(min_value=2, max_value=5),
        "seed": st.integers(min_value=0, max_value=10_000),
        "heuristic": st.sampled_from(("mct", "olb", "min-min", "sufferage")),
    }
)


def run_case(params, *, trust_source_for=None, fault=None, config=None):
    spec = ScenarioSpec(
        n_tasks=params["n_tasks"],
        n_machines=params["n_machines"],
        target_load=3.0,
    )
    scenario = materialize(spec, seed=params["seed"])
    source = None
    if trust_source_for is not None:
        source = ResilientTrustSource(
            scenario.grid, fault=fault, config=config
        )
    scheduler = TRMScheduler(
        scenario.grid,
        scenario.eec,
        TrustPolicy.aware(),
        make_heuristic(params["heuristic"]),
        batch_interval=300.0 if is_batch(params["heuristic"]) else None,
        trust_source=source,
    )
    return scheduler.run(scenario.requests), source


def result_fingerprint(result):
    """Everything observable about a ScheduleResult, hashable-comparable."""
    return (
        result.heuristic,
        result.records,
        result.rejected,
        tuple(sorted(result.rejection_reasons.items())),
        result.failures,
        result.dropped,
        tuple((s.busy_time, s.available_time) for s in result.machine_states),
    )


class TestTransparency:
    @settings(max_examples=40, deadline=None)
    @given(case_params)
    def test_healthy_source_is_bit_identical(self, params):
        bare, _ = run_case(params)
        fronted, source = run_case(params, trust_source_for="healthy")
        assert result_fingerprint(bare) == result_fingerprint(fronted)
        assert source.state is BreakerState.CLOSED

    @settings(max_examples=20, deadline=None)
    @given(case_params)
    def test_blackout_run_settles_every_request(self, params):
        result, source = run_case(
            params,
            trust_source_for="blackout",
            fault=TrustSourceFault(blackout=True),
            config=TrustQueryConfig(failure_threshold=1),
        )
        settled = (
            [r.request_index for r in result.records]
            + list(result.rejected)
            + list(result.dropped)
        )
        assert sorted(settled) == list(range(params["n_tasks"]))
        # Cost-blind heuristics (olb) may never query the plane at all;
        # whenever at least one query happened the breaker must have
        # tripped, since every query fails under a blackout (it may sit
        # HALF_OPEN when the clock already passed the cooldown).
        if source.breaker.state_dict()["transitions"]:
            assert source.state is not BreakerState.CLOSED


class TestTable6Fallback:
    def test_full_outage_completes_table6_workload(self):
        """100 % trust-plane outage: the full Table-6 workload (min-min,
        inconsistent LoLo, 50 tasks) completes via the trust-unaware
        fallback, and the degraded schedule coincides with the genuinely
        trust-unaware one (same blanket prices seen and paid)."""
        spec = paper_spec(50, Consistency.INCONSISTENT)
        scenario = materialize(spec, seed=0)
        source = ResilientTrustSource(
            scenario.grid,
            fault=TrustSourceFault(blackout=True),
            config=TrustQueryConfig(failure_threshold=1),
        )
        degraded = TRMScheduler(
            scenario.grid,
            scenario.eec,
            TrustPolicy.aware(),
            make_heuristic("min-min"),
            batch_interval=PAPER_BATCH_INTERVAL,
            trust_source=source,
        ).run(scenario.requests)
        assert degraded.n_completed == 50
        assert source.state is BreakerState.OPEN

        unaware = TRMScheduler(
            scenario.grid,
            scenario.eec,
            TrustPolicy.unaware(),
            make_heuristic("min-min"),
            batch_interval=PAPER_BATCH_INTERVAL,
        ).run(scenario.requests)
        assert degraded.records == unaware.records

    def test_mid_run_outage_recovers(self):
        """An outage window covering the first batches degrades early
        mappings only; the run completes and later batches see fresh
        trust again (the breaker closes)."""
        spec = paper_spec(50, Consistency.INCONSISTENT)
        scenario = materialize(spec, seed=1)
        horizon = max(r.arrival_time for r in scenario.requests)
        source = ResilientTrustSource(
            scenario.grid,
            fault=TrustSourceFault(outages=((0.0, horizon * 0.25),)),
            config=TrustQueryConfig(failure_threshold=1, cooldown=1.0),
        )
        result = TRMScheduler(
            scenario.grid,
            scenario.eec,
            TrustPolicy.aware(),
            make_heuristic("min-min"),
            batch_interval=PAPER_BATCH_INTERVAL,
            trust_source=source,
        ).run(scenario.requests)
        assert result.n_completed == 50
        assert source.state is BreakerState.CLOSED
