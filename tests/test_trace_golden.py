"""Trace and metrics goldens of two small fixed-seed runs.

Each run's JSONL trace and its metrics snapshot are hashed with SHA-256
and the digests are pinned, so a change to what a run does, what it
reports or in which order it reports it trips here, even where the
schedule stays the same.  Wall-clock readings (``*wall*`` and
``*latency_s*`` timers, except the trust source's simulated query
latency) are masked to their sample counts.

* a served chaos scenario: machine downtimes and task crashes with
  retries, a trust-table blackout, a token bucket, a bounded queue with
  deadlines and a backpressure latch, so every shed reason occurs;
* an immediate-mode MCT ``TRMScheduler.run`` whose ``on_complete`` hook
  evolves trust, so completion events interleave the arrivals and the
  prices of later arrivals depend on that order.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.experiments.config import paper_policies, paper_spec
from repro.faults.model import FaultModel, MachineFailureModel, TaskFailureModel
from repro.faults.retry import RetryPolicy
from repro.grid.behavior import BehaviorModel, StationaryBehavior
from repro.grid.feedback import TrustFeedback
from repro.obs import trace_to_jsonl_lines
from repro.obs.metrics import MetricsRegistry
from repro.scheduling import MctHeuristic, TRMScheduler
from repro.service import AdmissionPolicy, ServiceConfig, replay_scenario
from repro.sim.trace import Tracer
from repro.trustfaults.model import TrustFaultModel, TrustSourceFault
from repro.workloads.eec import Consistency
from repro.workloads.scenario import ScenarioSpec, materialize

#: The simulated query latency of the trust source: not a wall clock.
SIMULATED = frozenset({"trustq.latency_s"})


def digests(tracer: Tracer, metrics: MetricsRegistry) -> tuple[str, str]:
    """SHA-256 of the JSONL trace and of the masked metrics snapshot."""
    trace = "\n".join(trace_to_jsonl_lines(tracer)).encode()
    snapshot = metrics.snapshot()
    for name, entry in snapshot.items():
        if ("wall" in name or "latency" in name) and name not in SIMULATED:
            snapshot[name] = {"type": entry["type"], "count": entry["count"]}
    encoded = json.dumps(snapshot, sort_keys=True).encode()
    return hashlib.sha256(trace).hexdigest(), hashlib.sha256(encoded).hexdigest()


def test_served_chaos_trace_and_metrics_are_pinned():
    scenario = materialize(paper_spec(160, Consistency.INCONSISTENT), seed=42)
    metrics, tracer = MetricsRegistry(), Tracer()
    result = replay_scenario(
        scenario,
        "min-min",
        paper_policies()[0],
        batch_interval=150.0,
        config=ServiceConfig(
            admission=AdmissionPolicy(
                queue_capacity=15, rate=0.11, burst=6.0, deadline=2400.0
            ),
            backpressure_high=30,
        ),
        faults=FaultModel(
            tasks=TaskFailureModel(default_crash_prob=0.2),
            machines=MachineFailureModel(mtbf=2000.0, mttr=250.0),
        ),
        fault_seed=11,
        retry=RetryPolicy(max_attempts=3, backoff_base=45.0),
        trust_faults=TrustFaultModel(table=TrustSourceFault(blackout=True)),
        metrics=metrics,
        tracer=tracer,
    )
    # The scenario exercises what it claims to.
    assert result.shed == {
        "deadline-expired": 13,
        "shed-backpressure": 37,
        "shed-queue-full": 15,
        "shed-rate-limited": 10,
    }
    assert result.backpressure_engagements == 1
    assert len(result.schedule.failures) == 31
    assert result.schedule.n_dropped == 1
    assert digests(tracer, metrics) == (
        "415675c858f01e48223fb02f72fb8a08982b82c41ac248bc705d56b4591a7d78",
        "261b09ef6e0e03e4bfa8c5551cc9fc618079106d459ed3de8e85d42106564980",
    )


def test_immediate_run_with_completion_hook_is_pinned():
    scenario = materialize(
        ScenarioSpec(n_tasks=60, n_machines=4, target_load=1.5), seed=5
    )
    n_rd = scenario.grid.trust_table.shape[1]
    feedback = TrustFeedback(
        scenario.grid,
        BehaviorModel({rd: StationaryBehavior(mean=0.3 + 0.1 * rd) for rd in range(n_rd)}),
        np.random.default_rng(3),
    ).bind(scenario.requests)
    completions: list[float] = []

    def on_complete(record) -> None:
        completions.append(record.completion_time)
        feedback(record)

    metrics, tracer = MetricsRegistry(), Tracer()
    TRMScheduler(
        scenario.grid, scenario.eec, paper_policies()[0], MctHeuristic(),
        tracer=tracer, metrics=metrics, on_complete=on_complete,
    ).run(scenario.requests)
    last_arrival = max(r.arrival_time for r in scenario.requests)
    # Completions fire between arrivals, and trust evolved.
    assert sum(t < last_arrival for t in completions) == 38
    assert scenario.grid.trust_table.epoch == 16
    assert digests(tracer, metrics) == (
        "6d4d1d61ea5c865552cc8a787c1fa0e8a02a097ac301d44e9a99f3a0475ba843",
        "3e53675ace6d8eb565cd818595cdf5ad0358eb75dada6fbab726a315c7364992",
    )
