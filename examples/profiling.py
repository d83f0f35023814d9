#!/usr/bin/env python
"""Profiling a scheduling run: metrics, traces and the run manifest.

Wraps one Min-min run in a :class:`ProfiledRun`, which turns on the
metrics registry (counters, gauges, streaming histograms) and the event
tracer, then:

* prints the run report — every metric with count/mean/p50/p95/p99;
* writes the artifact bundle — ``manifest.json`` (config hash, seed,
  wall time, metric snapshot), ``trace.jsonl`` (one event per line) and
  ``trace.chrome.json`` (open it in ``chrome://tracing`` / Perfetto to
  see per-machine assignment tracks).

The same instrumentation left at its defaults costs nothing: disabled
registries hand out shared no-op instruments, and the invariant tests pin
that observed and unobserved runs produce bit-identical results.

Run:
    python examples/profiling.py [seed] [output_dir]
"""

import sys
import tempfile

from repro import (
    MetricsRegistry,
    ProfiledRun,
    ScenarioSpec,
    TRMScheduler,
    TrustPolicy,
    make_heuristic,
    materialize,
)


def main(seed: int = 1, output_dir: str | None = None) -> None:
    # 1. A Table-6-style scenario: Min-min in batch mode, moderately loaded.
    spec = ScenarioSpec(n_tasks=60, n_machines=5, target_load=3.0)
    scenario = materialize(spec, seed=seed)

    # 2. ProfiledRun bundles an *enabled* registry + tracer + wall clock.
    #    Hand its instruments to the scheduler; everything else is as usual.
    with ProfiledRun(name="minmin-demo", config=spec, seed=seed) as prof:
        result = TRMScheduler(
            scenario.grid,
            scenario.eec,
            TrustPolicy.aware(),
            make_heuristic("min-min"),
            batch_interval=300.0,
            metrics=prof.metrics,
            tracer=prof.tracer,
        ).run(scenario.requests)
        prof.record_result(result)

    # 3. The report: one row per metric, quantiles from streaming sketches.
    print(prof.report())

    # 4. Pull a single number straight off the registry: the p95 mapping
    #    latency of the Min-min planner, measured per batch.
    latency = prof.metrics.histogram("sched.map_latency_s.min-min")
    print(
        f"min-min mapping latency: p50 {latency.p50 * 1e6:.0f} us, "
        f"p95 {latency.p95 * 1e6:.0f} us over {latency.count} batches"
    )

    # 5. The artifact bundle — manifest + JSONL trace + Chrome trace.
    target = output_dir or tempfile.mkdtemp(prefix="repro-profile-")
    paths = prof.write_artifacts(target)
    print("artifacts:")
    for kind in sorted(paths):
        print(f"  {kind:>12}: {paths[kind]}")

    # A disabled registry is the default and is free: same class, no-op
    # instruments, and (pinned by tests/obs) bit-identical results.
    assert MetricsRegistry.disabled().snapshot() == {}


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 1,
        sys.argv[2] if len(sys.argv) > 2 else None,
    )
