#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the trust-aware RMS.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-service --seed 1 --seconds 30 --trace 0

One invocation runs one workload (see ``workloads.py``) in one process,
with the numpy/BLAS thread pools pinned to 1.  It repeats *set-up, timed
call, output checks* until ``--seconds`` are used (at least twice), then
prints one line per metric and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Timings are the fastest
repetition of each stretch of the run, divided by the host slowdown a
calibration loop measured during the run (see :func:`end_to_end`).

``--trace 0``
    Tracing off; the metrics are the end-to-end ones (:data:`END_TO_END`).
    The only probe is a clock pair around each ``form_batch`` call, the
    measurement behind ``window_p50_s`` / ``window_p95_s``.
``--trace 1``
    Repetitions alternate untraced and traced.  A traced repetition wraps
    each layer's public entry points in spans (``spans.py``) and enables a
    ``MetricsRegistry`` for the counters; the metrics are the per-layer
    ones (:data:`PER_LAYER`) of the fastest traced repetition, plus the
    tracing overhead against the fastest untraced one.

Output checks (any miss prints ``"correct": false`` and exits 1): every
submitted request settles exactly once; the schedule digest is identical
across all repetitions; paper-service's schedule equals
``TRMScheduler.run`` on the same scenario record for record (once per
invocation, outside the timed region); trust-service's plane reopens at
the last checkpoint's pinned generation and offset; in a traced run,
``trace.unattributed_frac`` stays within :data:`UNATTRIBUTED_BOUND`.
"""

from __future__ import annotations

import os

#: Thread pools pinned before numpy is imported: one process, no extra threads.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Largest share of a traced run's wall time no layer may claim.
UNATTRIBUTED_BOUND = 0.10

#: Host-speed calibration: the fastest time, on the tuning host in its fast
#: periods, of :func:`calibration_sample`.  Every wall-clock reading is
#: divided by the run's slowdown, its own fastest calibration time over
#: this reference, so that a run spent in one of the host's slow periods
#: reads like a run spent in a fast one.
CALIBRATION_REFERENCE_S = 0.0027
#: Calibration samples taken after each repetition.
CALIBRATION_SAMPLES = 3

#: End-to-end metrics (``--trace 0``): name → unit.
END_TO_END = {
    "throughput_rps": "req/s",
    "window_p50_s": "s",
    "window_p95_s": "s",
    "avg_completion_sim_s": "sim_s",
    "completed_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``): name → unit.
PER_LAYER = {
    "admission.calls": "count",
    "admission.self_s": "s",
    "admission.shed": "count",
    "engine.windows": "count",
    "engine.batch_size_p50": "count",
    "engine.submit.self_s": "s",
    "engine.dispatch.self_s": "s",
    "engine.wait_sim_p50_s": "sim_s",
    "costs.ecc.calls": "count",
    "costs.ecc.rows": "count",
    "costs.ecc.self_s": "s",
    "costs.realized.self_s": "s",
    "costs.tc_rows": "count",
    "costs.tc_hit_ratio": "ratio",
    "kernel.calls": "count",
    "kernel.tasks": "count",
    "kernel.self_s": "s",
    "sim.events": "count",
    "sim.self_s": "s",
    "trust.observe.calls": "count",
    "trust.observe.self_s": "s",
    "trust.evolve.self_s": "s",
    "trust.gamma.calls": "count",
    "trust.gamma.self_s": "s",
    "trust.published": "count",
    "trust.table_epoch": "count",
    "journal.appends": "count",
    "journal.append.self_s": "s",
    "journal.checkpoints": "count",
    "journal.checkpoint.self_s": "s",
    "journal.compactions": "count",
    "journal.compact.self_s": "s",
    "journal.bytes": "bytes",
    "checkpoint.calls": "count",
    "checkpoint.self_s": "s",
    "checkpoint.p50_s": "s",
    "bench.self_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Per-layer call counts: metric → the span layer whose entries it counts.
ENTRY_COUNTS = {
    "admission.calls": "admission",
    "engine.windows": "engine.dispatch",
    "costs.ecc.calls": "costs.ecc",
    "kernel.calls": "kernel",
    "trust.observe.calls": "trust.observe",
    "trust.gamma.calls": "trust.gamma",
    "journal.appends": "journal.append",
    "journal.checkpoints": "journal.checkpoint",
    "journal.compactions": "journal.compact",
    "checkpoint.calls": "checkpoint",
}


@dataclass
class Rep:
    """One repetition: set-up time, timed wall time, and what it produced.

    ``segments_s`` cuts the timed call at each window's start and end, so
    its odd entries are the windows and its sum is the call's wall time.
    """

    traced: bool
    setup_s: float
    segments_s: list[float]
    outcome: object
    reference_matches: bool | None = None
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.segments_s)

    @property
    def windows_s(self) -> list[float]:
        return self.segments_s[1::2]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload size multiplier (the self-test runs at a few percent)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def env_fingerprint() -> dict:
    """Where a result was measured: interpreter, libraries, CPU, commit."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                    capture_output=True, text=True, check=True, timeout=30,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            commit = dirty = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "git_dirty": dirty,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def run_rep(
    workload, seed: int, scale: float, targets, traced: bool, workdir: Path,
    with_reference: bool,
) -> Rep:
    """Set up, run the timed call under ``targets``' spans, check the outputs.

    With ``with_reference``, the workload's reference schedule (if it has
    one) is computed after the timed call on the same inputs and compared
    with the timed call's schedule record for record.
    """
    from repro.obs.metrics import MetricsRegistry
    from spans import SpanTracer, instrument

    metrics = MetricsRegistry() if traced else None
    tracer = SpanTracer(keep=("engine.dispatch", "checkpoint", "root"))

    start = time.perf_counter()
    prepared = workload.prepare(
        seed, scale, metrics=metrics, tracer=tracer if traced else None, workdir=workdir
    )
    setup_s = time.perf_counter() - start
    try:
        gc.collect()
        with instrument(tracer, targets):
            call_start = time.perf_counter()
            result = tracer.call("root", prepared.call) if traced else prepared.call()
            call_end = time.perf_counter()
        outcome = prepared.check(result)
        del result
        reference_matches = None
        if with_reference and prepared.reference is not None:
            reference_matches = prepared.reference().records == outcome.schedule.records
        layers = layer_readings(tracer, metrics, outcome) if traced else {}
    finally:
        prepared.close()
    # Only summaries outlive the repetition: one repetition's records must
    # neither add to the next one's garbage-collector work nor to peak RSS.
    outcome.schedule = None
    # The timed call cut at every window's start and end: gap, window, gap,
    # window, ..., gap.  Summed, the segments are the call's wall time.
    bounds = [call_start, *(t for w in tracer.intervals["engine.dispatch"] for t in w), call_end]
    return Rep(
        traced=traced,
        setup_s=setup_s,
        segments_s=[b - a for a, b in zip(bounds, bounds[1:])],
        outcome=outcome,
        reference_matches=reference_matches,
        layers=layers,
    )


def layer_readings(tracer, metrics, outcome) -> dict[str, float]:
    """Per-layer readings of one traced repetition (overhead excluded)."""
    counters = {
        name: entry["value"]
        for name, entry in metrics.snapshot().items()
        if entry["type"] == "counter"
    }
    records = outcome.schedule.records
    batch_sizes: dict[float, int] = {}
    for r in records:
        batch_sizes[r.mapped_time] = batch_sizes.get(r.mapped_time, 0) + 1
    # ``<layer>.self_s`` is the self time of span layer ``<layer>``.
    out = {
        name: tracer.self_s.get(name.removesuffix(".self_s"), 0.0)
        for name in PER_LAYER
        if name.endswith(".self_s")
    }
    out.update({name: float(tracer.entries.get(layer, 0)) for name, layer in ENTRY_COUNTS.items()})
    ecc_rows = float(counters.get("costs.ecc_rows", 0))
    tc_rows = float(counters.get("costs.tc_rows", 0))
    (root_start, root_end), = tracer.intervals["root"]
    checkpoints = [end - start for start, end in tracer.intervals["checkpoint"]]
    out.update(
        {
            "admission.shed": float(outcome.shed),
            "engine.batch_size_p50": (
                float(statistics.median(batch_sizes.values())) if batch_sizes else 0.0
            ),
            "engine.wait_sim_p50_s": (
                float(statistics.median(r.mapped_time - r.arrival_time for r in records))
                if records else 0.0
            ),
            "costs.ecc.rows": ecc_rows,
            "costs.tc_rows": tc_rows,
            "costs.tc_hit_ratio": 1.0 - tc_rows / ecc_rows if ecc_rows else 0.0,
            "kernel.tasks": tracer.work.get("kernel", 0.0),
            "sim.events": float(counters.get("sim.events", 0)),
            "trust.published": outcome.info.get("trust.published", 0.0),
            "trust.table_epoch": outcome.info.get("trust.table_epoch", 0.0),
            "journal.bytes": tracer.work.get("journal.bytes", 0.0),
            "checkpoint.p50_s": float(statistics.median(checkpoints)) if checkpoints else 0.0,
            "trace.unattributed_frac": tracer.self_s["root"] / (root_end - root_start),
        }
    )
    return out


def calibration_sample(data, rows) -> float:
    """Time a fixed mix of interpreter and numpy work sharing no code with
    the program under test (about 2.7 ms on a fast host)."""
    start = time.perf_counter()
    table = {}
    for k in range(8000):
        table[k] = (k, k * 0.5)
    for _ in range(48):
        data[rows].argmin(axis=1)
    return time.perf_counter() - start


def measure(
    workload, seed: int, scale: float, seconds: float, trace: bool, workdir: Path,
    targets: dict[bool, list],
) -> tuple[list[Rep], float]:
    """Repeat until ``seconds`` are used; at least two repetitions.

    With ``trace`` the repetitions alternate untraced, traced, untraced...
    A new repetition starts only if the median repetition so far still
    fits in the remaining time.  Calibration samples follow every
    repetition, so they see the same host periods the repetitions saw.
    ``targets`` maps "traced" to the resolved span targets.

    Returns:
        The repetitions and the run's host slowdown (fastest calibration
        sample / :data:`CALIBRATION_REFERENCE_S`).
    """
    import numpy

    data = numpy.random.default_rng(0).random((2048, 16))
    rows = numpy.arange(0, 2048, 2)
    calibration = [calibration_sample(data, rows) for _ in range(CALIBRATION_SAMPLES)]
    reps: list[Rep] = []
    begin = time.perf_counter()
    durations: list[float] = []
    while True:
        started = time.perf_counter()
        traced = trace and len(reps) % 2 == 1
        reps.append(
            run_rep(workload, seed, scale, targets[traced], traced, workdir, with_reference=not reps)
        )
        calibration += [calibration_sample(data, rows) for _ in range(CALIBRATION_SAMPLES)]
        durations.append(time.perf_counter() - started)
        elapsed = time.perf_counter() - begin
        if len(reps) >= 2 and elapsed + statistics.median(durations) > seconds:
            return reps, min(calibration) / CALIBRATION_REFERENCE_S


def check_reps(reps: list[Rep]) -> list[str]:
    """Output checks spanning repetitions (per-run checks live in Outcome)."""
    errors: list[str] = []
    for i, rep in enumerate(reps):
        errors += [f"repetition {i}: {e}" for e in rep.outcome.errors]
    digests = {rep.outcome.digest for rep in reps}
    if len(digests) != 1:
        errors.append(f"schedule digest differs across repetitions of one seed: {sorted(digests)}")
    windows = {len(rep.windows_s) for rep in reps}
    if len(windows) != 1:
        errors.append(f"window count differs across repetitions of one seed: {sorted(windows)}")
    if reps[0].reference_matches is False:
        errors.append("service schedule differs from TRMScheduler.run on the same scenario")
    for i, rep in enumerate(reps):
        frac = rep.layers.get("trace.unattributed_frac")
        if frac is not None and frac > UNATTRIBUTED_BOUND:
            errors.append(
                f"repetition {i}: trace.unattributed_frac {frac:.4f} exceeds {UNATTRIBUTED_BOUND}"
            )
    return errors


def end_to_end(reps: list[Rep], slowdown: float) -> dict[str, float]:
    """End-to-end metrics over the untraced repetitions.

    Every repetition replays the same inputs, so segment ``k`` of the timed
    call (window ``k``, or the stretch between two windows) does the same
    work in each of them.  Each segment's time is its fastest repetition;
    ``window_p50_s`` / ``window_p95_s`` are quantiles over the windows of
    those times, and ``throughput_rps`` divides the settled requests by
    their sum.  The host alternates between fast periods and periods up to
    ~2x slower lasting seconds to tens of seconds, so the least-disturbed
    sample of each short segment is the steady estimate of what the code
    costs.  Set-up time is likewise the fastest repetition's: its median
    jumped by 1.6x between runs as the host's slow share changed.  Every
    time is divided by the run's host ``slowdown`` (see :func:`measure`):
    runs that fall entirely into a slow period otherwise read up to ~1.6x
    slower.
    """
    import numpy

    first = reps[0].outcome
    segments = numpy.array([rep.segments_s for rep in reps], dtype=float) / slowdown
    fastest = numpy.min(segments, axis=0)
    windows = fastest[1::2]
    return {
        "throughput_rps": first.settled / float(fastest.sum()),
        "window_p50_s": float(numpy.quantile(windows, 0.50)),
        "window_p95_s": float(numpy.quantile(windows, 0.95)),
        "avg_completion_sim_s": first.average_completion,
        "completed_frac": first.completed / first.submitted,
        "setup_s": min(rep.setup_s for rep in reps) / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(reps: list[Rep], slowdown: float) -> dict[str, float]:
    """Per-layer readings of the fastest traced repetition, plus overhead.

    Counts repeat exactly across traced repetitions; taking every reading
    from one repetition keeps the self times a consistent split of it.
    Times are divided by the host ``slowdown``, as in :func:`end_to_end`.
    """
    traced = min((rep for rep in reps if rep.traced), key=lambda rep: rep.wall_s)
    plain = min(rep.wall_s for rep in reps if not rep.traced)
    out = {
        name: traced.layers[name] / (slowdown if unit == "s" else 1.0)
        for name, unit in PER_LAYER.items()
        if name != "trace.overhead_frac"
    }
    out["trace.overhead_frac"] = traced.wall_s / plain - 1.0
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no package source at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from repro.scheduling import make_heuristic
    from spans import KERNEL_TARGET, LAYER_TARGETS, WINDOW_TARGETS, resolve
    from workloads import HEURISTIC, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    kernel = ((KERNEL_TARGET, type(make_heuristic(HEURISTIC))),)
    layer_targets, missing = resolve(LAYER_TARGETS, kernel)
    targets = {True: layer_targets, False: resolve(WINDOW_TARGETS)[0]}
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reps, slowdown = measure(
            workload, args.seed, args.scale, args.seconds, bool(args.trace), workdir, targets
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    errors = check_reps(reps)
    first = reps[0].outcome
    plain = [rep for rep in reps if not rep.traced]
    if args.trace:
        metrics, units = per_layer(reps, slowdown), PER_LAYER
    else:
        metrics, units = end_to_end(plain, slowdown), END_TO_END

    print(f"workload {workload.name}: {workload.why}")
    print(
        f"seed {args.seed}  scale {args.scale:g}  repetitions {len(plain)} untraced"
        f" + {len(reps) - len(plain)} traced  windows per repetition {len(plain[0].windows_s)}"
        f"  submitted {first.submitted}  completed {first.completed}  shed {first.shed}"
        f"  rejected {first.rejected}  dropped {first.dropped}"
        f"  failed_frac {(first.submitted - first.completed) / first.submitted:.6f}"
    )
    print(f"schedule digest {first.digest}")
    print(
        f"host slowdown {slowdown:.4f} (fastest calibration "
        f"{slowdown * CALIBRATION_REFERENCE_S * 1e3:.3f} ms / reference "
        f"{CALIBRATION_REFERENCE_S * 1e3:.3f} ms); times below are divided by it"
    )
    for name, value in first.info.items():
        print(f"{name} {value:g}")
    if missing:
        print(f"entry points not found (their layers read 0): {', '.join(missing)}")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:.6g} {unit}")
    print("env " + json.dumps(env_fingerprint(), sort_keys=True))
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    attempted = sum(rep.outcome.submitted for rep in reps)
    failed = sum(rep.outcome.unsettled for rep in reps)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
