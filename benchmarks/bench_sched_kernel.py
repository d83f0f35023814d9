"""Scaling bench — scheduling-kernel perf trajectory (``BENCH_sched.json``).

Times each batch heuristic's registered production kernel
(``make_heuristic(name).plan``) against its scalar oracle loop
(:func:`~repro.scheduling.minmin.greedy_min_completion_plan`,
:func:`~repro.scheduling.sufferage.sufferage_reference_plan`) on two
shapes, and records wall times plus the speedup as a machine-readable JSON
artifact at the repository root:

* ``sweep`` — growing meta-requests (64 to 10⁶ tasks) on inconsistent
  Hi/Hi heterogeneity with 16 machines;
* ``table6`` — the paper's Table-6 shape (``paper_spec``: 5 machines,
  inconsistent Lo/Lo, load 4.5) in windows of 1, 4 and 16 requests, the
  sizes at which a kernel's fixed per-call cost decides whether it beats
  the oracle.  Each timed pass plans ``WINDOWS_PER_REPEAT`` fresh windows
  through one provider whose trust-cost cache was warmed beforehand, as in
  a running service.

The artifact is the project's perf trajectory: regenerate it after kernel
work and commit it so regressions show up in review as a diff.

Three entry points:

* ``test_sched_kernel_smoke`` — CI guard: runs the smallest sweep size
  (schema validated in-memory, production must not fall behind the oracle
  by more than 1.5x) **and** one larger case (``SMOKE_LARGE_N`` tasks, more
  than one ``DEFAULT_CHUNK_TASKS`` assembly chunk) whose plans are pinned
  by digest, because the oracles are too slow to run there.
* ``test_sched_kernel_scale_smoke`` — opt-in via ``BENCH_SCHED_SCALE=1``
  (CI runs it as its own job): the n=10⁵ ``min-min`` plan, pinned by
  digest against the committed trajectory's workload, and its traced
  memory peak (``test_sched_kernel_scale_smoke_memory``), bounded against
  the element-wise claim loop's.
* ``test_sched_kernel_full_sweep`` — the real sweep; opt-in via
  ``BENCH_SCHED_FULL=1`` since it plans up to 10⁶ tasks.  Writes
  ``BENCH_sched.json``.

Caps keep the sweep honest *and* finite: oracle timings stop at
``REFERENCE_CAP`` tasks (the pure-Python loops are quadratic in
practice), and each production kernel at its own ``PRODUCTION_CAPS``
entry — Min-min's claim queues reach 10⁶, while Max-min and Sufferage
rescan O(n) state per round, so timing them past 10⁵ would only burn
hours re-measuring a known quadratic.  Above a cap the corresponding
field is ``null``.  Whenever both run at the same size their plans are
asserted identical, so every artifact regeneration re-proves bit-identity
at the overlapping sizes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import PAPER_TARGET_LOAD, paper_policies, paper_spec
from repro.scheduling.costs import DEFAULT_CHUNK_TASKS, CostProvider
from repro.scheduling.minmin import greedy_min_completion_plan
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.registry import make_heuristic
from repro.scheduling.sufferage import sufferage_reference_plan
from repro.workloads.consistency import Consistency
from repro.workloads.heterogeneity import HIHI
from repro.workloads.scenario import ScenarioSpec, materialize

SCHEMA = "repro.bench.sched/v4"
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_sched.json"
SIZES = (64, 256, 1024, 4096, 100_000, 1_000_000)
N_MACHINES = 16
SEED = 0
REFERENCE_CAP = 1024
PRODUCTION_CAPS = {"min-min": 1_000_000, "max-min": 100_000, "sufferage": 100_000}
REPEATS = 3
#: Above this size one timed run (after a cheap cache warm-up) replaces
#: best-of-``REPEATS``: the kernels run for seconds-to-minutes, far above
#: timer noise, and the sweep must terminate on one core.
SINGLE_REPEAT_ABOVE = 4096
#: CI guard: the production kernel must not fall behind the oracle by
#: more than this factor at the smoke size.
SMOKE_SLOWDOWN_LIMIT = 1.5
#: Window sizes timed on the Table-6 shape, and windows per timed pass.
WINDOW_SIZES = (1, 4, 16)
WINDOWS_PER_REPEAT = 200
TABLE6_MACHINES = 5

#: The workload shapes a result row can refer to.
SHAPES = {
    "sweep": {
        "heterogeneity": "HiHi",
        "consistency": "inconsistent",
        "n_machines": N_MACHINES,
        "target_load": 3.0,
        "seed": SEED,
    },
    "table6": {
        "heterogeneity": "LoLo",
        "consistency": "inconsistent",
        "n_machines": TABLE6_MACHINES,
        "target_load": PAPER_TARGET_LOAD,
        "seed": SEED,
    },
}

#: Each registered batch name and the scalar oracle loop it must match.
ORACLES = {
    "min-min": partial(greedy_min_completion_plan, prefer_max=False),
    "max-min": partial(greedy_min_completion_plan, prefer_max=True),
    "sufferage": sufferage_reference_plan,
}


def build_case(n_tasks: int):
    spec = ScenarioSpec(
        n_tasks=n_tasks,
        n_machines=N_MACHINES,
        heterogeneity=HIHI,
        consistency=Consistency.INCONSISTENT,
        target_load=3.0,
    )
    scenario = materialize(spec, seed=SEED)
    costs = CostProvider(
        grid=scenario.grid, eec=scenario.eec, policy=TrustPolicy.aware()
    )
    return list(scenario.requests), costs, np.zeros(N_MACHINES)


def warm_provider(requests, costs) -> None:
    """One streamed assembly pass fills the trust-cost caches cheaply."""
    for _start, _chunk in costs.mapping_ecc_chunks(requests):
        pass


def time_plan(plan, requests, costs, avail, repeats: int) -> tuple[float, list]:
    """Best-of-``repeats`` wall time of a full ``plan`` call.

    With ``repeats > 1`` the first (untimed) call warms the provider's
    trust-cost caches so every kernel is measured in its steady state; the
    single-repeat large sizes rely on :func:`warm_provider` instead.
    """
    first = plan(requests, costs, avail.copy()) if repeats > 1 else None
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        timed = plan(requests, costs, avail.copy())
        best = min(best, time.perf_counter() - start)
    return best, (first if first is not None else timed)


def time_windows(name: str, window: int, repeats: int) -> tuple[float, float]:
    """Mean wall time per ``window``-request plan, oracle and production.

    Every timed pass builds a fresh provider over the same scenario, warms
    its trust-cost cache, then plans ``WINDOWS_PER_REPEAT`` disjoint
    windows, so no call sees a request's finished row cached by an earlier
    one.  Returns the best pass of each, in seconds per window.
    """
    spec = paper_spec(window * WINDOWS_PER_REPEAT, Consistency.INCONSISTENT)
    scenario = materialize(spec, seed=SEED)
    requests = list(scenario.requests)
    windows = [requests[i : i + window] for i in range(0, len(requests), window)]
    avail = np.zeros(TABLE6_MACHINES)
    best = {"oracle": np.inf, "production": np.inf}
    for _ in range(repeats):
        for kind, plan in (
            ("oracle", ORACLES[name]),
            ("production", make_heuristic(name).plan),
        ):
            costs = CostProvider(
                grid=scenario.grid, eec=scenario.eec, policy=paper_policies()[0]
            )
            warm_provider(requests, costs)
            start = time.perf_counter()
            for members in windows:
                plan(members, costs, avail)
            elapsed = (time.perf_counter() - start) / len(windows)
            best[kind] = min(best[kind], elapsed)
    return best["oracle"], best["production"]


def plan_keys(plan) -> list[tuple[int, int]]:
    return [(p.request.index, p.machine_index) for p in plan]


def plan_digest(plan) -> str:
    payload = ",".join(f"{p.request.index}:{p.machine_index}" for p in plan)
    return hashlib.sha256(payload.encode()).hexdigest()


def result_row(shape, name, n_tasks, reps, ref_s, prod_s) -> dict:
    return {
        "shape": shape,
        "heuristic": name,
        "n_tasks": n_tasks,
        "repeats": reps,
        "reference_s": ref_s,
        "production_s": prod_s,
        "speedup": (ref_s / prod_s) if ref_s is not None else None,
    }


def run_sweep(sizes, repeats: int = REPEATS, window_sizes=()) -> dict:
    """Time oracle and production of every heuristic; returns the JSON payload."""
    results = []
    for n_tasks in sizes:
        requests, costs, avail = build_case(n_tasks)
        reps = 1 if n_tasks > SINGLE_REPEAT_ABOVE else repeats
        if reps == 1:
            warm_provider(requests, costs)
        for name, oracle in ORACLES.items():
            if n_tasks > PRODUCTION_CAPS[name]:
                continue
            production = make_heuristic(name).plan
            prod_s, prod_plan = time_plan(production, requests, costs, avail, reps)
            assert len(prod_plan) == n_tasks
            ref_s = None
            if n_tasks <= REFERENCE_CAP:
                ref_s, ref_plan = time_plan(oracle, requests, costs, avail, reps)
                assert plan_keys(ref_plan) == plan_keys(prod_plan), (
                    f"{name} production plan diverged at n_tasks={n_tasks}"
                )
            results.append(result_row("sweep", name, n_tasks, reps, ref_s, prod_s))
    for window in window_sizes:
        for name in ORACLES:
            ref_s, prod_s = time_windows(name, window, repeats)
            results.append(result_row("table6", name, window, repeats, ref_s, prod_s))
    return {
        "schema": SCHEMA,
        "workloads": SHAPES,
        "windows_per_repeat": WINDOWS_PER_REPEAT,
        "reference_cap": REFERENCE_CAP,
        "production_caps": dict(PRODUCTION_CAPS),
        "repeats": repeats,
        "results": results,
    }


def validate_payload(payload: dict) -> None:
    """Schema check shared by the CI smoke test and artifact consumers."""
    assert payload["schema"] == SCHEMA
    assert set(payload) == {
        "schema", "workloads", "windows_per_repeat", "reference_cap",
        "production_caps", "repeats", "results",
    }
    assert set(payload["workloads"]) == set(SHAPES)
    for workload in payload["workloads"].values():
        assert set(workload) == {
            "heterogeneity", "consistency", "n_machines", "target_load", "seed",
        }
    names = set(ORACLES)
    assert set(payload["production_caps"]) == names
    assert payload["results"], "empty results"
    for entry in payload["results"]:
        assert set(entry) == {
            "shape", "heuristic", "n_tasks", "repeats", "reference_s",
            "production_s", "speedup",
        }
        assert entry["shape"] in SHAPES
        assert entry["heuristic"] in names
        assert 0 < entry["n_tasks"] <= payload["production_caps"][entry["heuristic"]]
        assert entry["repeats"] >= 1
        assert entry["production_s"] > 0
        if entry["n_tasks"] <= payload["reference_cap"]:
            assert entry["reference_s"] > 0
            assert entry["speedup"] == pytest.approx(
                entry["reference_s"] / entry["production_s"]
            )
        else:
            assert entry["reference_s"] is None and entry["speedup"] is None


def test_sched_kernel_smoke():
    payload = run_sweep(sizes=SIZES[:1], repeats=1)
    validate_payload(payload)
    for entry in payload["results"]:
        assert entry["speedup"] >= 1.0 / SMOKE_SLOWDOWN_LIMIT, (
            f"production {entry['heuristic']} fell behind the reference "
            f"({entry['speedup']:.2f}x) at n_tasks={entry['n_tasks']}"
        )


#: Size of the larger smoke case: more than one streaming-assembly chunk,
#: small enough for CI.
SMOKE_LARGE_N = 10_000
#: Plan digests of the production kernels at ``SMOKE_LARGE_N`` on the sweep
#: workload, computed with the oracle loops.
SMOKE_LARGE_DIGESTS = {
    "min-min": "8c64909b3f0b13342441046911dfd1c1dc4c989804a3f8861e6f9d6f738ca34d",
    "max-min": "5d74e114f13fc0aaad90821550bbc31137a4655216123642426afab9d2967ee6",
    "sufferage": "c02f52b9afee4bb90b7a452ff830a8c49264ebff35cd3b0d5b4d058d32a446ee",
}


def test_sched_kernel_smoke_large_chunked():
    """Production plans past one assembly chunk match their pinned digests."""
    assert SMOKE_LARGE_N > DEFAULT_CHUNK_TASKS
    requests, costs, avail = build_case(SMOKE_LARGE_N)
    for name in ORACLES:
        plan = make_heuristic(name).plan(requests, costs, avail.copy())
        assert len(plan) == SMOKE_LARGE_N
        assert plan_digest(plan) == SMOKE_LARGE_DIGESTS[name], (
            f"{name} production plan diverged at n_tasks={SMOKE_LARGE_N}"
        )


#: Pinned digest of the n=10⁵ min-min plan on the sweep workload (seed 0,
#: Hi/Hi inconsistent, 16 machines) — the scale smoke's oracle.
SCALE_SMOKE_N = 100_000
SCALE_SMOKE_DIGEST = (
    "c809ddce111964f3cca8c38494a90f0673b01227ab9a6b380c5d65044d77bb43"
)
#: Generous wall-time ceiling for the scale smoke: the measured time is
#: 0.3–0.4 s on one core of a 2-vCPU Xeon host, so tripping this means the
#: claim queues lost their near-linear round cost, not that the runner was
#: slow.
SCALE_SMOKE_CEILING_S = 120.0


#: Traced peak of one n=10⁵ ``min-min`` plan (tracemalloc, warmed trust-cost
#: caches) when the claim loop still read its queues element by element
#: into frozen-dataclass plan items: 33.5 MiB.  The block cursors and tuple
#: items measure 35.4 MiB; the bound holds the kernel within 10 % of the
#: element-wise loop, so a cursor that buffers whole queues fails it.
SCALE_SMOKE_ELEMENTWISE_PEAK_MIB = 33.5
SCALE_SMOKE_PEAK_LIMIT = 1.10

scale_smoke = pytest.mark.skipif(
    os.environ.get("BENCH_SCHED_SCALE") != "1",
    reason="scale smoke is opt-in: BENCH_SCHED_SCALE=1",
)


@pytest.fixture(scope="module")
def scale_case():
    requests, costs, avail = build_case(SCALE_SMOKE_N)
    warm_provider(requests, costs)
    return requests, costs, avail


@scale_smoke
def test_sched_kernel_scale_smoke(scale_case):
    requests, costs, avail = scale_case
    prod_s, plan = time_plan(
        make_heuristic("min-min").plan, requests, costs, avail, repeats=1
    )
    assert len(plan) == SCALE_SMOKE_N
    assert plan_digest(plan) == SCALE_SMOKE_DIGEST
    assert prod_s <= SCALE_SMOKE_CEILING_S, (
        f"min-min took {prod_s:.1f}s at n={SCALE_SMOKE_N}"
    )


@scale_smoke
def test_sched_kernel_scale_smoke_memory(scale_case):
    requests, costs, avail = scale_case
    heuristic = make_heuristic("min-min")
    gc.collect()
    tracemalloc.start()
    try:
        plan = heuristic.plan(requests, costs, avail.copy())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(plan) == SCALE_SMOKE_N
    limit = SCALE_SMOKE_ELEMENTWISE_PEAK_MIB * SCALE_SMOKE_PEAK_LIMIT
    assert peak / 2**20 <= limit, (
        f"min-min peaked at {peak / 2**20:.1f} MiB at n={SCALE_SMOKE_N} "
        f"(limit {limit:.1f} MiB)"
    )


def test_artifact_matches_schema():
    """The committed perf trajectory must stay machine-readable."""
    if not ARTIFACT.exists():
        pytest.skip(f"{ARTIFACT.name} not generated yet")
    validate_payload(json.loads(ARTIFACT.read_text(encoding="utf-8")))


@pytest.mark.skipif(
    os.environ.get("BENCH_SCHED_FULL") != "1",
    reason="full sweep is opt-in: BENCH_SCHED_FULL=1",
)
def test_sched_kernel_full_sweep():
    payload = run_sweep(SIZES, window_sizes=WINDOW_SIZES)
    validate_payload(payload)
    ARTIFACT.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    lines = [f"perf trajectory written to {ARTIFACT}"]
    for entry in payload["results"]:
        ref_ms = (
            f"{entry['reference_s'] * 1e3:10.2f}"
            if entry["reference_s"] is not None
            else "       n/a"
        )
        speedup = (
            f"{entry['speedup']:6.2f}x" if entry["speedup"] is not None else "   n/a"
        )
        lines.append(
            f"{entry['shape']:>6} {entry['heuristic']:>10} n={entry['n_tasks']:<8} "
            f"oracle {ref_ms} ms  production "
            f"{entry['production_s'] * 1e3:10.2f} ms  speedup {speedup}"
        )
    print("\n".join(lines))
