"""Scaling bench — scheduling-kernel perf trajectory (``BENCH_sched.json``).

Sweeps the batch heuristics over growing meta-requests on the Table-6 shape
(inconsistent Hi/Hi heterogeneity, 16 machines) and records per-heuristic
wall time of the reference loop vs the production kernel
(:mod:`repro.scheduling.fast`), plus the speedup, as a machine-readable
JSON artifact at the repository root.  The artifact is the project's perf
trajectory: regenerate it after kernel work and commit it so regressions
show up in review as a diff.

Three entry points:

* ``test_sched_kernel_smoke`` — CI guard: runs the smallest size (schema
  validated in-memory, production must not fall behind the reference by
  more than 1.5x) **and** one larger case (``SMOKE_LARGE_N`` tasks, more
  than one ``DEFAULT_CHUNK_TASKS`` assembly chunk) whose plans are pinned
  by digest, because the reference oracles are too slow to run there.
* ``test_sched_kernel_scale_smoke`` — opt-in via ``BENCH_SCHED_SCALE=1``
  (CI runs it as its own job): the n=10⁵ ``min-min-fast`` plan, pinned by
  digest against the committed trajectory's workload.
* ``test_sched_kernel_full_sweep`` — the real sweep; opt-in via
  ``BENCH_SCHED_FULL=1`` since it plans up to 10⁶ tasks.  Writes
  ``BENCH_sched.json``.

Caps keep the sweep honest *and* finite: reference timings stop at
``REFERENCE_CAP`` tasks (the pure-Python loops are quadratic in
practice), and each production kernel at its own ``PRODUCTION_CAPS``
entry — Min-min's claim queues reach 10⁶, while Max-min and Sufferage
rescan O(n) state per round, so timing them past 10⁵ would only burn
hours re-measuring a known quadratic.  Above a cap the corresponding
field is ``null``.  Whenever both kernels run at the same size their
plans are asserted identical, so every artifact regeneration re-proves
bit-identity at the overlapping sizes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.scheduling.costs import DEFAULT_CHUNK_TASKS, CostProvider
from repro.scheduling.fast import (
    FastMaxMinHeuristic,
    FastMinMinHeuristic,
    FastSufferageHeuristic,
)
from repro.scheduling.maxmin import MaxMinHeuristic
from repro.scheduling.minmin import MinMinHeuristic
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.sufferage import SufferageHeuristic
from repro.workloads.consistency import Consistency
from repro.workloads.heterogeneity import HIHI
from repro.workloads.scenario import ScenarioSpec, materialize

SCHEMA = "repro.bench.sched/v3"
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
#: CI guard: the production kernel must not fall behind the reference by
#: more than this factor at the smoke size.
SMOKE_SLOWDOWN_LIMIT = 1.5

PAIRS = (
    ("min-min", MinMinHeuristic, FastMinMinHeuristic),
    ("max-min", MaxMinHeuristic, FastMaxMinHeuristic),
    ("sufferage", SufferageHeuristic, FastSufferageHeuristic),
)


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


def time_plan(heuristic, requests, costs, avail, repeats: int) -> tuple[float, list]:
    """Best-of-``repeats`` wall time of a full ``plan()`` call.

    With ``repeats > 1`` the first (untimed) call warms the provider's
    trust-cost caches so every kernel is measured in its steady state; the
    single-repeat large sizes rely on :func:`warm_provider` instead.
    """
    plan = heuristic.plan(requests, costs, avail.copy()) if repeats > 1 else None
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        timed = heuristic.plan(requests, costs, avail.copy())
        best = min(best, time.perf_counter() - start)
    return best, (plan if plan is not None else timed)


def plan_keys(plan) -> list[tuple[int, int]]:
    return [(p.request.index, p.machine_index) for p in plan]


def plan_digest(plan) -> str:
    payload = ",".join(f"{p.request.index}:{p.machine_index}" for p in plan)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_sweep(sizes, repeats: int = REPEATS) -> dict:
    """Time both kernels of every heuristic at every size; returns the JSON payload."""
    results = []
    for n_tasks in sizes:
        requests, costs, avail = build_case(n_tasks)
        reps = 1 if n_tasks > SINGLE_REPEAT_ABOVE else repeats
        if reps == 1:
            warm_provider(requests, costs)
        for name, Reference, Production in PAIRS:
            if n_tasks > PRODUCTION_CAPS[name]:
                continue
            prod_s, prod_plan = time_plan(Production(), requests, costs, avail, reps)
            assert len(prod_plan) == n_tasks
            ref_s = None
            if n_tasks <= REFERENCE_CAP:
                ref_s, ref_plan = time_plan(Reference(), requests, costs, avail, reps)
                assert plan_keys(ref_plan) == plan_keys(prod_plan), (
                    f"{name} production plan diverged at n_tasks={n_tasks}"
                )
            results.append(
                {
                    "heuristic": name,
                    "n_tasks": n_tasks,
                    "repeats": reps,
                    "reference_s": ref_s,
                    "production_s": prod_s,
                    "speedup": (ref_s / prod_s) if ref_s is not None else None,
                }
            )
    return {
        "schema": SCHEMA,
        "workload": {
            "heterogeneity": "HiHi",
            "consistency": "inconsistent",
            "n_machines": N_MACHINES,
            "target_load": 3.0,
            "seed": SEED,
        },
        "reference_cap": REFERENCE_CAP,
        "production_caps": dict(PRODUCTION_CAPS),
        "repeats": repeats,
        "results": results,
    }


def validate_payload(payload: dict) -> None:
    """Schema check shared by the CI smoke test and artifact consumers."""
    assert payload["schema"] == SCHEMA
    assert set(payload) == {
        "schema", "workload", "reference_cap", "production_caps", "repeats",
        "results",
    }
    workload = payload["workload"]
    assert set(workload) == {
        "heterogeneity", "consistency", "n_machines", "target_load", "seed",
    }
    names = {name for name, _, _ in PAIRS}
    assert set(payload["production_caps"]) == names
    assert payload["results"], "empty results"
    for entry in payload["results"]:
        assert set(entry) == {
            "heuristic", "n_tasks", "repeats", "reference_s", "production_s",
            "speedup",
        }
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
#: Plan digests of the production kernels at ``SMOKE_LARGE_N`` on the bench
#: workload, computed with the reference oracles.
SMOKE_LARGE_DIGESTS = {
    "min-min": "8c64909b3f0b13342441046911dfd1c1dc4c989804a3f8861e6f9d6f738ca34d",
    "max-min": "5d74e114f13fc0aaad90821550bbc31137a4655216123642426afab9d2967ee6",
    "sufferage": "c02f52b9afee4bb90b7a452ff830a8c49264ebff35cd3b0d5b4d058d32a446ee",
}


def test_sched_kernel_smoke_large_chunked():
    """Production plans past one assembly chunk match their pinned digests."""
    assert SMOKE_LARGE_N > DEFAULT_CHUNK_TASKS
    requests, costs, avail = build_case(SMOKE_LARGE_N)
    for name, _Reference, Production in PAIRS:
        plan = Production().plan(requests, costs, avail.copy())
        assert len(plan) == SMOKE_LARGE_N
        assert plan_digest(plan) == SMOKE_LARGE_DIGESTS[name], (
            f"{name} production plan diverged at n_tasks={SMOKE_LARGE_N}"
        )


#: Pinned digest of the n=10⁵ min-min plan on the bench workload (seed 0,
#: Hi/Hi inconsistent, 16 machines) — the scale smoke's oracle.
SCALE_SMOKE_N = 100_000
SCALE_SMOKE_DIGEST = (
    "c809ddce111964f3cca8c38494a90f0673b01227ab9a6b380c5d65044d77bb43"
)
#: Generous wall-time ceiling for the scale smoke: the measured time is
#: ~1 s on one core, so tripping this means the claim queues lost their
#: near-linear round cost, not that the runner was slow.
SCALE_SMOKE_CEILING_S = 120.0


@pytest.mark.skipif(
    os.environ.get("BENCH_SCHED_SCALE") != "1",
    reason="scale smoke is opt-in: BENCH_SCHED_SCALE=1",
)
def test_sched_kernel_scale_smoke():
    requests, costs, avail = build_case(SCALE_SMOKE_N)
    warm_provider(requests, costs)
    prod_s, plan = time_plan(FastMinMinHeuristic(), requests, costs, avail, repeats=1)
    assert len(plan) == SCALE_SMOKE_N
    assert plan_digest(plan) == SCALE_SMOKE_DIGEST
    assert prod_s <= SCALE_SMOKE_CEILING_S, (
        f"min-min-fast took {prod_s:.1f}s at n={SCALE_SMOKE_N}"
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
    payload = run_sweep(SIZES)
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
            f"{entry['heuristic']:>10} n={entry['n_tasks']:<8} "
            f"reference {ref_ms} ms  production "
            f"{entry['production_s'] * 1e3:10.2f} ms  speedup {speedup}"
        )
    print("\n".join(lines))
