"""Equivalence of the production kernels with the reference heuristics.

Three contracts are pinned here:

* **Production ≡ reference** — each batch heuristic's production kernel
  (:mod:`repro.scheduling.fast`) produces *identical plans* — same
  request→machine assignments in the same order — as its reference oracle
  for arbitrary scenarios, including ties, a single machine, empty
  batches, hard trust constraints (RELAX and REJECT), retry exclusions
  and trust-cache invalidation. The claim-queue Min-min kernel is also
  run with its chunk stream forced to 1, 3, 5, 7 and 10 000 rows.
* **Batched ≡ scalar, chunked ≡ dense** — the batched
  ``mapping_ecc_matrix`` assembly is bit-identical to stacking reference
  rows, and concatenating ``mapping_ecc_chunks`` chunks reproduces it
  bit-for-bit at chunk sizes 1, 7 and 10 000, including across mid-stream
  invalidation.
* **Bounded memory** — the chunked assembly's peak allocation at n=10⁵
  stays a small fraction of the dense assembly's footprint.

The n=10⁴ hash goldens in ``test_tiebreaks_golden.py`` cover the
multi-chunk plans that are too large for the reference oracles.
"""

import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.scheduling import costs as costs_module
from repro.scheduling.base import BatchHeuristic
from repro.scheduling.constraints import InfeasiblePolicy, TrustConstraint
from repro.scheduling.costs import DEFAULT_CHUNK_TASKS, CostProvider
from repro.scheduling.fast import (
    FastMaxMinHeuristic,
    FastMinMinHeuristic,
    FastSufferageHeuristic,
)
from repro.scheduling.kpb import KpbHeuristic
from repro.scheduling.maxmin import MaxMinHeuristic
from repro.scheduling.minmin import MinMinHeuristic
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.sufferage import SufferageHeuristic
from repro.workloads.scenario import ScenarioSpec, materialize

PAIRS = [
    (MinMinHeuristic, FastMinMinHeuristic),
    (MaxMinHeuristic, FastMaxMinHeuristic),
    (SufferageHeuristic, FastSufferageHeuristic),
]

#: Adversarial streaming granularities: single-row chunks, a size that
#: never divides the workload, one chunk covering everything.
CHUNK_SIZES = [1, 7, 10_000]


def plans_equal(a, b) -> bool:
    return [(p.request.index, p.machine_index, p.order) for p in a] == [
        (p.request.index, p.machine_index, p.order) for p in b
    ]


def make_case(
    seed: int,
    n_tasks: int,
    n_machines: int,
    trust_aware: bool,
    constraint: TrustConstraint | None = None,
):
    spec = ScenarioSpec(n_tasks=n_tasks, n_machines=n_machines, target_load=3.0)
    scenario = materialize(spec, seed=seed)
    policy = TrustPolicy(trust_aware)
    costs = CostProvider(
        grid=scenario.grid, eec=scenario.eec, policy=policy, constraint=constraint
    )
    return scenario, costs


def apply_retry_state(scenario, costs, seed: int) -> None:
    """Exclude a few request/machine pairs and invalidate a few TC rows,
    mimicking the scheduler's retry re-pricing mid-run."""
    rng = np.random.default_rng(seed)
    requests = scenario.requests
    n_machines = scenario.grid.n_machines
    for req in rng.choice(requests, size=min(3, len(requests)), replace=False):
        costs.exclude(req.index, int(rng.integers(n_machines)))
    for req in rng.choice(requests, size=min(2, len(requests)), replace=False):
        costs.invalidate_trust_cache(req.index)


@pytest.mark.parametrize("Reference,Fast", PAIRS, ids=lambda c: c.__name__)
class TestEquivalence:
    def test_idle_machines(self, Reference, Fast):
        scenario, costs = make_case(seed=0, n_tasks=20, n_machines=5, trust_aware=True)
        avail = np.zeros(5)
        ref = Reference().plan(list(scenario.requests), costs, avail)
        fast = Fast().plan(list(scenario.requests), costs, avail)
        assert plans_equal(ref, fast)

    def test_loaded_machines(self, Reference, Fast):
        scenario, costs = make_case(seed=1, n_tasks=15, n_machines=4, trust_aware=False)
        avail = np.array([100.0, 0.0, 250.0, 40.0])
        ref = Reference().plan(list(scenario.requests), costs, avail)
        fast = Fast().plan(list(scenario.requests), costs, avail)
        assert plans_equal(ref, fast)

    def test_single_machine(self, Reference, Fast):
        scenario, costs = make_case(seed=2, n_tasks=8, n_machines=1, trust_aware=True)
        ref = Reference().plan(list(scenario.requests), costs, np.zeros(1))
        fast = Fast().plan(list(scenario.requests), costs, np.zeros(1))
        assert plans_equal(ref, fast)

    def test_empty_batch(self, Reference, Fast):
        _, costs = make_case(seed=3, n_tasks=2, n_machines=3, trust_aware=True)
        assert Fast().plan([], costs, np.zeros(3)) == []

    def test_tied_costs(self, Reference, Fast):
        # A uniform EEC matrix makes every completion a tie: the plans agree
        # only if the fast path reproduces the reference tie-breaks exactly.
        scenario, costs = make_case(seed=4, n_tasks=12, n_machines=4, trust_aware=False)
        costs.eec = np.full_like(costs.eec, 7.0)
        ref = Reference().plan(list(scenario.requests), costs, np.zeros(4))
        fast = Fast().plan(list(scenario.requests), costs, np.zeros(4))
        assert plans_equal(ref, fast)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_tasks=st.integers(min_value=1, max_value=30),
        n_machines=st.integers(min_value=1, max_value=8),
        trust_aware=st.booleans(),
    )
    def test_property_equivalence(self, Reference, Fast, seed, n_tasks, n_machines, trust_aware):
        scenario, costs = make_case(seed, n_tasks, n_machines, trust_aware)
        avail_rng = np.random.default_rng(seed + 1)
        avail = avail_rng.uniform(0, 500, size=n_machines)
        ref = Reference().plan(list(scenario.requests), costs, avail.copy())
        fast = Fast().plan(list(scenario.requests), costs, avail.copy())
        assert plans_equal(ref, fast)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        max_tc=st.integers(min_value=0, max_value=6),
        infeasible=st.sampled_from(list(InfeasiblePolicy)),
    )
    def test_property_equivalence_under_constraint(
        self, Reference, Fast, seed, max_tc, infeasible
    ):
        # Tight constraints produce +inf-masked (and, under REJECT, all-inf)
        # rows — the hardest tie-break territory for the production kernels.
        constraint = TrustConstraint(max_trust_cost=max_tc, infeasible=infeasible)
        scenario, costs = make_case(
            seed, n_tasks=18, n_machines=5, trust_aware=True, constraint=constraint
        )
        avail = np.random.default_rng(seed + 1).uniform(0, 200, size=5)
        ref = Reference().plan(list(scenario.requests), costs, avail.copy())
        fast = Fast().plan(list(scenario.requests), costs, avail.copy())
        assert plans_equal(ref, fast)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_equivalence_with_retry_state(self, Reference, Fast, seed):
        scenario, costs = make_case(seed, n_tasks=16, n_machines=4, trust_aware=True)
        apply_retry_state(scenario, costs, seed)
        ref = Reference().plan(list(scenario.requests), costs, np.zeros(4))
        fast = Fast().plan(list(scenario.requests), costs, np.zeros(4))
        assert plans_equal(ref, fast)


class TestMatrixEquivalence:
    """``mapping_ecc_matrix`` vs stacked ``mapping_ecc_row`` bit-identity
    under the same adversarial states the plan equivalence runs through."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        trust_aware=st.booleans(),
        constrained=st.booleans(),
        with_retry_state=st.booleans(),
    )
    def test_property_bit_identity(self, seed, trust_aware, constrained, with_retry_state):
        constraint = (
            TrustConstraint(
                max_trust_cost=seed % 7,
                infeasible=list(InfeasiblePolicy)[seed % 2],
            )
            if constrained
            else None
        )
        scenario, costs = make_case(seed, 14, 4, trust_aware, constraint=constraint)
        if with_retry_state:
            apply_retry_state(scenario, costs, seed)
        requests = list(scenario.requests)
        reference = BatchHeuristic.mapping_matrix(requests, costs)
        np.testing.assert_array_equal(costs.mapping_ecc_matrix(requests), reference)


class TestChunkedAssembly:
    """``mapping_ecc_chunks`` concatenated vs the dense ``mapping_ecc_matrix``."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_tasks=st.integers(min_value=0, max_value=40),
        chunk_size=st.sampled_from(CHUNK_SIZES),
        trust_aware=st.booleans(),
        constrained=st.booleans(),
        with_retry_state=st.booleans(),
    )
    def test_property_bit_identity(
        self, seed, n_tasks, chunk_size, trust_aware, constrained, with_retry_state
    ):
        constraint = (
            TrustConstraint(
                max_trust_cost=seed % 7,
                infeasible=list(InfeasiblePolicy)[seed % 2],
            )
            if constrained
            else None
        )
        scenario, costs = make_case(
            seed, max(n_tasks, 1), 5, trust_aware, constraint=constraint
        )
        if with_retry_state:
            apply_retry_state(scenario, costs, seed)
        requests = list(scenario.requests)[:n_tasks]
        dense = costs.mapping_ecc_matrix(requests)
        starts = []
        parts = []
        for start, chunk in costs.mapping_ecc_chunks(requests, chunk_size=chunk_size):
            starts.append(start)
            parts.append(chunk)
        assert starts == list(range(0, len(requests), chunk_size))
        stacked = (
            np.concatenate(parts) if parts else np.zeros((0, 5), dtype=np.float64)
        )
        np.testing.assert_array_equal(stacked, dense)

    def test_default_chunk_size(self):
        scenario, costs = make_case(seed=0, n_tasks=12, n_machines=3, trust_aware=True)
        requests = list(scenario.requests)
        chunks = list(costs.mapping_ecc_chunks(requests))
        assert len(chunks) == 1  # 12 tasks fit one DEFAULT_CHUNK_TASKS chunk
        assert DEFAULT_CHUNK_TASKS >= 4096
        np.testing.assert_array_equal(
            chunks[0][1], costs.mapping_ecc_matrix(requests)
        )

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_chunk_size_rejected(self, bad):
        scenario, costs = make_case(seed=1, n_tasks=4, n_machines=3, trust_aware=True)
        with pytest.raises(ConfigurationError):
            next(costs.mapping_ecc_chunks(list(scenario.requests), chunk_size=bad))

    def test_mid_stream_invalidation_reprices_later_chunks(self):
        # Retry state applied *between* chunk fetches must affect exactly
        # the not-yet-streamed rows — the dense matrix assembled afterwards
        # agrees with a re-streamed pass, proving the provider's caches
        # stay coherent under mid-run invalidation.
        scenario, costs = make_case(seed=2, n_tasks=20, n_machines=4, trust_aware=True)
        requests = list(scenario.requests)
        stream = costs.mapping_ecc_chunks(requests, chunk_size=5)
        _start, first = next(stream)
        victim = requests[12]
        costs.exclude(victim.index, 1)
        costs.invalidate_trust_cache(victim.index)
        rest = [chunk for _s, chunk in stream]
        streamed = np.concatenate([first, *rest])
        dense_after = costs.mapping_ecc_matrix(requests)
        np.testing.assert_array_equal(streamed, dense_after)
        assert np.isinf(dense_after[12, 1])


class TestChunkedMemoryBound:
    def test_chunked_assembly_peak_is_fraction_of_dense(self):
        # n=10⁵ tasks, 16 machines: the dense assembly materialises the
        # (n, m) ECC matrix plus same-shaped EEC/TC intermediates; the
        # chunked pass must peak at one chunk plus O(n) reduction arrays.
        n, m = 100_000, 16
        spec = ScenarioSpec(n_tasks=n, n_machines=m, target_load=3.0)
        scenario = materialize(spec, seed=0)
        requests = list(scenario.requests)

        # One warm-up pass per provider first: the pricing-key and TC row
        # caches are O(n) one-time state built identically by both paths,
        # and the bound under test is the *assembly's* working set.
        costs = CostProvider(
            grid=scenario.grid, eec=scenario.eec, policy=TrustPolicy(True)
        )
        checksum_dense = float(np.nansum(costs.mapping_ecc_matrix(requests)))
        tracemalloc.start()
        dense = costs.mapping_ecc_matrix(requests)
        _, dense_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del dense

        tracemalloc.start()
        total = 0.0
        for _start, chunk in costs.mapping_ecc_chunks(requests, chunk_size=4096):
            total += float(np.nansum(chunk))
        _, chunked_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert total == pytest.approx(checksum_dense)
        assert dense_peak >= n * m * 8  # sanity: the dense matrix was counted
        # The bound is deliberately loose (4×) against allocator noise; the
        # measured ratio is far smaller (~0.05).
        assert chunked_peak < dense_peak / 4


@contextmanager
def streamed_at(chunk_size: int):
    """Run with ``mapping_ecc_chunks`` defaulting to ``chunk_size`` rows."""
    with mock.patch.object(costs_module, "DEFAULT_CHUNK_TASKS", chunk_size):
        yield


class TestClaimQueueStreaming:
    """The claim-queue Min-min kernel stitches its per-machine columns from
    streamed chunks. With the stream granularity forced below the batch
    size — single rows, sizes that never divide the batch, one chunk for
    everything — its plans must still match the reference oracle."""

    def test_empty_batch(self):
        _, costs = make_case(seed=3, n_tasks=2, n_machines=3, trust_aware=True)
        with streamed_at(1):
            assert FastMinMinHeuristic().plan([], costs, np.zeros(3)) == []

    def test_single_machine(self):
        scenario, costs = make_case(seed=2, n_tasks=8, n_machines=1, trust_aware=True)
        ref = MinMinHeuristic().plan(list(scenario.requests), costs, np.zeros(1))
        with streamed_at(3):
            fast = FastMinMinHeuristic().plan(list(scenario.requests), costs, np.zeros(1))
        assert plans_equal(ref, fast)

    def test_tied_costs(self):
        # Every completion ties; ties must resolve identically across the
        # seams between streamed chunks.
        scenario, costs = make_case(seed=4, n_tasks=12, n_machines=4, trust_aware=False)
        costs.eec = np.full_like(costs.eec, 7.0)
        ref = MinMinHeuristic().plan(list(scenario.requests), costs, np.zeros(4))
        with streamed_at(5):
            fast = FastMinMinHeuristic().plan(list(scenario.requests), costs, np.zeros(4))
        assert plans_equal(ref, fast)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_tasks=st.integers(min_value=1, max_value=30),
        n_machines=st.integers(min_value=1, max_value=8),
        trust_aware=st.booleans(),
        chunk_size=st.sampled_from(CHUNK_SIZES),
    )
    def test_property_equivalence(self, seed, n_tasks, n_machines, trust_aware, chunk_size):
        scenario, costs = make_case(seed, n_tasks, n_machines, trust_aware)
        avail = np.random.default_rng(seed + 1).uniform(0, 500, size=n_machines)
        ref = MinMinHeuristic().plan(list(scenario.requests), costs, avail.copy())
        with streamed_at(chunk_size):
            fast = FastMinMinHeuristic().plan(list(scenario.requests), costs, avail.copy())
        assert plans_equal(ref, fast)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        max_tc=st.integers(min_value=0, max_value=6),
        infeasible=st.sampled_from(list(InfeasiblePolicy)),
    )
    def test_property_equivalence_under_constraint(self, seed, max_tc, infeasible):
        constraint = TrustConstraint(max_trust_cost=max_tc, infeasible=infeasible)
        scenario, costs = make_case(
            seed, n_tasks=18, n_machines=5, trust_aware=True, constraint=constraint
        )
        avail = np.random.default_rng(seed + 1).uniform(0, 200, size=5)
        ref = MinMinHeuristic().plan(list(scenario.requests), costs, avail.copy())
        with streamed_at(7):
            fast = FastMinMinHeuristic().plan(list(scenario.requests), costs, avail.copy())
        assert plans_equal(ref, fast)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_equivalence_with_retry_state(self, seed):
        scenario, costs = make_case(seed, n_tasks=16, n_machines=4, trust_aware=True)
        apply_retry_state(scenario, costs, seed)
        ref = MinMinHeuristic().plan(list(scenario.requests), costs, np.zeros(4))
        with streamed_at(3):
            fast = FastMinMinHeuristic().plan(list(scenario.requests), costs, np.zeros(4))
        assert plans_equal(ref, fast)


class TestRegistryExposure:
    def test_fast_variants_registered(self):
        from repro.scheduling.registry import is_batch, make_heuristic

        assert isinstance(make_heuristic("min-min-fast"), FastMinMinHeuristic)
        assert isinstance(make_heuristic("max-min-fast"), FastMaxMinHeuristic)
        assert isinstance(make_heuristic("sufferage-fast"), FastSufferageHeuristic)
        for name in ("min-min-fast", "max-min-fast", "sufferage-fast"):
            assert is_batch(name)

    def test_kernel_labels(self):
        for Fast in (
            FastMinMinHeuristic,
            FastMaxMinHeuristic,
            FastSufferageHeuristic,
        ):
            assert Fast.kernel == "vectorized"
        for Reference in (MinMinHeuristic, MaxMinHeuristic, SufferageHeuristic, KpbHeuristic):
            assert Reference.kernel == "reference"

    def test_reference_oracle_hooks(self):
        scenario, costs = make_case(seed=6, n_tasks=6, n_machines=3, trust_aware=True)
        avail = np.zeros(3)
        requests = list(scenario.requests)
        for Fast in (FastMinMinHeuristic, FastMaxMinHeuristic, FastSufferageHeuristic):
            heuristic = Fast()
            assert plans_equal(
                heuristic.plan(requests, costs, avail),
                heuristic._reference_plan(requests, costs, avail),
            )
