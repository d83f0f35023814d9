"""The heap-keyed Min-min claim loop commits exactly the oracle's plan.

:class:`~repro.scheduling.minmin.MinMinHeuristic` reads the minimum of one
``(value, position, machine)`` key per machine queue off a heap and
re-keys a queue only when its key reaches the top stale (its row was
committed through another machine) or its row wins.  These properties pin
it to :func:`~repro.scheduling.minmin.greedy_min_completion_plan` item for
item on ECC matrices built to stress exactly that: rows cheapest on many
machines (stale keys pile up), duplicate values around the claim queues'
block boundary, ``+inf`` entries (constraint masks and retry exclusions,
all-``inf`` rows included) and a single machine.

The queues are ordered by an unstable sort whose ties are repaired, and a
refill drops the rows already committed and reads past raw blocks that
hold none; the deterministic cases at the end pin both: long runs of
equal values across several blocks, a run that straddles a block
boundary, a next raw block that is fully committed, and a constrained
window whose every column ends in a run of ``+inf``.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.minmin import _BLOCK, MinMinHeuristic, greedy_min_completion_plan


class MatrixCosts:
    """A cost provider reduced to one believed-ECC matrix.

    Request ``i`` is the int ``i`` and row ``i`` of ``ecc``; the streamed
    assembly yields ``chunk``-row pieces, so columns are filled across
    chunk boundaries.
    """

    def __init__(self, ecc: np.ndarray, chunk: int) -> None:
        self.ecc = ecc
        self.chunk = chunk
        self.grid = SimpleNamespace(n_machines=ecc.shape[1])

    def mapping_ecc_row(self, request: int) -> np.ndarray:
        return self.ecc[request]

    def mapping_ecc_chunks(self, requests):
        rows = self.ecc[list(requests)]
        for start in range(0, len(rows), self.chunk):
            yield start, rows[start : start + self.chunk]


def plan_items(plan) -> list[tuple[int, int, int]]:
    return [(p.request, p.machine_index, p.order) for p in plan]


def assert_matches_oracle(ecc: np.ndarray, avail: np.ndarray, chunk: int = 64) -> None:
    costs = MatrixCosts(ecc, chunk)
    requests = list(range(ecc.shape[0]))
    got = MinMinHeuristic().plan(requests, costs, avail.copy())
    want = greedy_min_completion_plan(requests, costs, avail.copy(), prefer_max=False)
    assert plan_items(got) == plan_items(want)


#: Few distinct integer costs: ties inside and across columns everywhere,
#: and every sum with an integer availability is exact.
TIED = np.array([1.0, 2.0, 3.0, 5.0, 8.0])


@st.composite
def matrices(draw, max_tasks: int = 2 * _BLOCK + 40):
    """An ECC matrix and availability vector with adversarial structure."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, max_tasks))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        ecc = rng.choice(TIED, size=(n, m))
        avail = rng.choice(np.array([0.0, 0.0, 1.0, 4.0]), size=m)
    else:
        ecc = rng.uniform(1.0, 100.0, size=(n, m))
        avail = rng.uniform(0.0, 50.0, size=m)
    # Rows cheapest on (almost) every machine: each wins once, and its key
    # on every other queue goes stale.
    cheap = rng.choice(n, size=draw(st.integers(0, min(n, 24))), replace=False)
    ecc[cheap] = rng.choice(np.array([0.25, 0.5]), size=(len(cheap), m))
    # Retry exclusions and relaxed constraint masks: single +inf entries.
    ecc[rng.random((n, m)) < draw(st.sampled_from((0.0, 0.2, 0.6)))] = np.inf
    # Every row keeps a finite machine unless all-inf rows (REJECT-style
    # constraints) are drawn as well.
    finite_less = ~np.isfinite(ecc).any(axis=1)
    ecc[finite_less, rng.integers(0, m, size=int(finite_less.sum()))] = TIED[0]
    if draw(st.booleans()):
        ecc[rng.random(n) < 0.1] = np.inf
    return ecc, avail


@settings(max_examples=150, deadline=None)
@given(case=matrices(), chunk=st.sampled_from((1, 7, 64, 10_000)))
def test_heap_claims_match_oracle(case, chunk):
    ecc, avail = case
    assert_matches_oracle(ecc, avail, chunk)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(1, 24),
    m=st.integers(1, 4),
)
def test_duplicates_straddle_the_block_boundary(seed, extra, m):
    """A column of one repeated value across the 256-entry block cursor:
    the stable static order continues into the next block by position."""
    rng = np.random.default_rng(seed)
    n = _BLOCK + extra
    ecc = np.full((n, m), 3.0)
    ecc[rng.random((n, m)) < 0.3] = 2.0
    assert_matches_oracle(ecc, np.zeros(m))


def test_one_row_cheapest_everywhere_each_round():
    # Row i costs i on every machine: each round's winner is the head of
    # every queue, so all m - 1 other keys go stale at once.
    n, m = _BLOCK + 5, 5
    ecc = np.repeat(np.arange(n, dtype=float)[:, None], m, axis=1)
    assert_matches_oracle(ecc, np.zeros(m))


def test_single_machine():
    ecc = np.array([[4.0], [1.0], [1.0], [np.inf], [2.0]])
    assert_matches_oracle(ecc, np.array([3.0]))


def test_tied_columns_over_three_blocks():
    # Five distinct values over 3·_BLOCK + 17 rows: every queue is a few
    # long runs of equal values, each read across several blocks, and
    # their order inside a run decides which request commits first.
    rng = np.random.default_rng(11)
    n, m = 3 * _BLOCK + 17, 4
    ecc = rng.choice(TIED, size=(n, m))
    assert_matches_oracle(ecc, np.array([0.0, 1.0, 0.0, 4.0]))


def test_equal_run_straddles_a_block_boundary():
    # Each queue holds _BLOCK - 40 rows at 1.0, then a run of 80 rows at
    # 3.0 that starts in its first block and ends in its second.
    rng = np.random.default_rng(12)
    n, m = 2 * _BLOCK + 64, 3
    ecc = np.full((n, m), 9.0)
    for j in range(m):
        rows = rng.permutation(n)
        ecc[rows[: _BLOCK - 40], j] = 1.0
        ecc[rows[_BLOCK - 40 : _BLOCK + 40], j] = 3.0
    assert_matches_oracle(ecc, np.zeros(m))


def test_next_raw_block_fully_committed():
    # Queue 0 orders rows by index.  Machine 1 is cheapest for rows
    # _BLOCK .. 2·_BLOCK - 1 and commits all of them while machine 0 is
    # still in its first block, so machine 0's refill finds its second
    # raw block fully committed and must read on into the third, where
    # the two machines compete for the remaining rows.
    n = 3 * _BLOCK
    ecc = np.empty((n, 2))
    ecc[:, 0] = np.arange(1.0, n + 1.0)
    ecc[:, 1] = 1e6
    ecc[_BLOCK : 2 * _BLOCK, 1] = 0.5
    ecc[2 * _BLOCK :, 1] = 3000.0 + np.arange(_BLOCK)[::-1]
    items = MinMinHeuristic().plan(list(range(n)), MatrixCosts(ecc, 64), np.zeros(2))
    plan = {p.request: p for p in items}
    first = [plan[r] for r in range(_BLOCK)]
    second = [plan[r] for r in range(_BLOCK, 2 * _BLOCK)]
    assert all(p.machine_index == 0 for p in first)
    assert all(p.machine_index == 1 for p in second)
    assert max(p.order for p in second) < max(p.order for p in first)
    assert_matches_oracle(ecc, np.zeros(2))


def test_constrained_window_every_column_ties_at_inf():
    # A trust constraint prices infeasible machines at +inf: every column
    # ends in a run of +inf, and REJECT-style rows are +inf everywhere.
    rng = np.random.default_rng(13)
    n, m = 2 * _BLOCK + 30, 4
    ecc = rng.uniform(1.0, 50.0, size=(n, m))
    ecc[rng.random((n, m)) < 0.4] = np.inf
    ecc[rng.random(n) < 0.05] = np.inf
    assert all(np.isinf(ecc[:, j]).sum() > 1 for j in range(m))
    assert_matches_oracle(ecc, np.array([0.0, 2.0, 5.0, 1.0]))
