"""In-process crash-injection property tests for the trust journal.

The subprocess harness (``tools/crash_harness.py``) is the
ground-truth sweep — it really ``os._exit``-s mid-write.  These tests
cover the same recovery-equivalence contract at hypothesis scale by
raising out of the fsync hook instead of killing the process: a raise at
a sync boundary aborts the workload exactly where a crash would, the
plane object is discarded un-closed, and recovery runs against whatever
bytes reached the disk.  Random op sequences × random kill points, plus
torn-tail truncation and bit-flip sweeps over completed journals.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.journal import (
    DurableTrustPlane,
    JournalConfig,
    TrustJournalError,
    set_sync_hook,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from crash_harness import (  # noqa: E402
    assert_equivalent,
    build_workload,
    apply_workload_op,
    fresh_state,
    generation_bases,
    oracle_prefix,
    policy_compactions,
    read_acks,
    run_child,
)


class _SimulatedCrash(BaseException):
    """Raised out of the sync hook; BaseException so nothing absorbs it."""


@pytest.fixture(autouse=True)
def _clean_hook():
    yield
    set_sync_hook(None)


def _run_until_crash(root, ops, sync_every, crash_at):
    """Drive the workload, aborting at the ``crash_at``-th fsync boundary.

    Returns the number of ops acknowledged by a completed checkpoint
    before the crash (the durability floor), or ``None`` when the
    workload ran to completion without hitting ``crash_at``.
    """
    events = 0

    def hook(phase, kind, path):
        nonlocal events
        if events == crash_at:
            raise _SimulatedCrash
        events += 1

    acked = 0
    set_sync_hook(hook)
    try:
        table, weights, grid = fresh_state()
        plane = DurableTrustPlane.create(
            root, table, weights, grid_table=grid,
            config=JournalConfig(min_compact_bytes=1 << 30),
        )
        for i, op in enumerate(ops):
            apply_workload_op(op, table, weights, grid)
            if (i + 1) % sync_every == 0:
                plane.checkpoint()
                acked = i + 1
        plane.checkpoint()
        acked = len(ops)
    except _SimulatedCrash:
        return acked
    finally:
        set_sync_hook(None)
    plane.close()
    return None


def _verify_recovery(root, ops, acked, label):
    try:
        plane = DurableTrustPlane.recover(root)
    except TrustJournalError:
        assert acked == 0, f"{label}: refused after {acked} acked ops"
        return
    n = plane.recovered_ops
    assert 0 <= n <= len(ops), f"{label}: recovered {n} of {len(ops)}"
    assert n >= acked, (
        f"{label}: durability floor violated — recovered {n}, acked {acked}"
    )
    assert_equivalent(
        (plane.table, plane.weights, plane.grid_table),
        oracle_prefix(ops, n),
        label,
    )
    plane.close()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**16),
    n_ops=st.integers(5, 40),
    sync_every=st.integers(1, 9),
    crash_at=st.integers(0, 200),
)
def test_random_kill_points_recover_equivalently(
    tmp_path_factory, seed, n_ops, sync_every, crash_at
):
    root = tmp_path_factory.mktemp("crash") / "plane"
    ops = build_workload(seed, n_ops)
    acked = _run_until_crash(root, ops, sync_every, crash_at)
    if acked is None:
        acked = len(ops)  # ran clean: everything is acknowledged
    _verify_recovery(root, ops, acked, f"seed={seed} k={crash_at}")


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**16),
    cut=st.floats(0.0, 1.0),
)
def test_torn_truncation_recovers_some_prefix(tmp_path_factory, seed, cut):
    root = tmp_path_factory.mktemp("torn") / "plane"
    ops = build_workload(seed, 20)
    table, weights, grid = fresh_state()
    plane = DurableTrustPlane.create(
        root, table, weights, grid_table=grid,
        config=JournalConfig(min_compact_bytes=1 << 30),
    )
    for op in ops:
        apply_workload_op(op, table, weights, grid)
    plane.checkpoint()
    plane.close()
    journal = root / "journal-0.wal"
    size = journal.stat().st_size
    with journal.open("r+b") as fh:
        fh.truncate(int(cut * size))
    # Truncation happened after the last ack, so the floor is void: the
    # contract is graceful settling on an intact prefix, never refusal.
    _verify_recovery(root, ops, 0, f"seed={seed} cut={cut:.3f}")


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**16),
    where=st.floats(0.0, 1.0),
    bit=st.integers(0, 7),
)
def test_bit_flip_recovers_some_prefix(tmp_path_factory, seed, where, bit):
    root = tmp_path_factory.mktemp("flip") / "plane"
    ops = build_workload(seed, 20)
    table, weights, grid = fresh_state()
    plane = DurableTrustPlane.create(
        root, table, weights, grid_table=grid,
        config=JournalConfig(min_compact_bytes=1 << 30),
    )
    for op in ops:
        apply_workload_op(op, table, weights, grid)
    plane.checkpoint()
    plane.close()
    journal = root / "journal-0.wal"
    data = bytearray(journal.read_bytes())
    pos = min(int(where * len(data)), len(data) - 1)
    data[pos] ^= 1 << bit
    journal.write_bytes(bytes(data))
    _verify_recovery(root, ops, 0, f"seed={seed} flip@{pos}.{bit}")


@pytest.mark.parametrize("n_ops", [36, 60], ids=["quick", "full"])
def test_harness_sweep_compacts_by_policy_and_explicitly(tmp_path, n_ops):
    # The subprocess sweep (tools/crash_harness.py, --quick in CI) kills
    # the writer inside every compaction of this uncrashed run; at least
    # one must be triggered by checkpoint()'s policy, which folds the
    # tail without framing it.
    compact_at = 2 * n_ops // 3
    run_child(
        tmp_path / "plane", build_workload(0, n_ops), 8, compact_at, crash_at=-1
    )
    acks = read_acks(tmp_path)
    assert policy_compactions(acks)
    assert compact_at in generation_bases(acks).values()
