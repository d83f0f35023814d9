#!/usr/bin/env python
"""Crash-injection harness for the trust-plane write-ahead journal.

Drives a deterministic mixed workload (record / remove / observe /
declare / dissolve / grid set) through a
:class:`~repro.core.journal.DurableTrustPlane`, then re-runs it in a
forked child process that ``os._exit``-s at the *k*-th fsync boundary —
the hook installed via :func:`repro.core.journal.set_sync_hook` fires
before and after every ``fsync`` in the durability path (journal syncs,
and per compaction the five of a new generation: the base file, the new
journal's header, the root directory, then the ``CURRENT`` file and the
root again), so sweeping ``k`` over every boundary kills the writer at
every point the durability contract covers.  After each kill the parent
recovers the plane and asserts **recovery equivalence**:

* the recovered state is *identical* — trust records, epoch counters,
  learned accuracies, alliances, grid levels, and a bit-identical Γ
  surface — to a fresh, uncrashed replay of exactly the op prefix
  recovery reports; and
* the **durability floor** holds: every op acknowledged by a completed
  ``checkpoint()`` before the kill is part of that prefix.

The plane compacts both ways: by policy, whenever a ``checkpoint()`` finds
the journal past half the base (it then folds the tail without framing
or writing it), and once explicitly, at ``compact_at``.  The clean run's
acknowledgements map each generation to the ops folded into its base.

A torn-tail sweep then truncates (and bit-flips) the journal of every
generation the clean run wrote — each as it stood when the next compaction
began, and the final one — at sampled byte offsets, and asserts each
recovery settles on some intact prefix — torn frames truncate, they never
poison or refuse recovery.  Sweeping every generation makes the swept ops
independent of where the policy compactions fall.

Usage::

    PYTHONPATH=src python tools/crash_harness.py            # full sweep
    PYTHONPATH=src python tools/crash_harness.py --quick    # CI-bounded

Exit status 0 when every kill point recovers equivalently.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

if __name__ == "__main__":
    # The kill-point children are forked, which is safe only in a process
    # without threads: run as a script, the harness pins BLAS thread pools
    # to the calling thread before numpy is first imported.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.context import TrustContext  # noqa: E402
from repro.core.engine import TrustEngine  # noqa: E402
from repro.core.journal import (  # noqa: E402
    DurableTrustPlane,
    JournalConfig,
    TrustJournalError,
    set_sync_hook,
)
from repro.core.recommender import RecommenderWeights  # noqa: E402
from repro.core.tables import TrustTable  # noqa: E402
from repro.grid.trust_table import GridTrustTable  # noqa: E402

N_ENTITIES = 12
CONTEXT_NAMES = ("execute", "store")
GRID_SHAPE = (3, 4, 2)
CHILD_EXIT_CRASHED = 42


# -- deterministic workload -------------------------------------------------

def build_workload(seed: int, n_ops: int) -> list[tuple]:
    """A reproducible op sequence; every op is valid at its position."""
    rng = random.Random(seed)
    entities = [f"e{i}" for i in range(N_ENTITIES)]
    present: dict[tuple, None] = {}
    groups: dict[str, None] = {}
    group_seq = 0
    ops: list[tuple] = []
    for i in range(n_ops):
        r = rng.random()
        if r < 0.55 or (r < 0.62 and not present):
            z, y = rng.sample(entities, 2)
            c = rng.choice(CONTEXT_NAMES)
            ops.append(
                (
                    "record", z, y, c,
                    round(rng.random(), 6), float(i + 1), rng.randint(1, 5),
                )
            )
            present[(z, y, c)] = None
        elif r < 0.62:
            key = rng.choice(list(present))
            del present[key]
            ops.append(("remove", *key))
        elif r < 0.80:
            ops.append(
                (
                    "observe", rng.choice(entities),
                    round(rng.random(), 6), round(rng.random(), 6),
                )
            )
        elif r < 0.88:
            name = f"g{group_seq}"
            group_seq += 1
            ops.append(("declare", name, rng.sample(entities, 3)))
            groups[name] = None
        elif r < 0.92 and groups:
            name = rng.choice(list(groups))
            del groups[name]
            ops.append(("dissolve", name))
        else:
            ops.append(
                (
                    "set",
                    rng.randrange(GRID_SHAPE[0]),
                    rng.randrange(GRID_SHAPE[1]),
                    rng.randrange(GRID_SHAPE[2]),
                    rng.randint(1, 5),
                )
            )
    return ops


def fresh_state() -> tuple[TrustTable, RecommenderWeights, GridTrustTable]:
    return TrustTable(), RecommenderWeights(), GridTrustTable(*GRID_SHAPE)


def apply_workload_op(
    op: tuple,
    table: TrustTable,
    weights: RecommenderWeights,
    grid: GridTrustTable,
) -> None:
    kind = op[0]
    if kind == "record":
        _, z, y, c, v, t, n = op
        table.record(z, y, TrustContext(c), v, t, transaction_count=n)
    elif kind == "remove":
        _, z, y, c = op
        table.remove(z, y, TrustContext(c))
    elif kind == "observe":
        _, z, p, a = op
        weights.observe_outcome(z, p, a)
    elif kind == "declare":
        _, name, members = op
        weights.alliances.declare(name, members)
    elif kind == "dissolve":
        weights.alliances.dissolve(op[1])
    elif kind == "set":
        _, cd, rd, k, level = op
        grid.set(cd, rd, k, level)
    else:  # pragma: no cover - generator invariant
        raise AssertionError(f"unknown workload op {kind!r}")


# -- state comparison -------------------------------------------------------

def state_fingerprint(
    table: TrustTable, weights: RecommenderWeights, grid: GridTrustTable
) -> tuple:
    """Everything recovery must reproduce exactly, as comparable data."""
    return (
        [
            (z, y, c.name, r.value, r.last_transaction, r.transaction_count)
            for (z, y, c), r in table.items()
        ],
        table.epoch,
        sorted(weights._accuracy.items()),
        weights._epoch,
        {
            name: sorted(weights.alliances._groups[name])
            for name in weights.alliances._groups
        },
        weights.alliances.epoch,
        grid.levels.tolist(),
        (grid.epoch, sorted(grid._cd_epochs.items())),
    )


def assert_equivalent(
    recovered: tuple[TrustTable, RecommenderWeights, GridTrustTable],
    oracle: tuple[TrustTable, RecommenderWeights, GridTrustTable],
    label: str,
) -> None:
    """Recovered state must equal the oracle bit-for-bit, Γ included."""
    got = state_fingerprint(*recovered)
    want = state_fingerprint(*oracle)
    if got != want:
        for g, w, part in zip(
            got, want,
            ("records", "epoch", "accuracy", "w-epoch", "groups",
             "a-epoch", "grid", "g-epochs"),
        ):
            if g != w:
                raise AssertionError(
                    f"{label}: {part} diverged\n  recovered={g!r}\n  "
                    f"oracle={w!r}"
                )
    entities = [f"e{i}" for i in range(N_ENTITIES)]
    now = 1e6
    for c in CONTEXT_NAMES:
        ctx = TrustContext(c)
        eng_r = TrustEngine.build(table=recovered[0], weights=recovered[1])
        eng_o = TrustEngine.build(table=oracle[0], weights=oracle[1])
        for z in entities:
            for y in entities:
                if eng_r.gamma(z, y, ctx, now) != eng_o.gamma(z, y, ctx, now):
                    raise AssertionError(
                        f"{label}: Γ({z}, {y}) diverged in {c!r}"
                    )


def oracle_prefix(
    ops: list[tuple], n: int
) -> tuple[TrustTable, RecommenderWeights, GridTrustTable]:
    table, weights, grid = fresh_state()
    for op in ops[:n]:
        apply_workload_op(op, table, weights, grid)
    return table, weights, grid


# -- child process ----------------------------------------------------------

def run_child(
    root: Path,
    ops: list[tuple],
    sync_every: int,
    compact_at: int | None,
    crash_at: int,
    keep: Path | None = None,
) -> int:
    """Workload body; returns the total number of fsync-boundary events.

    With ``crash_at >= 0`` the process ``os._exit``-s the instant the
    hook fires for the ``crash_at``-th time — no cleanup, no flushing,
    the closest a single process gets to ``kill -9``.  With ``keep``, the
    plane is copied to ``keep/generation-<N>/plane`` as a compaction
    starts writing generation N+1's base, so each superseded generation
    survives as it then stood (copying fsyncs nothing, so the boundary
    count is unchanged).
    """
    events = 0

    def hook(phase: str, kind: str, path: Path) -> None:
        nonlocal events
        if events == crash_at:
            os._exit(CHILD_EXIT_CRASHED)
        events += 1
        if (
            keep is not None
            and phase == "before"
            and path.name.startswith("base-")
            and path.suffix == ".tmp"
            and (root / "CURRENT").is_file()
        ):
            current = current_generation(root)
            shutil.copytree(
                root, keep / f"generation-{current}" / "plane",
                ignore=shutil.ignore_patterns("*.tmp"),
            )

    acks = root.parent / "acks.jsonl"

    def ack(n_applied: int, plane: DurableTrustPlane, by: str) -> None:
        # Plain appended+fsynced line, deliberately outside the hook seam:
        # the ack is the parent's ground truth for the durability floor
        # and must not shift the swept kill points.
        with acks.open("a", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {
                        "n": n_applied,
                        "by": by,
                        "generation": plane.generation,
                        "offset": plane.journal_offset,
                    }
                )
                + "\n"
            )
            fh.flush()
            os.fsync(fh.fileno())

    set_sync_hook(hook)
    try:
        table, weights, grid = fresh_state()
        plane = DurableTrustPlane.create(
            root,
            table,
            weights,
            grid_table=grid,
            # No byte floor: checkpoint() compacts by the ratio policy
            # alone, besides the explicit compaction at compact_at.
            config=JournalConfig(min_compact_bytes=0),
        )
        for i, op in enumerate(ops):
            apply_workload_op(op, table, weights, grid)
            if (i + 1) % sync_every == 0:
                plane.checkpoint()
                ack(i + 1, plane, "checkpoint")
            if compact_at is not None and i + 1 == compact_at:
                plane.compact()
                ack(i + 1, plane, "compact")
        plane.checkpoint()
        ack(len(ops), plane, "checkpoint")
        plane.close()
    finally:
        set_sync_hook(None)
    return events


# -- parent-side verification ----------------------------------------------

def current_generation(root: Path) -> int:
    """The generation a plane's ``CURRENT`` file names."""
    return json.loads((root / "CURRENT").read_text())["generation"]


def read_acks(workdir: Path) -> list[dict]:
    """The checkpoint acknowledgements a child wrote under ``workdir``."""
    path = workdir / "acks.jsonl"
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def generation_bases(acks: list[dict]) -> dict[int, int]:
    """Generation → number of workload ops folded into its base: the op
    count of the first acknowledgement at that generation."""
    bases = {0: 0}
    for ack in acks:
        bases.setdefault(ack["generation"], ack["n"])
    return bases


def policy_compactions(acks: list[dict]) -> list[int]:
    """Op counts at which a ``checkpoint()`` compacted by policy."""
    found = []
    generation = 0
    for ack in acks:
        if ack["generation"] != generation and ack["by"] == "checkpoint":
            found.append(ack["n"])
        generation = ack["generation"]
    return found


def verify_root(
    root: Path,
    ops: list[tuple],
    bases: dict[int, int],
    label: str,
) -> None:
    """Recover ``root`` and assert recovery-equivalence + durability floor.

    ``bases`` maps each generation of the uncrashed run to the ops folded
    into its base (see :func:`generation_bases`).
    """
    acks = read_acks(root.parent)
    try:
        plane = DurableTrustPlane.recover(root)
    except TrustJournalError as exc:
        if acks:
            raise AssertionError(
                f"{label}: recovery refused ({exc}) after "
                f"{len(acks)} acknowledged checkpoints"
            ) from exc
        # Killed before provisioning completed: the plane never promised
        # anything, a typed refusal is the contract.
        return
    if plane.generation not in bases:
        raise AssertionError(
            f"{label}: recovered generation {plane.generation}, which the "
            "uncrashed run never reached"
        )
    # Ops before the compaction that started this generation live in its base.
    n = bases[plane.generation] + plane.recovered_ops
    if not 0 <= n <= len(ops):
        raise AssertionError(f"{label}: recovered {n} ops of {len(ops)}")
    assert_equivalent(
        (plane.table, plane.weights, plane.grid_table),
        oracle_prefix(ops, n),
        label,
    )
    floor = max((a["n"] for a in acks), default=0)
    if n < floor:
        raise AssertionError(
            f"{label}: durability floor violated — recovered {n} ops but "
            f"a completed checkpoint acknowledged {floor}"
        )
    plane.close()


def spawn_child(
    workdir: Path, spec: dict, ops: list[tuple], crash_at: int,
    keep: Path | None = None,
) -> tuple[int, str]:
    """Run the workload under ``workdir`` in a forked child; returns its
    exit status and what it reported (the boundary count of a clean run,
    or the traceback of a failed one).  ``keep`` is passed to
    :func:`run_child`."""
    for path in (workdir, keep):
        if path is not None and path.exists():
            shutil.rmtree(path)
    workdir.mkdir(parents=True)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: it reports through the pipe, then _exit-s
        os.close(read_fd)
        code = 1
        try:
            events = run_child(
                workdir / "plane", ops, spec["sync_every"], spec["compact_at"],
                crash_at, keep,
            )
            os.write(write_fd, str(events).encode())
            code = 0
        except Exception:
            os.write(write_fd, traceback.format_exc().encode())
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        out = pipe.read().decode()
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), out


def kill_point_sweep(
    base: Path, spec: dict, ops: list[tuple], stride: int
) -> tuple[int, int, list[dict]]:
    """Kill the child at every ``stride``-th fsync-boundary event.

    Returns the boundary count, the kill points swept and the clean run's
    acknowledgements.
    """
    # Clean run first: counts the boundary events, maps generations to
    # their bases and feeds the torn sweep (its final plane, and every
    # superseded generation kept under base/generations).
    clean_dir = base / "clean"
    code, out = spawn_child(
        clean_dir, spec, ops, crash_at=-1, keep=base / "generations"
    )
    if code != 0:
        raise AssertionError(f"clean run failed with exit {code}: {out}")
    total_events = int(out)
    acks = read_acks(clean_dir)
    bases = generation_bases(acks)
    verify_root(clean_dir / "plane", ops, bases, "clean run")
    swept = 0
    for k in range(0, total_events, stride):
        workdir = base / "kill"
        code, out = spawn_child(workdir, spec, ops, crash_at=k)
        if code != CHILD_EXIT_CRASHED:
            raise AssertionError(
                f"kill point {k}: child exited {code} instead of crashing "
                f"({out})"
            )
        verify_root(workdir / "plane", ops, bases, f"kill point {k}")
        swept += 1
    return total_events, swept, acks


def torn_tail_sweep(
    base: Path,
    spec: dict,
    ops: list[tuple],
    stride: int,
    bases: dict[int, int],
) -> int:
    """Truncate/corrupt every generation's journal at sampled offsets and
    recover: the clean run's final plane first, then each generation kept
    when a compaction superseded it."""
    kept = sorted(
        (base / "generations").glob("generation-*"),
        key=lambda path: int(path.name.removeprefix("generation-")),
    )
    checked = 0
    for i, source in enumerate([base / "clean", *kept]):
        checked += _tear_journal(base, source, spec["seed"] + 1 + i, ops, stride, bases)
    return checked


def _tear_journal(
    base: Path,
    source: Path,
    seed: int,
    ops: list[tuple],
    stride: int,
    bases: dict[int, int],
) -> int:
    """Recover copies of ``source/plane`` whose current journal is cut at
    every ``stride``-th byte offset (and its last byte), then copies with
    one of eight ``seed``-sampled bits flipped."""
    journal = source / "plane" / f"journal-{current_generation(source / 'plane')}.wal"
    size = journal.stat().st_size
    workdir = base / "torn"

    def torn_copy() -> Path:
        if workdir.exists():
            shutil.rmtree(workdir)
        # No acks file in the torn copy: losing acknowledged ops to a
        # *post-mortem* truncation is detection, not a floor violation.
        shutil.copytree(source / "plane", workdir / "plane")
        return workdir / "plane" / journal.name

    checked = 0
    for cut in list(range(0, size, stride)) + [max(0, size - 1)]:
        with torn_copy().open("r+b") as fh:
            fh.truncate(cut)
        verify_root(workdir / "plane", ops, bases, f"{journal.name} torn cut@{cut}")
        checked += 1
    # Bit-flips inside tail frames: CRC catches them, recovery truncates.
    rng = random.Random(seed)
    for flip in sorted(rng.sample(range(size), min(8, size))):
        target = torn_copy()
        data = bytearray(target.read_bytes())
        data[flip] ^= 0x40
        target.write_bytes(bytes(data))
        verify_root(workdir / "plane", ops, bases, f"{journal.name} bitflip@{flip}")
        checked += 1
    return checked


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=60)
    parser.add_argument("--sync-every", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--compact-at", type=int, default=None,
        help="workload index after which the plane compacts (default: "
        "2/3 through the run)",
    )
    parser.add_argument(
        "--stride", type=int, default=1,
        help="sweep every Nth fsync-boundary kill point",
    )
    parser.add_argument(
        "--torn-stride", type=int, default=7,
        help="truncate each generation's journal at every Nth byte offset",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI bound: fewer ops (every kill point is still swept)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.ops = min(args.ops, 36)
    compact_at = (
        args.compact_at
        if args.compact_at is not None
        else (2 * args.ops) // 3
    )
    spec = {
        "seed": args.seed,
        "n_ops": args.ops,
        "sync_every": args.sync_every,
        "compact_at": compact_at,
    }
    ops = build_workload(args.seed, args.ops)
    base = Path(tempfile.mkdtemp(prefix="crash-harness-"))
    try:
        total_events, swept, acks = kill_point_sweep(
            base, spec, ops, args.stride
        )
        torn = torn_tail_sweep(
            base, spec, ops, args.torn_stride, generation_bases(acks)
        )
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(
        f"crash harness OK: {swept} of {total_events} fsync-boundary kill "
        f"points swept (stride {args.stride}), {torn} torn-tail/bit-flip "
        f"recoveries verified, {args.ops} ops, sync every "
        f"{args.sync_every}, compaction at {compact_at} and by policy at "
        f"{policy_compactions(acks)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
