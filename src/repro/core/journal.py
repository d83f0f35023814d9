"""Write-ahead delta journal for the trust plane (``repro.trust.journal/v3``).

:class:`DurableTrustPlane` is the one way to persist or restore trust
state: a snapshot is a generation with an empty journal tail
(:meth:`DurableTrustPlane.create` then :meth:`~DurableTrustPlane.close`),
a restore is :meth:`DurableTrustPlane.recover`.  Rewriting a base
snapshot (:mod:`repro.core.store`, the base-segment codec) costs
O(store), which no hot service wants to pay per window, so this module
layers an append-only **write-ahead journal** over the base and the
steady state fsyncs only the delta: every trust mutation
(``record``/``remove``/``observe_outcome``/``declare``/``dissolve``/
``set``) appends one framed record, and recovery replays *base + journal
tail* to a state bit-identical to an uninterrupted run.

Frame format (all little-endian)::

    <u32 payload length> <u32 CRC-32 (zlib) of payload> <payload: compact JSON>

The first frame is a header pinning the journal schema and the SHA-256 of
the base snapshot's manifest, so a journal can never be replayed over the
wrong base.  Each mutation op carries, as ``e``, the epoch the mutation
produced on the object it mutated (``TrustTable.epoch`` for
``record``/``remove``, the weights' counter for ``observe``,
``AllianceRegistry.epoch`` for ``declare``/``dissolve``,
``GridTrustTable.cd_epoch`` for ``set`` and ``.epoch`` for ``fill``);
replay re-applies the op and verifies the epoch, turning any
base/journal divergence into a typed refusal instead of silent skew.

Torn tails are expected, not fatal: a crash mid-append leaves a short or
CRC-failing final frame, and recovery **truncates at the first bad
frame** rather than refusing wholesale — everything before the tear (in
particular everything up to the last completed :meth:`JournalWriter.sync`)
is recovered.  A checkpoint that *pins* an offset (``upto=``) is the
opposite contract: the pinned prefix was acknowledged as durable, so a
tear inside it is a hard error.

Every refusal — a plane of another schema (named by ``CURRENT``, checked
before any journal is read), a torn pinned prefix, a wrong
base, a diverging op, or a missing, tampered or truncated base segment
(Grid levels included) — raises
:class:`TrustJournalError` naming the offending path;
:func:`~repro.service.checkpoint.resolve_trust_journal` turns it into a
:class:`~repro.errors.CheckpointError`.

:class:`DurableTrustPlane` packages the full discipline: generation
directories (``base-<N>/`` + ``journal-<N>.wal``) selected by an
atomically swapped ``CURRENT`` file, delta checkpoints that fsync only
the journal tail, and compaction that folds the tail into a fresh base
once the journal outgrows ``compact_ratio`` × base size — keeping
checkpoint cost O(changes), not O(store).

Every ``os.fsync`` in the durability path (here, in
:func:`~repro.core.store.snapshot_trust_store` and in
:func:`~repro.service.checkpoint.save_checkpoint`) runs through
:func:`sync_file` / :func:`sync_dir`, which bracket the call with an
installable hook — the seam the crash-injection harness
(``tools/crash_harness.py``) uses to kill the writer at every fsync
boundary.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.context import TrustContext
from repro.core.recommender import AllianceRegistry, RecommenderWeights
from repro.core.tables import TrustTable
from repro.errors import TrustModelError

__all__ = [
    "JOURNAL_SCHEMA",
    "TrustJournalError",
    "JournalConfig",
    "JournalReplay",
    "JournalWriter",
    "DurableTrustPlane",
    "read_journal",
    "apply_op",
    "attach_journal",
    "detach_journal",
    "sync_file",
    "sync_dir",
    "set_sync_hook",
]

#: Schema tag carried by every journal header frame and delta-checkpoint
#: descriptor.
JOURNAL_SCHEMA = "repro.trust.journal/v3"

_FRAME = struct.Struct("<II")

#: Entity-id types whose JSON spelling :func:`_id_json` writes directly.
_ID_TYPES = (str, int)


class TrustJournalError(TrustModelError):
    """A durable trust plane cannot be restored: it has another schema,
    its base snapshot is missing, malformed or tampered, or its journal is torn
    inside a pinned prefix, replayed over the wrong base, or diverges
    from the state it claims to extend."""


# -- fsync seam -------------------------------------------------------------

#: Installed crash hook: ``hook(phase, kind, path)`` with ``phase`` in
#: ``{"before", "after"}`` and ``kind`` in ``{"file", "dir"}``.  Raising
#: from the hook aborts the caller mid-boundary — the crash-injection
#: harness raises (or ``os._exit``-s) here to simulate a kill.
_SYNC_HOOK: Callable[[str, str, Path], None] | None = None


def set_sync_hook(hook: Callable[[str, str, Path], None] | None) -> None:
    """Install (or clear, with ``None``) the global fsync-boundary hook."""
    global _SYNC_HOOK
    _SYNC_HOOK = hook


def sync_file(path: str | Path) -> None:
    """``fsync`` a file's contents, bracketed by the crash hook."""
    path = Path(path)
    if _SYNC_HOOK is not None:
        _SYNC_HOOK("before", "file", path)
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    if _SYNC_HOOK is not None:
        _SYNC_HOOK("after", "file", path)


def sync_dir(path: str | Path) -> None:
    """``fsync`` a directory entry (makes renames/creates durable)."""
    path = Path(path)
    if _SYNC_HOOK is not None:
        _SYNC_HOOK("before", "dir", path)
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    if _SYNC_HOOK is not None:
        _SYNC_HOOK("after", "dir", path)


# -- frame codec ------------------------------------------------------------

@functools.lru_cache(maxsize=1 << 16, typed=True)
def _id_json(entity: str | int) -> str:
    """JSON spelling of an exact ``str`` or ``int`` entity id, as
    ``json.dumps`` writes it (``typed=True`` keeps ``1`` and ``True`` apart)."""
    if type(entity) is str:
        return encode_basestring_ascii(entity)
    return int.__repr__(entity)


def _direct_payload(op: dict[str, Any]) -> str | None:
    """The compact sorted-key JSON of a ``record`` or ``set`` op, written
    without the encoder, or ``None`` when ``json.dumps`` must write it.

    The two hot ops are written only when they carry exactly their own
    keys, every id is an exact ``str``/``int``, every count an exact
    ``int`` and every float an exact, finite ``float`` (spelled with
    ``float.__repr__``, as ``json`` does); the output is then
    byte-identical to ``json.dumps(op, separators=(",", ":"),
    sort_keys=True)``.
    """
    kind = op.get("op")
    try:
        if kind == "record" and len(op) == 8:
            z, y, c = op["z"], op["y"], op["c"]
            v, t, n, e = op["v"], op["t"], op["n"], op["e"]
            if (
                type(c) is str
                and type(z) in _ID_TYPES
                and type(y) in _ID_TYPES
                and type(v) is float
                and type(t) is float
                and type(n) is int
                and type(e) is int
                and math.isfinite(v)
                and math.isfinite(t)
            ):
                return '{"c":%s,"e":%d,"n":%d,"op":"record","t":%r,"v":%r,"y":%s,"z":%s}' % (
                    _id_json(c), e, n, t, v, _id_json(y), _id_json(z),
                )
        elif kind == "set" and len(op) == 6:
            cd, rd, k, lv, e = op["cd"], op["rd"], op["k"], op["l"], op["e"]
            if (
                type(cd) is int
                and type(rd) is int
                and type(k) is int
                and type(lv) is int
                and type(e) is int
            ):
                return '{"cd":%d,"e":%d,"k":%d,"l":%d,"op":"set","rd":%d}' % (
                    cd, e, k, lv, rd,
                )
    except (KeyError, ValueError):
        # A missing key, or an int past the interpreter's digit limit:
        # json.dumps writes (or refuses) it.
        pass
    return None


def _frame(op: dict[str, Any]) -> bytes:
    text = _direct_payload(op)
    if text is None:
        # A directly written payload has exact str/int ids already.
        for key in ("z", "y", "g"):
            value = op.get(key)
            if value is not None and not isinstance(value, (str, int)):
                raise TrustJournalError(
                    f"journal op field {key!r} carries {value!r}, which is "
                    "not JSON-representable (use str or int entity ids)"
                )
        try:
            text = json.dumps(op, separators=(",", ":"), sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise TrustJournalError(
                f"journal op is not JSON-representable: {exc}"
            ) from exc
    payload = text.encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass(frozen=True)
class JournalReplay:
    """Result of :func:`read_journal`.

    Attributes:
        path: the journal file that was read.
        header: the parsed header frame, or ``None`` when even the header
            was torn (an empty journal contributes zero ops).
        ops: mutation ops after the header, in append order.
        valid_bytes: byte offset after the last intact frame — the offset
            the file is truncated to before appending resumes.
        truncated: whether a torn/short/CRC-failing tail was dropped.
        reason: human-readable description of the tear, if any.
    """

    path: Path
    header: dict[str, Any] | None
    ops: tuple[dict[str, Any], ...]
    valid_bytes: int
    truncated: bool
    reason: str | None


_UNSET = object()


def read_journal(
    path: str | Path,
    *,
    upto: int | None = None,
    expected_base: Any = _UNSET,
    metrics: Any = None,
) -> JournalReplay:
    """Read and frame-validate a journal, truncating at the first tear.

    Args:
        path: journal file written by :class:`JournalWriter`.
        upto: pin the replay to exactly this byte offset — the prefix a
            checkpoint acknowledged as durable.  A tear *inside* the pin,
            or a file shorter than it, is a hard error; bytes past it are
            ignored (they belong to an abandoned timeline).
        expected_base: when given, the header's base digest must match.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            a dropped tail bumps ``store.torn_frames``.

    Raises:
        TrustJournalError: missing file, non-journal content, wrong base,
            or a violated ``upto`` pin.
    """
    path = Path(path)
    if not path.is_file():
        raise TrustJournalError(f"no trust journal at {path}")
    data = path.read_bytes()
    if upto is not None:
        if upto > len(data):
            raise TrustJournalError(
                f"trust journal {path} is {len(data)} bytes, shorter than "
                f"the pinned checkpoint offset {upto}; refusing to resume"
            )
        data = data[:upto]
    frames: list[dict[str, Any]] = []
    pos = 0
    reason: str | None = None
    while pos < len(data):
        if pos + _FRAME.size > len(data):
            reason = f"short frame header at offset {pos}"
            break
        length, crc = _FRAME.unpack_from(data, pos)
        payload = data[pos + _FRAME.size : pos + _FRAME.size + length]
        if len(payload) < length:
            reason = f"short frame payload at offset {pos}"
            break
        if zlib.crc32(payload) != crc:
            reason = f"CRC-32 (zlib) mismatch at offset {pos}"
            break
        try:
            op = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            # A CRC-matching but unparsable frame is indistinguishable
            # from coincidental corruption (e.g. an all-zero tail whose
            # zero CRC matches the empty payload): truncate, don't refuse.
            reason = f"undecodable frame at offset {pos}"
            break
        if not isinstance(op, dict):
            reason = f"non-object frame at offset {pos}"
            break
        frames.append(op)
        pos += _FRAME.size + length
    truncated = reason is not None
    if upto is not None and (truncated or pos != upto):
        raise TrustJournalError(
            f"trust journal {path} is torn inside the pinned checkpoint "
            f"prefix ({reason or f'frame boundary at {pos} != pin {upto}'}); "
            "the acknowledged prefix must be intact — refusing to resume"
        )
    if truncated and metrics is not None and metrics.enabled:
        metrics.counter("store.torn_frames").add()
    header: dict[str, Any] | None = None
    ops: tuple[dict[str, Any], ...] = ()
    if frames:
        header = frames[0]
        if header.get("op") != "header" or header.get("schema") != JOURNAL_SCHEMA:
            raise TrustJournalError(
                f"{path} is not a trust journal (first frame is "
                f"{header.get('op')!r} / schema {header.get('schema')!r}, "
                f"expected header / {JOURNAL_SCHEMA!r})"
            )
        if expected_base is not _UNSET and header.get("base") != expected_base:
            raise TrustJournalError(
                f"trust journal {path} was written against base "
                f"{header.get('base')!r}, not the restored base "
                f"{expected_base!r}; refusing to replay it over the wrong "
                "snapshot"
            )
        ops = tuple(frames[1:])
    return JournalReplay(
        path=path,
        header=header,
        ops=ops,
        valid_bytes=pos,
        truncated=truncated,
        reason=reason,
    )


# -- writer -----------------------------------------------------------------

class JournalWriter:
    """Append-only framed journal writer with explicit durability points.

    Appends are buffered in memory; :meth:`sync` writes the buffer and
    ``fsync``-s the file.  Only synced bytes are promised to survive a
    crash — the buffer models the data an OS would lose with the process
    — which is exactly the contract the crash-injection harness asserts.
    """

    def __init__(
        self,
        path: Path,
        fh: Any,
        synced: int,
        base: Any,
        metrics: Any = None,
    ) -> None:
        self._path = path
        self._fh = fh
        self._synced = synced
        self._buffer = bytearray()
        self._base = base
        self._metrics = metrics
        self._closed = False

    @classmethod
    def create(
        cls, path: str | Path, *, base: Any = None, metrics: Any = None
    ) -> "JournalWriter":
        """Start a fresh journal at ``path`` (truncating any old file) and
        durably write its header frame."""
        path = Path(path)
        fh = path.open("wb")
        writer = cls(path, fh, synced=0, base=base, metrics=metrics)
        writer._buffer += _frame(
            {"op": "header", "schema": JOURNAL_SCHEMA, "base": base}
        )
        writer.sync()
        return writer

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        base: Any = _UNSET,
        truncate_to: int | None = None,
        metrics: Any = None,
    ) -> "JournalWriter":
        """Reopen an existing journal for appending.

        The file is frame-validated, truncated to its last intact frame
        (or to ``truncate_to``, discarding any longer abandoned tail),
        and positioned for append.  A journal whose header never became
        durable is restarted in place.
        """
        path = Path(path)
        if not path.is_file():
            return cls.create(
                path, base=None if base is _UNSET else base, metrics=metrics
            )
        replay = read_journal(
            path, upto=truncate_to, expected_base=base, metrics=metrics
        )
        valid = replay.valid_bytes
        if valid < path.stat().st_size:
            with path.open("r+b") as fh:
                fh.truncate(valid)
            sync_file(path)
        if replay.header is None:
            return cls.create(
                path, base=None if base is _UNSET else base, metrics=metrics
            )
        fh = path.open("ab")
        return cls(
            path, fh, synced=valid, base=replay.header.get("base"),
            metrics=metrics,
        )

    @property
    def path(self) -> Path:
        return self._path

    @property
    def base(self) -> Any:
        """Base-manifest digest pinned in the header frame."""
        return self._base

    @property
    def synced_offset(self) -> int:
        """Bytes durably on disk after the last :meth:`sync`."""
        return self._synced

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes that would be lost by a crash right now."""
        return len(self._buffer)

    def append(self, op: dict[str, Any]) -> int:
        """Buffer one op frame; returns the offset it will sync up to."""
        self._buffer += _frame(op)
        if self._metrics is not None and self._metrics.enabled:
            self._metrics.counter("store.journal_appends").add()
        return self._synced + len(self._buffer)

    def sync(self) -> int:
        """Write buffered frames and ``fsync``; returns the durable offset.

        The fsync is bracketed by the crash hook: a kill *before* loses
        the whole buffered batch, a kill *after* loses nothing — the two
        boundary cases the harness sweeps (torn middles are simulated by
        truncating/corrupting the file post-mortem).
        """
        if _SYNC_HOOK is not None:
            _SYNC_HOOK("before", "file", self._path)
        if self._buffer:
            self._fh.write(bytes(self._buffer))
            self._fh.flush()
        os.fsync(self._fh.fileno())
        if _SYNC_HOOK is not None:
            _SYNC_HOOK("after", "file", self._path)
        self._synced += len(self._buffer)
        self._buffer.clear()
        return self._synced

    def close(self) -> None:
        """Sync outstanding frames and close the file handle."""
        if self._closed:
            return
        self.sync()
        self._fh.close()
        self._closed = True

    def abandon(self) -> None:
        """Close the handle without syncing (buffered frames are dropped)."""
        if not self._closed:
            self._fh.close()
            self._closed = True

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if not self._closed:
                self._fh.close()
        except Exception:
            pass


# -- op application ---------------------------------------------------------

def apply_op(
    op: dict[str, Any],
    *,
    table: TrustTable | None = None,
    weights: RecommenderWeights | None = None,
    alliances: AllianceRegistry | None = None,
    grid_table: Any = None,
    path: Path | None = None,
    index: int | None = None,
) -> None:
    """Re-apply one journal op to live trust-plane objects.

    After applying, the epoch the op recorded is checked against the
    epoch the replay actually produced; a mismatch means the journal does
    not continue from the restored base and raises
    :class:`TrustJournalError` (naming the op and file) instead of
    letting the planes silently diverge.
    """
    kind = op.get("op")
    where = f"journal op #{index if index is not None else '?'}" + (
        f" in {path}" if path is not None else ""
    )

    def need(obj: Any, name: str) -> Any:
        if obj is None:
            raise TrustJournalError(
                f"{where} ({kind}) targets the {name}, but none was "
                "provided for replay"
            )
        return obj

    def check(actual: Any, what: str) -> None:
        expected = op.get("e")
        if expected is not None and actual != expected:
            raise TrustJournalError(
                f"{where} ({kind}) {what} mismatch: journal recorded "
                f"{expected!r}, replay produced {actual!r}; the journal "
                "does not continue from this base"
            )

    if kind == "record":
        t = need(table, "trust table")
        t.record(
            op["z"], op["y"], TrustContext(op["c"]),
            float(op["v"]), float(op["t"]),
            transaction_count=int(op["n"]),
        )
        check(t.epoch, "table epoch")
    elif kind == "remove":
        t = need(table, "trust table")
        try:
            t.remove(op["z"], op["y"], TrustContext(op["c"]))
        except KeyError:
            raise TrustJournalError(
                f"{where} (remove) deletes a record the base does not "
                f"hold ({op['z']!r}, {op['y']!r}, {op['c']!r})"
            ) from None
        check(t.epoch, "table epoch")
    elif kind == "observe":
        w = need(weights, "recommender weights")
        w.observe_outcome(op["z"], float(op["p"]), float(op["a"]))
        check(w._epoch, "weights epoch")
    elif kind == "declare":
        reg = alliances if alliances is not None else (
            weights.alliances if weights is not None else None
        )
        reg = need(reg, "alliance registry")
        reg.declare(op["g"], op["m"])
        check(reg.epoch, "alliance epoch")
    elif kind == "dissolve":
        reg = alliances if alliances is not None else (
            weights.alliances if weights is not None else None
        )
        reg = need(reg, "alliance registry")
        try:
            reg.dissolve(op["g"])
        except KeyError:
            raise TrustJournalError(
                f"{where} (dissolve) names alliance {op['g']!r}, which the "
                "base does not hold"
            ) from None
        check(reg.epoch, "alliance epoch")
    elif kind == "set":
        g = need(grid_table, "Grid trust table")
        g.set(int(op["cd"]), int(op["rd"]), int(op["k"]), int(op["l"]))
        check(g.cd_epoch(int(op["cd"])), f"CD {op['cd']} epoch")
    elif kind == "fill":
        g = need(grid_table, "Grid trust table")
        arr = np.asarray(op["levels"], dtype=np.int64).reshape(op["shape"])
        g.fill_from(arr)
        check(g.epoch, "Grid table epoch")
    else:
        raise TrustJournalError(f"{where}: unknown journal op {kind!r}")


def attach_journal(
    sink: Any,
    *,
    table: TrustTable | None = None,
    weights: RecommenderWeights | None = None,
    grid_table: Any = None,
) -> None:
    """Point the given trust-plane objects' mutation hooks at ``sink``.

    ``sink`` needs only an ``append(op)`` method — a raw
    :class:`JournalWriter` or a :class:`DurableTrustPlane`.  Attaching
    ``weights`` also attaches its alliance registry.  Attach **after**
    any replay: replayed mutations must not re-journal themselves.
    """
    if table is not None:
        table._journal = sink
    if weights is not None:
        weights._journal = sink
        weights.alliances._journal = sink
    if grid_table is not None:
        grid_table._journal = sink


def detach_journal(
    *,
    table: TrustTable | None = None,
    weights: RecommenderWeights | None = None,
    grid_table: Any = None,
) -> None:
    """Clear the mutation hooks installed by :func:`attach_journal`."""
    attach_journal(
        None, table=table, weights=weights, grid_table=grid_table
    )
    if weights is not None:
        weights.alliances._journal = None


# -- durable plane ----------------------------------------------------------

@dataclass(frozen=True)
class JournalConfig:
    """Compaction policy of a :class:`DurableTrustPlane`.

    Attributes:
        compact_ratio: fold the journal into a fresh base once its synced
            size exceeds this fraction of the base snapshot's size.
        min_compact_bytes: never compact below this journal size — a tiny
            base would otherwise trigger compaction on every checkpoint.
        keep_generations: how many superseded generations to retain after
            a compaction (old generations back a service checkpoint's
            pinned offset until the next checkpoint supersedes it).
    """

    compact_ratio: float = 0.5
    min_compact_bytes: int = 1 << 16
    keep_generations: int = 1

    def __post_init__(self) -> None:
        if self.compact_ratio <= 0.0:
            raise ValueError("compact_ratio must be positive")
        if self.min_compact_bytes < 0:
            raise ValueError("min_compact_bytes must be non-negative")
        if self.keep_generations < 0:
            raise ValueError("keep_generations must be non-negative")


def _atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True), "utf-8")
    sync_file(tmp)
    tmp.replace(path)
    sync_dir(path.parent)


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


class DurableTrustPlane:
    """A trust plane whose every mutation is crash-durable via the WAL.

    Layout under ``root``::

        CURRENT             {"schema": ..., "generation": N}  (atomic swap)
        base-<N>/           base snapshot (table, weights, Grid levels)
        journal-<N>.wal     framed mutation tail over base-<N>

    Use :meth:`create` to provision from live objects, :meth:`recover`
    after a crash or restart, :meth:`checkpoint` per service window (it
    fsyncs only the journal tail and auto-compacts), and :meth:`close`
    on clean shutdown.
    """

    def __init__(
        self,
        *,
        root: Path,
        generation: int,
        table: TrustTable,
        weights: RecommenderWeights | None,
        grid_table: Any,
        writer: JournalWriter,
        base_digest: str,
        base_bytes: int,
        config: JournalConfig,
        metrics: Any = None,
        recovered_ops: int = 0,
        recovered_truncated: bool = False,
    ) -> None:
        self.root = root
        self.generation = generation
        self.table = table
        self.weights = weights
        self.grid_table = grid_table
        self.config = config
        self.metrics = metrics
        self.recovered_ops = recovered_ops
        self.recovered_truncated = recovered_truncated
        self._writer = writer
        self._base_digest = base_digest
        self._base_bytes = base_bytes
        attach_journal(
            self, table=table, weights=weights, grid_table=grid_table
        )

    # -- sink protocol -----------------------------------------------------

    def append(self, op: dict[str, Any]) -> int:
        """Mutation hook target: buffer one op into the current journal."""
        return self._writer.append(op)

    # -- provisioning ------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | Path,
        table: TrustTable,
        weights: RecommenderWeights | None = None,
        *,
        grid_table: Any = None,
        config: JournalConfig | None = None,
        metrics: Any = None,
    ) -> "DurableTrustPlane":
        """Provision a fresh plane at ``root`` from live objects.

        Snapshots the current state as ``base-0``, starts ``journal-0``,
        and attaches the mutation hooks.  Until the trailing ``CURRENT``
        write lands, :meth:`recover` refuses the root — provisioning is
        all-or-nothing.
        """
        from repro.core.store import snapshot_trust_store

        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        config = config or JournalConfig()
        base_dir = root / "base-0"
        manifest_path = snapshot_trust_store(
            base_dir, table, weights, grid_table=grid_table
        )
        digest = _manifest_digest(manifest_path)
        writer = JournalWriter.create(
            root / "journal-0.wal", base=digest, metrics=metrics
        )
        _atomic_write_json(
            root / "CURRENT", {"schema": JOURNAL_SCHEMA, "generation": 0}
        )
        return cls(
            root=root,
            generation=0,
            table=table,
            weights=weights,
            grid_table=grid_table,
            writer=writer,
            base_digest=digest,
            base_bytes=_dir_bytes(base_dir),
            config=config,
            metrics=metrics,
        )

    @classmethod
    def recover(
        cls,
        root: str | Path,
        *,
        generation: int | None = None,
        upto: int | None = None,
        grid_table: Any = None,
        config: JournalConfig | None = None,
        metrics: Any = None,
    ) -> "DurableTrustPlane":
        """Recover the plane at ``root``: base restore + journal replay.

        The journal tail past the last intact frame is truncated (torn
        frames are expected after a crash); everything up to the last
        completed sync is replayed and epoch-verified against the base.
        An intact op the trust objects refuse raises
        :class:`TrustJournalError` naming the path, op index and op kind.

        Args:
            generation: pin a specific generation (a service checkpoint's
                sidecar does this); the plane rolls ``CURRENT`` back to it
                and discards newer generations — they belong to a timeline
                the resumed service is about to re-execute.
            upto: pin the journal byte offset acknowledged by a
                checkpoint; a tear inside the pin is a hard error, frames
                past it are discarded.
            grid_table: optional pre-built Grid table to restore the
                persisted Grid levels into (custom ETS tables do not
                survive JSON); by default the persisted shape rebuilds one.
        """
        from repro.core.store import restore_trust_store

        root = Path(root)
        config = config or JournalConfig()
        current_path = root / "CURRENT"
        if not current_path.is_file():
            raise TrustJournalError(
                f"no durable trust plane at {root} (missing {current_path})"
            )
        try:
            current = json.loads(current_path.read_text("utf-8"))
            schema = current["schema"]
            active = int(current["generation"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise TrustJournalError(
                f"corrupt trust-plane CURRENT file {current_path}: {exc}"
            ) from exc
        # Checked before any journal is read: an older plane's frames fail
        # this codec's checksum and would otherwise be truncated as a tear.
        if schema != JOURNAL_SCHEMA:
            raise TrustJournalError(
                f"trust plane {current_path} has schema {schema!r}, not "
                f"{JOURNAL_SCHEMA!r}; refusing to recover it"
            )
        gen = active if generation is None else generation
        base_dir = root / f"base-{gen}"
        journal_path = root / f"journal-{gen}.wal"
        if not (base_dir / "manifest.json").is_file():
            # A crash between the two renames of an atomic re-snapshot
            # leaves the previous (complete, fsynced) base parked as
            # "base-<N>.old": restore that rather than refusing over a
            # target the swap never finished.
            parked = root / f"base-{gen}.old"
            if not (parked / "manifest.json").is_file():
                raise TrustJournalError(
                    f"trust-plane generation {gen} has no base manifest at "
                    f"{base_dir / 'manifest.json'} (compacted away?); "
                    "cannot recover it"
                )
            base_dir = parked
        manifest_path = base_dir / "manifest.json"
        digest = _manifest_digest(manifest_path)
        replay = read_journal(journal_path, upto=upto, metrics=metrics)
        # The header pins the manifest, which pins every segment: check
        # the pin first, so a tampered manifest is named as the offender.
        if replay.header is not None and replay.header.get("base") != digest:
            raise TrustJournalError(
                f"base manifest {manifest_path} is not the base "
                f"{journal_path} was written against (sha256 {digest!r} != "
                f"{replay.header.get('base')!r}); refusing to replay the "
                "journal over the wrong snapshot"
            )
        table, weights, grid = restore_trust_store(
            base_dir, grid_table=grid_table
        )
        for i, op in enumerate(replay.ops):
            try:
                apply_op(
                    op,
                    table=table,
                    weights=weights,
                    grid_table=grid,
                    path=journal_path,
                    index=i,
                )
            except (ValueError, TypeError, KeyError) as exc:
                # A CRC-valid op the trust objects refuse (a value off its
                # range, a cell off the table, a missing field) is corrupt
                # content, not a torn tail: name it rather than truncate it.
                raise TrustJournalError(
                    f"journal op #{i} in {journal_path} ({op.get('op')}) is "
                    f"refused on replay: {exc!r}"
                ) from exc
        writer = JournalWriter.open(
            journal_path,
            base=digest,
            truncate_to=replay.valid_bytes,
            metrics=metrics,
        )
        if gen != active:
            # Rolling back to a pinned older generation: re-point CURRENT
            # and drop the newer timeline (it is about to be re-executed).
            _atomic_write_json(
                root / "CURRENT",
                {"schema": JOURNAL_SCHEMA, "generation": gen},
            )
            _drop_generations(root, keep_from=gen, keep_back=0, active=gen)
        if metrics is not None and metrics.enabled:
            metrics.counter("store.recoveries").add()
        return cls(
            root=root,
            generation=gen,
            table=table,
            weights=weights,
            grid_table=grid,
            writer=writer,
            base_digest=digest,
            base_bytes=_dir_bytes(base_dir),
            config=config,
            metrics=metrics,
            recovered_ops=len(replay.ops),
            recovered_truncated=replay.truncated,
        )

    # -- checkpointing -----------------------------------------------------

    @property
    def journal_offset(self) -> int:
        """Durable byte offset of the current journal."""
        return self._writer.synced_offset

    @property
    def journal_path(self) -> Path:
        return self._writer.path

    @property
    def base_digest(self) -> str:
        """SHA-256 of the current base snapshot's manifest."""
        return self._base_digest

    def checkpoint(self) -> dict[str, Any]:
        """Make every buffered mutation durable; O(changes), not O(store).

        Fsyncs only the journal tail.  When the journal has outgrown
        ``compact_ratio`` × base size it is folded into a fresh base
        first.  Returns a delta descriptor suitable for embedding in a
        service checkpoint (see
        :func:`repro.service.checkpoint.attach_trust_journal`).
        """
        offset = self._writer.sync()
        if self._should_compact(offset):
            self.compact()
            offset = self._writer.synced_offset
        return {
            "schema": JOURNAL_SCHEMA,
            "root": str(self.root),
            "generation": self.generation,
            "offset": offset,
            "base_sha256": self._base_digest,
        }

    def _should_compact(self, journal_bytes: int) -> bool:
        threshold = max(
            self.config.min_compact_bytes,
            int(self.config.compact_ratio * self._base_bytes),
        )
        return journal_bytes > threshold

    def compact(self) -> None:
        """Fold the journal tail into a fresh base generation.

        Writes ``base-<N+1>`` from the live objects, starts an empty
        ``journal-<N+1>``, atomically swaps ``CURRENT``, then prunes
        generations older than ``keep_generations``.  A crash anywhere
        before the ``CURRENT`` swap leaves the old generation authoritative
        and intact.
        """
        from repro.core.store import snapshot_trust_store

        new_gen = self.generation + 1
        base_dir = self.root / f"base-{new_gen}"
        manifest_path = snapshot_trust_store(
            base_dir, self.table, self.weights, grid_table=self.grid_table
        )
        digest = _manifest_digest(manifest_path)
        writer = JournalWriter.create(
            self.root / f"journal-{new_gen}.wal",
            base=digest,
            metrics=self.metrics,
        )
        _atomic_write_json(
            self.root / "CURRENT",
            {"schema": JOURNAL_SCHEMA, "generation": new_gen},
        )
        old_writer = self._writer
        self._writer = writer
        self.generation = new_gen
        self._base_digest = digest
        self._base_bytes = _dir_bytes(base_dir)
        old_writer.abandon()
        _drop_generations(
            self.root,
            keep_from=new_gen,
            keep_back=self.config.keep_generations,
            active=new_gen,
        )

    def close(self) -> None:
        """Sync outstanding frames, detach hooks, release the journal."""
        detach_journal(
            table=self.table,
            weights=self.weights,
            grid_table=self.grid_table,
        )
        self._writer.close()


def _manifest_digest(manifest_path: Path) -> str:
    import hashlib

    return hashlib.sha256(manifest_path.read_bytes()).hexdigest()


def _drop_generations(
    root: Path, *, keep_from: int, keep_back: int, active: int
) -> None:
    """Best-effort removal of generations outside the retention window."""
    import re
    import shutil

    floor = keep_from - keep_back
    for entry in root.iterdir():
        match = re.fullmatch(r"base-(\d+)", entry.name) or re.fullmatch(
            r"journal-(\d+)\.wal", entry.name
        )
        if match is None:
            continue
        gen = int(match.group(1))
        if gen == active or floor <= gen <= keep_from:
            continue
        try:
            if entry.is_dir():
                shutil.rmtree(entry)
            else:
                entry.unlink()
        except OSError:  # pragma: no cover - cleanup is advisory
            pass

