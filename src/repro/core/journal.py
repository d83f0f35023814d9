"""Write-ahead delta journal for the trust plane (``repro.trust.journal/v3``).

:class:`DurableTrustPlane` is the one way to persist or restore trust
state: a snapshot is a generation with an empty journal tail
(:meth:`DurableTrustPlane.create` then :meth:`~DurableTrustPlane.close`),
a restore is :meth:`DurableTrustPlane.recover`.  Rewriting a base
snapshot (:mod:`repro.core.store`, the base-file codec) costs
O(store), which no hot service wants to pay per window, so this module
layers an append-only **write-ahead journal** over the base and the
steady state fsyncs only the delta: every trust mutation
(``record``/``remove``/``observe_outcome``/``declare``/``dissolve``/
``set``) appends one op, and recovery replays *base + journal tail* to a
state bit-identical to an uninterrupted run.

An appended op is held unframed, and framed only when its bytes are
needed (a sync, a close, or a read of
:attr:`JournalWriter.pending_bytes`).  A checkpoint whose synced bytes
plus the held tail's size floor already pass the compaction threshold
folds the tail into a new base without ever framing it; the decision is
the one the framed size would give, so only fewer bytes are written.

Frame format (all little-endian)::

    <u32 payload length> <u32 CRC-32 (zlib) of payload> <payload: compact JSON>

The first frame is a header pinning the journal schema and the SHA-256 of
the base file (the digest the file itself ends with), so a journal can
never be replayed over the wrong base.  Each mutation op carries, as
``e``, the epoch the mutation produced on the object it mutated
(``TrustTable.epoch`` for ``record``/``remove``, the weights' counter
for ``observe``, ``AllianceRegistry.epoch`` for ``declare``/``dissolve``,
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
before any journal is read), a ``repro.trust.store/v2`` base directory
or a missing, tampered or truncated base file (Grid levels included),
both checked before the journal is read, a torn pinned prefix, a wrong
base or a diverging op — raises
:class:`TrustJournalError` naming the offending path;
:func:`~repro.service.checkpoint.resolve_trust_journal` turns it into a
:class:`~repro.errors.CheckpointError`.

:class:`DurableTrustPlane` packages the full discipline: generations of
two files each (``base-<N>`` + ``journal-<N>.wal``) selected by an
atomically swapped ``CURRENT`` file, delta checkpoints that fsync only
the journal tail, and compaction that folds the tail into a fresh base
once the journal outgrows :data:`COMPACT_RATIO` × base size — keeping
checkpoint cost O(changes), not O(store).  A compaction makes five
fsyncs, in this order::

    base-<N+1>.tmp      written, fsynced
    journal-<N+1>.wal   header frame pinning the base digest, fsynced
    base-<N+1>          os.replace of the tmp file, then one fsync of the
                        root makes both new names durable
    CURRENT             CURRENT.tmp written, fsynced, os.replace, root fsynced

and then unlinks the generations :data:`KEEP_GENERATIONS` no longer
keeps.  Until the ``CURRENT`` swap the previous generation stays live.

Every ``os.fsync`` in the durability path (here, in
:func:`~repro.core.store.snapshot_trust_store` and in
:func:`~repro.service.checkpoint.save_checkpoint`) runs through
:func:`sync_file` / :func:`sync_dir` (or the descriptor form they share),
which bracket the call with an installable hook — the seam the
crash-injection harness (``tools/crash_harness.py``) uses to kill the
writer at every fsync boundary.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
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
from repro.errors import ConfigurationError, TrustModelError

__all__ = [
    "JOURNAL_SCHEMA",
    "TrustJournalError",
    "JournalConfig",
    "JournalWriter",
    "DurableTrustPlane",
    "apply_op",
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


def _fsync(fd: int, kind: str, path: Path) -> None:
    """``fsync`` an open descriptor, bracketed by the crash hook."""
    if _SYNC_HOOK is not None:
        _SYNC_HOOK("before", kind, path)
    os.fsync(fd)
    if _SYNC_HOOK is not None:
        _SYNC_HOOK("after", kind, path)


def sync_file(path: str | Path) -> None:
    """``fsync`` a file's contents, bracketed by the crash hook."""
    path = Path(path)
    fd = os.open(path, os.O_RDONLY)
    try:
        _fsync(fd, "file", path)
    finally:
        os.close(fd)


def sync_dir(path: str | Path) -> None:
    """``fsync`` a directory entry (makes renames/creates durable)."""
    path = Path(path)
    fd = os.open(path, os.O_RDONLY)
    try:
        _fsync(fd, "dir", path)
    finally:
        os.close(fd)


def _write_synced(path: Path, parts: list[Any]) -> None:
    """Create (or truncate) ``path``, write ``parts`` in order with
    ``os.writev`` and ``fsync`` it; the parts are never concatenated."""
    views = [memoryview(part).cast("B") for part in parts]
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        while views:
            written = os.writev(fd, views)
            while views and written >= len(views[0]):
                written -= len(views.pop(0))
            if views:
                views[0] = views[0][written:]
        _fsync(fd, "file", path)
    finally:
        os.close(fd)


# -- frame codec ------------------------------------------------------------

@functools.lru_cache(maxsize=1 << 16)
def _id_json(entity: str | int) -> str:
    """JSON spelling of an exact ``str`` or ``int`` id, as ``json.dumps``
    writes it (the callers check the type, so ``1`` and ``True`` never
    share an entry)."""
    if type(entity) is str:
        return encode_basestring_ascii(entity)
    return int.__repr__(entity)


@functools.lru_cache(maxsize=1 << 16)
def _record_tail_json(y: str | int, z: str | int) -> str:
    """The ``"y":…,"z":…`` tail of a ``record`` op's JSON, for exact
    ``str``/``int`` ids (the caller checks the types).

    One lookup per (trustee, truster) pair serves every later frame of
    that pair; the context, of which a run has a handful, is spelled by
    :func:`_id_json`.
    """
    return f'"y":{_id_json(y)},"z":{_id_json(z)}'


#: Key order of the values a ``record`` or ``set`` op is held as.
_HELD_KEYS = {
    "record": ("op", "z", "y", "c", "v", "t", "n", "e"),
    "set": ("op", "cd", "rd", "k", "l", "e"),
}

# Lower bounds on a frame's size, known without framing: every JSON value
# spells at least one character, and the keys of the two hot ops are fixed.
_RECORD_FLOOR = _FRAME.size + len(
    '{"c":0,"e":0,"n":0,"op":"record","t":0,"v":0,"y":0,"z":0}'
)
_SET_FLOOR = _FRAME.size + len('{"cd":0,"e":0,"k":0,"l":0,"op":"set","rd":0}')
_GENERIC_FLOOR = _FRAME.size + len("{}")
_HELD_FLOOR = {"record": _RECORD_FLOOR, "set": _SET_FLOOR}


def _check_ids(op: dict[str, Any]) -> None:
    """Refuse an op whose entity id (``None`` included) is not a ``str``
    or ``int``."""
    for key in ("z", "y", "g"):
        if key in op and not isinstance(value := op[key], _ID_TYPES):
            raise TrustJournalError(
                f"journal op field {key!r} carries {value!r}, which is "
                "not JSON-representable (use str or int entity ids)"
            )


def _hold(op: dict[str, Any] | tuple[Any, ...]) -> tuple[Any, int]:
    """The form an op is held in until it is framed, and a lower bound on
    the size of its frame.

    A ``record`` or ``set`` op is held as the tuple of its values in
    :data:`_HELD_KEYS` order, its kind first, and bounded by the smallest
    frame those keys allow: a tuple in that form is taken as it is (the
    trust tables build their ops so), a dict that carries exactly those
    keys is laid out so.  Any other dict is held as it is and bounded by
    the frame of ``{}``.

    Raises:
        TrustJournalError: an entity id is not a ``str`` or ``int``, or a
            tuple is not the held form of a ``record`` or ``set`` op.
    """
    if type(op) is tuple:
        keys = _HELD_KEYS.get(op[0]) if op and type(op[0]) is str else None
        if keys is None or len(op) != len(keys):
            raise TrustJournalError(
                f"journal op {op!r} is not the held form of a record or set op"
            )
        held = op
    else:
        kind = op.get("op")
        keys = _HELD_KEYS.get(kind) if type(kind) is str else None
        if keys is None or len(op) != len(keys):
            _check_ids(op)
            return op, _GENERIC_FLOOR
        try:
            held = tuple(map(op.__getitem__, keys))
        except KeyError:
            _check_ids(op)
            return op, _GENERIC_FLOOR
    if held[0] == "record" and (
        type(held[1]) not in _ID_TYPES or type(held[2]) not in _ID_TYPES
    ):
        _check_ids({"z": held[1], "y": held[2]})
    return held, _HELD_FLOOR[held[0]]


def _payload(held: tuple[Any, ...] | dict[str, Any], last_t: list[Any]) -> str:
    """The compact sorted-key JSON of a held op (see :func:`_hold`).

    A held ``record`` or ``set`` is written without the encoder when every
    id is an exact ``str``/``int``, every count an exact ``int`` and every
    float an exact, finite ``float`` (spelled with ``float.__repr__``, as
    ``json`` does); the output is then byte-identical to
    ``json.dumps(op, separators=(",", ":"), sort_keys=True)``, which
    writes everything else.

    ``last_t`` is ``[t, spelling]`` of the last ``record`` time spelled
    here.  The CD and RD records of one completion carry the same ``t``
    object, so a ``t`` that *is* that float reuses its spelling; identity,
    not equality, decides, because ``0.0 == -0.0`` spell differently.

    Raises:
        TrustJournalError: the op is not JSON-representable.
    """
    op = held
    if type(held) is tuple:
        kind = held[0]
        try:
            if kind == "record":
                _, z, y, c, v, t, n, e = held
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
                    if t is last_t[0]:
                        t_text = last_t[1]
                    else:
                        t_text = last_t[1] = float.__repr__(t)
                        last_t[0] = t
                    return (
                        f'{{"c":{_id_json(c)},"e":{e},"n":{n},"op":"record",'
                        f'"t":{t_text},"v":{v!r},{_record_tail_json(y, z)}}}'
                    )
            else:
                _, cd, rd, k, lv, e = held
                if (
                    type(cd) is int
                    and type(rd) is int
                    and type(k) is int
                    and type(lv) is int
                    and type(e) is int
                ):
                    return f'{{"cd":{cd},"e":{e},"k":{k},"l":{lv},"op":"set","rd":{rd}}}'
        except ValueError:
            # An int past the interpreter's digit limit: json.dumps
            # refuses it.
            pass
        # Not exactly typed (its ids were checked when it was held).
        op = dict(zip(_HELD_KEYS[kind], held))
    try:
        return json.dumps(op, separators=(",", ":"), sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise TrustJournalError(
            f"journal op is not JSON-representable: {exc}"
        ) from exc


def _frame(op: dict[str, Any]) -> bytes:
    """One op's frame: ``<u32 length> <u32 CRC-32> <compact JSON>``."""
    return _frame_payload(_payload(_hold(op)[0], [None, ""]))


def _frame_payload(text: str) -> bytes:
    payload = text.encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass(frozen=True)
class _JournalReplay:
    """Result of :func:`_read_journal`.

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


def _read_journal(
    path: str | Path,
    *,
    upto: int | None = None,
    expected_base: Any = _UNSET,
    metrics: Any = None,
) -> _JournalReplay:
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
    return _JournalReplay(
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

    Appends are held in memory, as ops: a frame is built only when its
    bytes are needed — by :meth:`sync`, :meth:`close` or
    :attr:`pending_bytes` — and a tail that a compaction folds into a new
    base is never framed at all.  :attr:`pending_floor` bounds the
    framed size of what is held without framing it.  Only synced bytes
    are promised to survive a crash — what is held models the data an OS
    would lose with the process — which is exactly the contract the
    crash-injection harness asserts.
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
        # Held ops, unframed: a hot op as its kind and then its other
        # values laid flat, any other op as its dict.  Holding one dict or
        # tuple per op slowed trust-service's scheduling windows by ~6 %
        # (perfbench, paired runs); the flat list did not.
        self._pending: list[Any] = []
        self._floor = 0
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
        replay = _read_journal(
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
        """Base-file digest pinned in the header frame."""
        return self._base

    @property
    def synced_offset(self) -> int:
        """Bytes durably on disk after the last :meth:`sync`."""
        return self._synced

    @property
    def pending_bytes(self) -> int:
        """Bytes that would be lost by a crash right now (frames every
        held op)."""
        self._frame_pending()
        return len(self._buffer)

    @property
    def pending_floor(self) -> int:
        """A lower bound on :attr:`pending_bytes`, read without framing."""
        return len(self._buffer) + self._floor

    def append(self, op: dict[str, Any] | tuple[Any, ...]) -> None:
        """Hold one op for the next sync; it is framed when its bytes are
        needed.  The op must not be mutated afterwards.

        ``op`` is a dict, or a ``record``/``set`` op already in its held
        form: the tuple of its values in key order ``op, z, y, c, v, t,
        n, e`` or ``op, cd, rd, k, l, e``.  Both forms frame the same
        bytes.

        Raises:
            TrustJournalError: an entity id is not a ``str`` or ``int``,
                or a tuple is not a held form; nothing is held then.  Any
                other content ``json`` cannot write is refused when the op
                is framed.
        """
        # The trust tables' held-form ops (one per trust mutation) are
        # checked here, without a call; _hold lays out any other op, or
        # refuses it.
        if type(op) is not tuple:
            op, floor = _hold(op)
        elif (
            len(op) == 8
            and op[0] == "record"
            and type(op[1]) in _ID_TYPES
            and type(op[2]) in _ID_TYPES
        ):
            floor = _RECORD_FLOOR
        elif len(op) == 6 and op[0] == "set":
            floor = _SET_FLOOR
        else:
            op, floor = _hold(op)
        if type(op) is tuple:
            self._pending += op
        else:
            self._pending.append(op)
        self._floor += floor
        if self._metrics is not None and self._metrics.enabled:
            self._metrics.counter("store.journal_appends").add()

    def _frame_pending(self) -> None:
        """Frame the held ops onto the byte buffer, in append order.

        An op ``json`` cannot write is dropped, as an eager ``append``
        would have refused it, and the first such refusal is raised once
        every other op is framed.
        """
        refused: TrustJournalError | None = None
        last_t: list[Any] = [None, ""]
        items = iter(self._pending)
        for held in items:
            if type(held) is str:  # a kind, then the op's other values
                held = (held, *itertools.islice(items, len(_HELD_KEYS[held]) - 1))
            try:
                self._buffer += _frame_payload(_payload(held, last_t))
            except TrustJournalError as exc:
                refused = refused or exc
        self._pending.clear()
        self._floor = 0
        if refused is not None:
            raise refused

    def sync(self) -> int:
        """Frame and write held ops and ``fsync``; returns the durable offset.

        The fsync is bracketed by the crash hook: a kill *before* loses
        the whole held batch, a kill *after* loses nothing — the two
        boundary cases the harness sweeps (torn middles are simulated by
        truncating/corrupting the file post-mortem).
        """
        self._frame_pending()
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
        """Close the handle without syncing (held ops are dropped unframed)."""
        self._pending.clear()
        self._floor = 0
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


def _attach_journal(
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


def _detach_journal(
    *,
    table: TrustTable | None = None,
    weights: RecommenderWeights | None = None,
    grid_table: Any = None,
) -> None:
    """Clear the mutation hooks installed by :func:`_attach_journal`."""
    _attach_journal(
        None, table=table, weights=weights, grid_table=grid_table
    )
    if weights is not None:
        weights.alliances._journal = None


# -- durable plane ----------------------------------------------------------

#: Fold the journal into a fresh base once its synced size exceeds this
#: fraction of the base file's size.
COMPACT_RATIO = 0.5

#: Superseded generations kept after a compaction: the generation a
#: service checkpoint pinned backs its offset until the next checkpoint.
KEEP_GENERATIONS = 1


@dataclass(frozen=True)
class JournalConfig:
    """Compaction policy of a :class:`DurableTrustPlane`.

    Attributes:
        min_compact_bytes: never compact below this journal size — a tiny
            base would otherwise trigger compaction on every checkpoint
            (above it, :data:`COMPACT_RATIO` × base size decides).
    """

    min_compact_bytes: int = 1 << 16

    def __post_init__(self) -> None:
        if self.min_compact_bytes < 0:
            raise ConfigurationError(
                "min_compact_bytes must be non-negative, got "
                f"{self.min_compact_bytes!r}"
            )


def _atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    """Swap ``path`` for ``payload``: tmp, fsync, replace, fsync the
    directory."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    _write_synced(tmp, [json.dumps(payload, indent=1, sort_keys=True).encode()])
    os.replace(tmp, path)
    sync_dir(path.parent)


def _write_generation(
    root: Path,
    gen: int,
    table: TrustTable,
    weights: RecommenderWeights | None,
    grid_table: Any,
    metrics: Any,
) -> tuple[JournalWriter, str, int]:
    """Write generation ``gen`` and make it the live one, in the five
    fsyncs of the module docstring; returns its journal writer, base
    digest and base size.  A kill before the ``CURRENT`` swap leaves the
    previous generation live, and the next compaction overwrites the
    debris."""
    from repro.core.store import _write_base

    base = root / f"base-{gen}"
    tmp = base.with_name(base.name + ".tmp")
    digest, size = _write_base(tmp, table, weights, grid_table)
    writer = JournalWriter.create(
        root / f"journal-{gen}.wal", base=digest, metrics=metrics
    )
    os.replace(tmp, base)
    sync_dir(root)
    _atomic_write_json(
        root / "CURRENT", {"schema": JOURNAL_SCHEMA, "generation": gen}
    )
    return writer, digest, size


class DurableTrustPlane:
    """A trust plane whose every mutation is crash-durable via the WAL.

    Layout under ``root``::

        CURRENT             {"schema": ..., "generation": N}  (atomic swap)
        base-<N>            base file (table, weights, Grid levels)
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
        _attach_journal(
            self, table=table, weights=weights, grid_table=grid_table
        )

    # -- sink protocol -----------------------------------------------------

    def append(self, op: dict[str, Any] | tuple[Any, ...]) -> None:
        """Mutation hook target: hold one op for the current journal (see
        :meth:`JournalWriter.append`)."""
        self._writer.append(op)

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

        Writes the current state as ``base-0``, starts ``journal-0``,
        and attaches the mutation hooks, in the order a compaction uses
        (see :meth:`compact`).  Until the trailing ``CURRENT`` write
        lands, :meth:`recover` refuses the root — provisioning is
        all-or-nothing.
        """
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        config = config or JournalConfig()
        writer, digest, size = _write_generation(
            root, 0, table, weights, grid_table, metrics
        )
        return cls(
            root=root,
            generation=0,
            table=table,
            weights=weights,
            grid_table=grid_table,
            writer=writer,
            base_digest=digest,
            base_bytes=size,
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
        base_path = root / f"base-{gen}"
        journal_path = root / f"journal-{gen}.wal"
        # The base is checked before the journal is read: an older
        # layout, a torn or a tampered base is refused, naming the file,
        # with the journal untouched.
        table, weights, grid, digest = restore_trust_store(
            base_path, grid_table=grid_table
        )
        replay = _read_journal(journal_path, upto=upto, metrics=metrics)
        if replay.header is not None and replay.header.get("base") != digest:
            raise TrustJournalError(
                f"base {base_path} is not the base {journal_path} was "
                f"written against (sha256 {digest!r} != "
                f"{replay.header.get('base')!r}); refusing to replay the "
                "journal over the wrong snapshot"
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
            _drop_generations(root, keep=range(gen, gen + 1))
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
            base_bytes=base_path.stat().st_size,
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
    def base_digest(self) -> str:
        """SHA-256 of the current base file (its trailing digest)."""
        return self._base_digest

    def checkpoint(self) -> dict[str, Any]:
        """Make every held mutation durable; O(changes), not O(store).

        When the journal has outgrown :data:`COMPACT_RATIO` × base size it is
        folded into a fresh base; otherwise only the journal tail is
        framed and fsynced.  The decision is the one an fsync of the whole
        tail would make: if the synced bytes plus the tail's
        :attr:`~JournalWriter.pending_floor` already pass the threshold,
        the tail is folded without being framed, written or fsynced (a
        crash inside that compaction recovers the old generation at the
        offset the previous checkpoint pinned); else the tail is synced
        and its exact size decides.  Returns a delta descriptor suitable
        for embedding in a service checkpoint (see
        :func:`repro.service.checkpoint.attach_trust_journal`).
        """
        writer = self._writer
        if self._should_compact(writer.synced_offset + writer.pending_floor):
            self.compact()
        elif self._should_compact(writer.sync()):
            self.compact()
        return {
            "schema": JOURNAL_SCHEMA,
            "root": str(self.root),
            "generation": self.generation,
            "offset": self._writer.synced_offset,
            "base_sha256": self._base_digest,
        }

    def _should_compact(self, journal_bytes: int) -> bool:
        threshold = max(
            self.config.min_compact_bytes,
            int(COMPACT_RATIO * self._base_bytes),
        )
        return journal_bytes > threshold

    def compact(self) -> None:
        """Fold the journal tail into a fresh base generation.

        Writes ``base-<N+1>`` from the live objects and starts an empty
        ``journal-<N+1>``, swapping ``CURRENT`` last, then unlinks the
        generations older than :data:`KEEP_GENERATIONS`.  A crash
        anywhere before the ``CURRENT`` swap leaves the old generation
        authoritative and intact.
        """
        new_gen = self.generation + 1
        writer, digest, size = _write_generation(
            self.root, new_gen, self.table, self.weights, self.grid_table,
            self.metrics,
        )
        self._writer.abandon()
        self._writer = writer
        self.generation = new_gen
        self._base_digest = digest
        self._base_bytes = size
        _drop_generations(
            self.root, keep=range(new_gen - KEEP_GENERATIONS, new_gen + 1)
        )

    def close(self) -> None:
        """Sync outstanding frames, detach hooks, release the journal."""
        _detach_journal(
            table=self.table,
            weights=self.weights,
            grid_table=self.grid_table,
        )
        self._writer.close()


_GENERATION_FILE = re.compile(r"base-(\d+)|journal-(\d+)\.wal")


def _drop_generations(root: Path, *, keep: range) -> None:
    """Best-effort unlinking of every generation's files outside ``keep``."""
    with os.scandir(root) as entries:
        for entry in entries:
            match = _GENERATION_FILE.fullmatch(entry.name)
            if match is None or int(match.group(match.lastindex)) in keep:
                continue
            try:
                os.unlink(entry.path)
            except OSError:  # pragma: no cover - cleanup is advisory
                pass
