"""Service checkpoints: schema, validation, and (de)serialisation.

A checkpoint is a plain JSON-compatible dictionary capturing *everything*
the service needs to resume a run from a window boundary with
settled-exactly-once accounting: the epoch counter, the simulation clock
and the next window's exact float time, settled accounting (completion
records, rejections, drops, failure history), machine bookkeeping, the
pending queue, in-flight recovery events (scheduled failure notifications
and retry re-dispatches), cost-provider exclusions, admission/backpressure/
watchdog state, the service counters, and — when a resilient trust plane is
attached — its query clock, circuit-breaker state and RNG state.

The payload is produced by :meth:`GridService.checkpoint
<repro.service.service.GridService.checkpoint>` and consumed by
:meth:`GridService.resume <repro.service.service.GridService.resume>`;
this module owns the schema tag, structural validation, and the file
round-trip.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import CheckpointError

__all__ = [
    "CHECKPOINT_SCHEMA",
    "validate_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "attach_trust_journal",
    "resolve_trust_journal",
    "verify_trust_journal",
]

#: Schema tag stamped into every checkpoint payload.
CHECKPOINT_SCHEMA = "repro.service.checkpoint/v1"


@dataclass(frozen=True)
class _Obj:
    """Spec of a JSON object with exactly ``fields`` (field → spec)."""

    what: str
    fields: dict


#: Key spec of an object keyed by request index (``{_INDEX: value spec}``).
_INDEX = "request index"

_FAILURE = _Obj(
    "failure event",
    {
        "request_index": int,
        "machine_index": int,
        "attempt": int,
        "start_time": float,
        "failure_time": float,
        "wasted_work": float,
        "kind": str,
    },
)

#: Every key a v1 checkpoint must carry → the spec its value must conform
#: to (see :func:`_conform`; ``float`` means a finite number).
_PAYLOAD = {
    "schema": str,
    "epoch": int,
    "clock": float,
    "next_window": float,
    "heuristic": str,
    "policy": str,
    "window_interval": float,
    "trust_epoch": int,
    "machines": [
        _Obj(
            "machine state",
            {"available_time": float, "busy_time": float,
             "assigned_count": int, "failed_count": int},
        )
    ],
    "records": {
        _INDEX: _Obj(
            "completion record",
            {
                "request_index": int,
                "machine_index": int,
                "arrival_time": float,
                "mapped_time": float,
                "start_time": float,
                "completion_time": float,
                "eec": float,
                "realized_cost": float,
                "trust_cost": float,
                "attempt": int,
            },
        )
    },
    "rejected": {_INDEX: str},
    "dropped": [int],
    "failures": [_FAILURE],
    "attempts": {_INDEX: int},
    "batches_formed": int,
    "pending": [int],
    "inflight_failures": {_INDEX: _FAILURE},
    "inflight_retries": {_INDEX: (float, int)},
    "exclusions": {_INDEX: [int]},
    "admission": object,
    "backpressure": object,
    "watchdog": _Obj(
        "watchdog state",
        {"trips": int, "stalled_windows": int, "last_settled": int},
    ),
    "counters": _Obj(
        "service counters",
        {"submitted": int, "admitted": int, "shed": {str: int}},
    ),
}

def _conform(value: Any, spec: Any, where: str) -> None:
    """Refuse ``value`` unless it conforms to ``spec``, naming ``where``.

    A spec is a type (``float`` admits integers but neither NaN nor
    infinity, and booleans are never numbers), ``[item]`` for a list,
    ``(first, second)`` for a pair, ``{key kind: item}`` for an object
    keyed by request index (``_INDEX``) or by any string (``str``), or an
    :class:`_Obj` with exact fields.
    """
    if isinstance(spec, _Obj):
        _conform(value, dict, where)
        bad = spec.fields.keys() ^ value.keys()
        if bad:
            raise CheckpointError(
                f"malformed {spec.what} in checkpoint (keys off by {sorted(bad)})"
            )
        for key, field in spec.fields.items():
            _conform(value[key], field, f"{where}.{key}")
    elif isinstance(spec, dict):
        ((keys, item),) = spec.items()
        _conform(value, dict, where)
        for key, member in value.items():
            if not isinstance(key, str) or (keys == _INDEX and not key.isdecimal()):
                raise CheckpointError(
                    f"checkpoint {where} key {key!r} is not a {keys}"
                )
            _conform(member, item, f"{where}[{key}]")
    elif isinstance(spec, list):
        _conform(value, list, where)
        for i, member in enumerate(value):
            _conform(member, spec[0], f"{where}[{i}]")
    elif isinstance(spec, tuple):
        _conform(value, list, where)
        if len(value) != len(spec):
            raise CheckpointError(
                f"checkpoint {where} must hold {len(spec)} items, got {value!r}"
            )
        for i, (member, item) in enumerate(zip(value, spec)):
            _conform(member, item, f"{where}[{i}]")
    elif (
        not isinstance(value, (int, float) if spec is float else spec)
        or (spec in (int, float) and isinstance(value, bool))
        or (spec is float and not math.isfinite(value))
    ):
        kind = "a finite number" if spec is float else f"of type {spec.__name__}"
        raise CheckpointError(f"checkpoint {where} must be {kind}, got {value!r}")


#: Shape of the optional write-ahead trust-journal sidecar (a delta
#: checkpoint descriptor from
#: :meth:`~repro.core.journal.DurableTrustPlane.checkpoint`).
_TRUST_JOURNAL_KEYS = frozenset(
    {"schema", "root", "generation", "offset", "base_sha256"}
)


def _check_trust_journal_sidecar(sidecar: Any) -> None:
    """Structurally validate a ``trust_journal`` sidecar.

    Raises :class:`~repro.errors.CheckpointError` naming the missing or
    ill-typed key.
    """
    if not isinstance(sidecar, dict):
        raise CheckpointError(
            "malformed trust_journal sidecar: expected a dict, got "
            f"{type(sidecar).__name__}"
        )
    missing = _TRUST_JOURNAL_KEYS - sidecar.keys()
    if missing:
        raise CheckpointError(
            f"malformed trust_journal sidecar: missing keys {sorted(missing)}"
        )
    if not isinstance(sidecar["root"], str):
        raise CheckpointError(
            "malformed trust_journal sidecar: 'root' must be a path string, "
            f"got {sidecar['root']!r}"
        )
    for key in ("generation", "offset"):
        value = sidecar[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise CheckpointError(
                f"malformed trust_journal sidecar: {key!r} must be a "
                f"non-negative integer, got {value!r}"
            )


#: Optional top-level keys: the resilient trust source's state and the
#: durable trust plane's sidecar.  Any other key is refused.
_OPTIONAL_KEYS = frozenset({"trust_plane", "trust_journal"})


def validate_checkpoint(payload: Any) -> dict:
    """Structurally validate a checkpoint payload.

    Returns the payload unchanged when it is a well-formed v1 checkpoint;
    raises :class:`~repro.errors.CheckpointError` otherwise.  Semantic
    validation against a concrete service (matching heuristic, trust
    epoch, …) happens in ``GridService.resume``.
    """
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint must be a dict, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {schema!r} "
            f"(expected {CHECKPOINT_SCHEMA!r})"
        )
    missing = _PAYLOAD.keys() - payload.keys()
    if missing:
        raise CheckpointError(
            f"checkpoint is missing keys: {sorted(missing)}"
        )
    unknown = payload.keys() - _PAYLOAD.keys() - _OPTIONAL_KEYS
    if unknown:
        raise CheckpointError(
            f"checkpoint carries unknown keys: {sorted(unknown)}"
        )
    for key, spec in _PAYLOAD.items():
        _conform(payload[key], spec, key)
    if payload["epoch"] < 0:
        raise CheckpointError("checkpoint epoch must be non-negative")
    if payload["next_window"] < payload["clock"]:
        raise CheckpointError(
            "checkpoint next_window precedes its clock"
        )
    if payload.get("trust_journal") is not None:
        _check_trust_journal_sidecar(payload["trust_journal"])
    return payload


def attach_trust_journal(payload: dict, plane: Any) -> dict:
    """Attach a delta checkpoint of a durable trust plane to a checkpoint.

    Calls :meth:`~repro.core.journal.DurableTrustPlane.checkpoint` on
    ``plane`` — fsyncing only the journal tail, O(changes) not O(store) —
    and embeds the returned descriptor (root, generation, durable offset,
    base digest) as the ``trust_journal`` sidecar.  Returns ``payload``
    for chaining.
    """
    payload["trust_journal"] = plane.checkpoint()
    return payload


def verify_trust_journal(sidecar: dict, plane: Any) -> None:
    """Check a live durable trust plane against a pinned sidecar.

    The plane must sit at exactly the pinned root, generation, base
    digest and durable journal offset — i.e. be the result of
    :func:`resolve_trust_journal` (or an untouched original).  Raises
    :class:`~repro.errors.CheckpointError` on any divergence.
    """
    from repro.core.journal import JOURNAL_SCHEMA

    if sidecar.get("schema") != JOURNAL_SCHEMA:
        raise CheckpointError(
            f"unsupported trust-journal schema {sidecar.get('schema')!r}"
        )
    if Path(sidecar["root"]).resolve() != Path(plane.root).resolve():
        raise CheckpointError(
            f"trust-journal sidecar pins root {sidecar['root']!r}, the "
            f"attached plane lives at {str(plane.root)!r}"
        )
    if plane.generation != sidecar["generation"]:
        raise CheckpointError(
            f"trust plane is at generation {plane.generation}, checkpoint "
            f"pinned generation {sidecar['generation']}; recover the plane "
            "with generation= pinned to the sidecar"
        )
    if plane.base_digest != sidecar["base_sha256"]:
        raise CheckpointError(
            "trust-plane base snapshot does not match the digest pinned "
            "in the checkpoint; refusing to resume over diverged state"
        )
    if plane.journal_offset != sidecar["offset"]:
        raise CheckpointError(
            f"trust journal is at durable offset {plane.journal_offset}, "
            f"checkpoint pinned {sidecar['offset']}; recover the plane "
            "with upto= pinned to the sidecar offset"
        )


def resolve_trust_journal(payload: dict, **recover_kwargs: Any) -> Any:
    """Recover the durable trust plane a checkpoint's sidecar pins.

    Returns a :class:`~repro.core.journal.DurableTrustPlane` rolled to
    exactly the pinned generation and journal offset (discarding any
    later, unacknowledged timeline), or ``None`` when the checkpoint
    carries no ``trust_journal`` sidecar.  Extra keyword arguments
    (``grid_table=``, ``config=``, ``metrics=``) pass through to
    :meth:`~repro.core.journal.DurableTrustPlane.recover`.

    Raises:
        CheckpointError: when the sidecar is malformed (naming the bad
            key), or the pinned root/generation/offset can no longer be
            recovered or does not match its pinned base digest.  Every
            :class:`~repro.core.journal.TrustJournalError` — a torn
            pinned prefix, or a missing, tampered or truncated base
            segment — surfaces here, naming the path.
    """
    from repro.core.journal import DurableTrustPlane, TrustJournalError

    sidecar = payload.get("trust_journal")
    if sidecar is None:
        return None
    _check_trust_journal_sidecar(sidecar)
    try:
        plane = DurableTrustPlane.recover(
            sidecar["root"],
            generation=sidecar["generation"],
            upto=sidecar["offset"],
            **recover_kwargs,
        )
    except TrustJournalError as exc:
        raise CheckpointError(
            f"cannot recover the trust plane pinned by this checkpoint: "
            f"{exc}"
        ) from exc
    verify_trust_journal(sidecar, plane)
    return plane


def save_checkpoint(payload: dict, path: str | Path) -> Path:
    """Validate ``payload`` and write it to ``path`` as JSON.

    The write goes through a temporary sibling file, an ``fsync``, an
    atomic rename, and an ``fsync`` of the parent directory — rename
    alone orders the swap but does not make it durable, so a crash after
    a bare rename could resurface the previous checkpoint (or none).
    """
    from repro.core.journal import sync_dir, sync_file

    validate_checkpoint(payload)
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    sync_file(tmp)
    tmp.replace(path)
    sync_dir(path.parent)
    return path


def load_checkpoint(path: str | Path) -> dict:
    """Read and validate a checkpoint previously saved to ``path``."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint at {path}: {exc}") from exc
    return validate_checkpoint(payload)
