"""Base-file codec of the durable trust plane (``repro.trust.store/v3``).

Every generation of a :class:`~repro.core.journal.DurableTrustPlane`
starts from a base written by this module; the write-ahead journal then
records the mutations on top of it.  The base holds a
:class:`~repro.core.tables.TrustTable`, optionally its learned
:class:`~repro.core.recommender.RecommenderWeights`, and optionally the
Grid's CD×RD×ToA :class:`~repro.grid.trust_table.GridTrustTable`, as
**one file**: a compact JSON header, the table's fixed-dtype columns,
the Grid levels, and one SHA-256 digest over everything before it.  The
digest is computed over the bytes in memory as they are written, and the
journal header pins it, so a journal can never be replayed over another
base.  Partial or tampered bases are *refused* with a
:class:`~repro.core.journal.TrustJournalError` naming the file, never
silently repaired; so is a ``repro.trust.store/v2`` base (a ``base-<N>/``
directory of segments under a ``manifest.json``).

Restore checks the digest and then the column sizes the header implies
before it uses any value, then replays the rows in the table's insertion
order into a fresh table: the restored table iterates exactly like the
original, so the reputation average accumulates in the same order and
the restored Γ surface is bit-identical to one computed before the
snapshot.

On-disk layout (little-endian; column integers ``<i8``, floats ``<f8``):

.. code-block:: text

    <u32 n>                                 header length, padding included
    <n bytes>   compact JSON header         repro.trust.store/v3: entities,
                                            contexts, epochs, row count, Grid
                                            shape/epochs, weights; space-padded
                                            so the columns start 8-aligned
    6 columns, one row per record:
        truster, trustee, context           indices into the header lists
        value, time                         float payload
        txcount                             TrustRecord.transaction_count
    Grid levels, C order                    (if persisted)
    <32 bytes>                              SHA-256 of every byte before it
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.context import TrustContext
from repro.core.journal import TrustJournalError, _write_synced, sync_dir
from repro.core.recommender import AllianceRegistry, RecommenderWeights
from repro.core.tables import TrustTable

__all__ = [
    "STORE_SCHEMA",
    "snapshot_trust_store",
    "restore_trust_store",
]

STORE_SCHEMA = "repro.trust.store/v3"

_COLUMN_DTYPES = ("<i8", "<i8", "<i8", "<f8", "<f8", "<i8")

_LENGTH = struct.Struct("<I")
_DIGEST_SIZE = 32
_HEADER_KEYS = (
    "schema", "entities", "contexts", "table_epoch", "rows", "grid", "weights",
)


def _weights_to_dict(weights: RecommenderWeights) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "ally_weight": weights.ally_weight,
        "default_accuracy": weights.default_accuracy,
        "learning_rate": weights.learning_rate,
        "accuracy": dict(weights._accuracy),
        "alliances": {
            name: sorted(weights.alliances._groups[name])
            for name in sorted(weights.alliances.groups())
        },
        # The write-ahead journal (repro.core.journal) verifies each
        # replayed op against these counters, so a restore must reproduce
        # them exactly — replay-derived counts undercount whenever history
        # contained overwrites.
        "epoch": weights._epoch,
        "alliance_epoch": weights.alliances._epoch,
    }
    purged = getattr(weights, "_purged", None)
    if purged is not None:
        payload["credibility"] = {
            "purge_threshold": weights.purge_threshold,
            "min_observations": weights.min_observations,
            "observations": dict(weights._observations),
            "purged": sorted(purged),
        }
    return payload


def _weights_from_dict(data: dict[str, Any]) -> RecommenderWeights:
    alliances = AllianceRegistry()
    for name, members in data.get("alliances", {}).items():
        alliances.declare(name, members)
    cred = data.get("credibility")
    if cred is not None:
        from repro.trustfaults.credibility import CredibilityWeights

        weights: RecommenderWeights = CredibilityWeights(
            alliances=alliances,
            ally_weight=float(data["ally_weight"]),
            default_accuracy=float(data["default_accuracy"]),
            learning_rate=float(data["learning_rate"]),
            purge_threshold=float(cred["purge_threshold"]),
            min_observations=int(cred["min_observations"]),
        )
        weights._observations.update(
            {e: int(n) for e, n in cred["observations"].items()}
        )
        weights._purged.update(cred["purged"])
    else:
        weights = RecommenderWeights(
            alliances=alliances,
            ally_weight=float(data["ally_weight"]),
            default_accuracy=float(data["default_accuracy"]),
            learning_rate=float(data["learning_rate"]),
        )
    for entity, accuracy in data.get("accuracy", {}).items():
        weights._accuracy[entity] = float(accuracy)
    # Fast-forward the persisted epoch counters: the declare() replay
    # above produced synthetic counts (one bump per group), but journal
    # replay verifies ops against the *original* counters.  The persisted
    # value is always >= the replayed one, so max() never regresses.
    weights._epoch = max(weights._epoch, int(data["epoch"]))
    alliances._epoch = max(alliances._epoch, int(data["alliance_epoch"]))
    return weights


def _new_entity(entity: Any, index: int) -> int:
    """The index of an entity seen for the first time; refuses one the
    header cannot name."""
    if not isinstance(entity, (str, int)):
        raise TrustJournalError(f"entity {entity!r} is not JSON-representable")
    return index


def _write_base(
    path: Path,
    table: TrustTable,
    weights: RecommenderWeights | None = None,
    grid_table: Any = None,
) -> tuple[str, int]:
    """Write and fsync the base of ``table`` (with ``weights`` and
    ``grid_table``) at ``path``, in place; returns its SHA-256 (hex) and
    its size in bytes.

    Raises:
        TrustJournalError: if an entity cannot be persisted; nothing is
            written then.
    """
    # One pass over the records builds every column.  Entities and
    # contexts are numbered in order of first appearance, truster before
    # trustee; contexts are keyed by their name (their identity), whose
    # hash the string caches.
    entity_index: dict[Any, int] = {}
    context_index: dict[str, int] = {}
    trusters: list[int] = []
    trustees: list[int] = []
    context_col: list[int] = []
    values: list[float] = []
    times: list[float] = []
    txcounts: list[int] = []
    for (z, y, c), rec in table.items():
        zi = entity_index.get(z)
        if zi is None:
            zi = entity_index[z] = _new_entity(z, len(entity_index))
        yi = entity_index.get(y)
        if yi is None:
            yi = entity_index[y] = _new_entity(y, len(entity_index))
        name = c.name
        ci = context_index.get(name)
        if ci is None:
            ci = context_index[name] = len(context_index)
        trusters.append(zi)
        trustees.append(yi)
        context_col.append(ci)
        values.append(rec.value)
        times.append(rec.last_transaction)
        txcounts.append(rec.transaction_count)
    rows = [trusters, trustees, context_col, values, times, txcounts]
    del trusters, trustees, context_col, values, times, txcounts
    columns = []
    for i, dtype in enumerate(_COLUMN_DTYPES):
        columns.append(np.asarray(rows[i], dtype))
        rows[i] = None  # one list and its column alive at a time, not all
    grid: dict[str, Any] | None = None
    if grid_table is not None:
        levels = np.ascontiguousarray(grid_table.levels, dtype="<i8")
        grid = {
            "shape": list(levels.shape),
            "epoch": grid_table.epoch,
            "cd_epochs": sorted(grid_table._cd_epochs.items()),
        }
        columns.append(levels)
    header = {
        "schema": STORE_SCHEMA,
        "entities": list(entity_index),
        "contexts": list(context_index),
        "table_epoch": table.epoch,
        "rows": len(table),
        "grid": grid,
        "weights": None if weights is None else _weights_to_dict(weights),
    }
    text = json.dumps(header, separators=(",", ":")).encode("ascii")
    text += b" " * (-(_LENGTH.size + len(text)) % 8)
    parts = [_LENGTH.pack(len(text)) + text, *columns]
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part)
    parts.append(sha.digest())
    _write_synced(path, parts)
    return parts[-1].hex(), sum(memoryview(part).nbytes for part in parts)


def snapshot_trust_store(
    path: str | Path,
    table: TrustTable,
    weights: RecommenderWeights | None = None,
    *,
    grid_table: Any = None,
) -> str:
    """Snapshot ``table`` (and optionally ``weights`` and ``grid_table``)
    into the base file ``path``; returns its SHA-256 (hex).

    The snapshot is **crash-atomic**: the file is written as
    ``<name>.tmp``, fsynced, renamed over ``path`` and made durable by an
    fsync of the parent directory.  A kill at any point leaves either the
    old snapshot or the new one at ``path``, never a torn mix.

    Entity identifiers must be JSON-representable (strings or integers);
    the Grid agents' ``"cd:0"`` convention satisfies this.

    Raises:
        TrustJournalError: if an entity cannot be persisted.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    digest, _ = _write_base(tmp, table, weights, grid_table)
    os.replace(tmp, target)
    sync_dir(target.parent)
    return digest


def _restore_grid(
    path: Path, meta: dict[str, Any], levels: np.ndarray, grid_table: Any
) -> Any:
    """Rebuild (or refill) the Grid trust table from its levels."""
    shape = tuple(int(s) for s in meta["shape"])
    if grid_table is None:
        from repro.grid.trust_table import GridTrustTable

        grid_table = GridTrustTable(*shape)
    if tuple(grid_table.shape) != shape:
        raise TrustJournalError(
            f"Grid levels in {path} have shape {shape}, "
            f"but the provided table is {tuple(grid_table.shape)}"
        )
    # Direct assignment (not fill_from) so restore neither bumps epochs
    # nor re-validates levels the original table already accepted.
    grid_table._levels[...] = levels.reshape(shape)
    grid_table._epoch = int(meta["epoch"])
    grid_table._cd_epochs = {int(cd): int(e) for cd, e in meta["cd_epochs"]}
    return grid_table


def restore_trust_store(
    path: str | Path, *, grid_table: Any = None
) -> tuple[TrustTable, RecommenderWeights | None, Any, str]:
    """Restore a base written by :func:`snapshot_trust_store`.

    The digest, then the header and the sizes it implies are checked
    before any value is used.  Returns ``(table, weights, grid_table,
    sha256)``: ``weights`` is ``None`` when the base carried none; the
    persisted Grid levels are restored into ``grid_table`` when given
    (custom ETS tables do not survive JSON), into a fresh table of the
    persisted shape otherwise, and ``grid_table`` is passed through
    unchanged when the base carried no Grid levels; ``sha256`` is the
    base's digest (hex), the value a journal header pins.

    Raises:
        TrustJournalError: on a missing, truncated, tampered or malformed
            base, a ``repro.trust.store/v2`` directory, another schema, or
            a Grid table of the wrong shape — naming the file.
    """
    path = Path(path)
    if path.is_dir():
        raise TrustJournalError(
            f"trust-store base {path} is a directory, the "
            f"repro.trust.store/v2 layout; this codec reads only "
            f"{STORE_SCHEMA} single-file bases — refusing to restore it"
        )
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise TrustJournalError(f"no trust-store base at {path}") from None
    body = len(data) - _DIGEST_SIZE
    if body < _LENGTH.size:
        raise TrustJournalError(
            f"trust-store base {path} is truncated ({len(data)} bytes)"
        )
    digest = hashlib.sha256(memoryview(data)[:body]).digest()
    if digest != data[body:]:
        raise TrustJournalError(
            f"digest mismatch for trust-store base {path} (torn or "
            "tampered); refusing to restore"
        )
    (length,) = _LENGTH.unpack_from(data)
    start = _LENGTH.size + length
    try:
        header = json.loads(data[_LENGTH.size:start]) if start <= body else None
    except ValueError:  # a JSON or UTF-8 decoding error
        header = None
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != STORE_SCHEMA or not header.keys() >= set(_HEADER_KEYS):
        raise TrustJournalError(
            f"trust-store base {path}: expected schema {STORE_SCHEMA!r} with "
            f"header keys {list(_HEADER_KEYS)}, got {schema!r}; refusing to "
            "restore"
        )
    grid = header["grid"]
    try:
        count = int(header["rows"])
        cells = 0 if grid is None else int(np.prod(grid["shape"]))
    except (TypeError, ValueError, KeyError) as exc:
        raise TrustJournalError(
            f"trust-store base {path}: malformed header ({exc!r})"
        ) from None
    expected = start + 8 * (len(_COLUMN_DTYPES) * count + cells)
    if expected != body:
        raise TrustJournalError(
            f"trust-store base {path} holds {body - start} bytes of columns "
            f"and Grid levels, but its header describes {expected - start} "
            f"({count} rows, Grid of {cells} cells)"
        )
    entities = header["entities"]
    contexts = [TrustContext(name) for name in header["contexts"]]
    cols = [
        np.frombuffer(data, dtype, count, start + 8 * count * i).tolist()
        for i, dtype in enumerate(_COLUMN_DTYPES)
    ]
    table = TrustTable()
    for zi, yi, ci, value, time, txcount in zip(*cols):
        table.record(
            entities[zi], entities[yi], contexts[ci], value, time,
            transaction_count=txcount,
        )
    # Fast-forward the epoch counter to its persisted value: the record()
    # replay above bumped it once per surviving row, which undercounts any
    # history with overwrites or removals.  The write-ahead journal
    # verifies replayed ops against the original counter.  Persisted >=
    # replayed always holds (every surviving record cost at least one
    # bump), so max() never regresses it.
    table._epoch = max(table._epoch, int(header["table_epoch"]))
    weights_data = header["weights"]
    weights = None if weights_data is None else _weights_from_dict(weights_data)
    if grid is not None:
        offset = start + 8 * count * len(_COLUMN_DTYPES)
        levels = np.frombuffer(data, "<i8", cells, offset)
        grid_table = _restore_grid(path, grid, levels, grid_table)
    return table, weights, grid_table, digest.hex()
