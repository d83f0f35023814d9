"""Base-snapshot codec of the durable trust plane (``repro.trust.store/v2``).

Every generation of a :class:`~repro.core.journal.DurableTrustPlane`
starts from a base snapshot written by this module; the write-ahead
journal then records the mutations on top of it.  The snapshot holds a
:class:`~repro.core.tables.TrustTable`, optionally its learned
:class:`~repro.core.recommender.RecommenderWeights`, and optionally the
Grid's CD×RD×ToA :class:`~repro.grid.trust_table.GridTrustTable`, as
**one fixed-dtype binary segment per column** plus one segment of Grid
levels, with a JSON manifest carrying the epoch counters and a SHA-256
digest per segment.  The layout follows tahoe-lafs' grid-manager
certificate discipline: durable state files plus a signed-by-digest
index, so partial or tampered snapshots are *refused* with a
:class:`~repro.core.journal.TrustJournalError` naming the offending
file, never silently repaired.  This module owns the whole base format;
the journal header pins the manifest's SHA-256, which in turn pins every
segment.

Restore checks every segment's digest and size, then replays the rows
in the table's insertion order into a fresh table: the restored table
iterates exactly like the original, so the reputation average
accumulates in the same order and the restored Γ surface is
bit-identical to one computed before the snapshot.

On-disk layout (all integers ``<i8``, all floats ``<f8``, little-endian):

.. code-block:: text

    <dir>/manifest.json                     repro.trust.store/v2
    <dir>/<column>.bin                      6 table columns, one row per record:
        truster, trustee, context           indices into manifest lists
        value, time                         float payload
        txcount                             TrustRecord.transaction_count
    <dir>/grid-levels.bin                   Grid levels, C order (if persisted)
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.context import TrustContext
from repro.core.journal import TrustJournalError, sync_dir, sync_file
from repro.core.recommender import AllianceRegistry, RecommenderWeights
from repro.core.tables import TrustTable

__all__ = [
    "STORE_SCHEMA",
    "snapshot_trust_store",
    "restore_trust_store",
]

STORE_SCHEMA = "repro.trust.store/v2"

_COLUMNS = (
    ("truster", "<i8"),
    ("trustee", "<i8"),
    ("context", "<i8"),
    ("value", "<f8"),
    ("time", "<f8"),
    ("txcount", "<i8"),
)

_SEGMENT_KEYS = frozenset({"file", "dtype", "sha256"})


def _write_segment(directory: Path, fname: str, data: np.ndarray) -> dict[str, Any]:
    """Write and fsync one segment; return its manifest entry."""
    payload = data.tobytes()
    fpath = directory / fname
    fpath.write_bytes(payload)
    sync_file(fpath)
    return {
        "file": fname,
        "dtype": data.dtype.str,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }


def _weights_to_dict(weights: RecommenderWeights) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "ally_weight": weights.ally_weight,
        "default_accuracy": weights.default_accuracy,
        "learning_rate": weights.learning_rate,
        "accuracy": dict(weights._accuracy),
        "alliances": {
            name: sorted(weights.alliances._groups[name])
            for name in sorted(weights.alliances._groups)
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
    """The index of an entity seen for the first time; refuses one a
    manifest cannot name."""
    if not isinstance(entity, (str, int)):
        raise TrustJournalError(f"entity {entity!r} is not JSON-representable")
    return index


def snapshot_trust_store(
    directory: str | Path,
    table: TrustTable,
    weights: RecommenderWeights | None = None,
    *,
    grid_table: Any = None,
) -> Path:
    """Snapshot ``table`` (and optionally ``weights`` and ``grid_table``)
    into ``directory``.

    Writes one little-endian binary segment per column, in the table's
    insertion order, plus (with ``grid_table``) one segment of Grid
    levels, and a ``manifest.json`` carrying the schema tag, the
    interned entity and context lists, the epoch counters, the Grid
    table's shape and a SHA-256 digest per segment.  Returns the
    manifest path.

    The snapshot is **crash-atomic**: segments and manifest are written
    into a temporary sibling directory (``<name>.tmp``), fsynced, and
    swapped into place by rename — any previous snapshot at ``directory``
    is parked as ``<name>.old`` for the instant of the swap and removed
    once the new one is durable.  A kill at any point leaves either the
    old snapshot or the new one restorable (see the ``.old`` fallback of
    :meth:`DurableTrustPlane.recover
    <repro.core.journal.DurableTrustPlane.recover>`), never a
    half-written mix that the digest check would turn into total loss.

    Entity identifiers must be JSON-representable (strings or integers);
    the Grid agents' ``"cd:0"`` convention satisfies this.

    Raises:
        TrustJournalError: if an entity cannot be persisted.
    """
    target = Path(directory)
    target.parent.mkdir(parents=True, exist_ok=True)
    directory = target.parent / (target.name + ".tmp")
    parked = target.parent / (target.name + ".old")
    for leftover in (directory, parked):
        if leftover.is_dir():
            shutil.rmtree(leftover)
        elif leftover.exists():
            leftover.unlink()
    directory.mkdir()
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
    rows = (trusters, trustees, context_col, values, times, txcounts)
    columns = {
        name: _write_segment(directory, f"{name}.bin", np.asarray(row, dtype=dtype))
        for (name, dtype), row in zip(_COLUMNS, rows)
    }
    grid: dict[str, Any] | None = None
    if grid_table is not None:
        levels = np.asarray(grid_table.levels, dtype="<i8")
        grid = {
            "shape": list(levels.shape),
            "epoch": grid_table.epoch,
            "cd_epochs": sorted(grid_table._cd_epochs.items()),
            **_write_segment(directory, "grid-levels.bin", levels),
        }
    manifest: dict[str, Any] = {
        "schema": STORE_SCHEMA,
        "entities": list(entity_index),
        "contexts": list(context_index),
        "table_epoch": table.epoch,
        "rows": len(table),
        "columns": columns,
        "grid": grid,
        "weights": None if weights is None else _weights_to_dict(weights),
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    sync_file(manifest_path)
    sync_dir(directory)
    # Swap the fsynced tmp directory into place.  The rename pair is the
    # only non-durable window, and both sides of it are complete
    # snapshots: before the parent fsync lands a crash may resurface the
    # old state, never a torn one.
    if target.exists():
        target.rename(parked)
    directory.rename(target)
    sync_dir(target.parent)
    if parked.exists():
        shutil.rmtree(parked)
    return target / "manifest.json"


def _load_manifest(directory: Path) -> dict[str, Any]:
    """Read and structurally validate a snapshot manifest."""
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise TrustJournalError(f"no trust-store manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TrustJournalError(
            f"corrupted trust-store manifest {manifest_path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("schema") != STORE_SCHEMA:
        raise TrustJournalError(
            f"trust-store manifest {manifest_path}: expected schema "
            f"{STORE_SCHEMA!r}, got {manifest.get('schema')!r}"
        )
    for key in ("entities", "contexts", "table_epoch", "rows", "columns"):
        if key not in manifest:
            raise TrustJournalError(
                f"trust-store manifest {manifest_path} missing {key!r}"
            )
    for name, _ in _COLUMNS:
        meta = manifest["columns"].get(name)
        if meta is None or not _SEGMENT_KEYS <= set(meta):
            raise TrustJournalError(
                f"trust-store manifest {manifest_path} missing column {name!r}"
            )
    grid = manifest.get("grid")
    if grid is not None and not (
        _SEGMENT_KEYS | {"shape", "epoch", "cd_epochs"}
    ) <= set(grid):
        raise TrustJournalError(
            f"trust-store manifest {manifest_path}: malformed Grid-levels entry"
        )
    return manifest


def _read_segment(directory: Path, meta: dict[str, Any], count: int) -> np.ndarray:
    """Digest- and size-check one segment; return its values."""
    fpath = directory / meta["file"]
    if not fpath.is_file():
        raise TrustJournalError(f"missing trust-store segment {fpath}")
    data = fpath.read_bytes()
    if hashlib.sha256(data).hexdigest() != meta["sha256"]:
        raise TrustJournalError(
            f"digest mismatch for trust-store segment {fpath}; "
            "refusing to restore"
        )
    if len(data) != count * 8:
        raise TrustJournalError(
            f"trust-store segment {fpath} has wrong size for {count} values"
        )
    return np.frombuffer(data, dtype=meta["dtype"])


def _restore_grid(directory: Path, meta: dict[str, Any], grid_table: Any) -> Any:
    """Rebuild (or refill) the Grid trust table from its levels segment."""
    shape = tuple(int(s) for s in meta["shape"])
    levels = _read_segment(directory, meta, int(np.prod(shape)))
    if grid_table is None:
        from repro.grid.trust_table import GridTrustTable

        grid_table = GridTrustTable(*shape)
    if tuple(grid_table.shape) != shape:
        raise TrustJournalError(
            f"Grid levels in {directory / meta['file']} have shape {shape}, "
            f"but the provided table is {tuple(grid_table.shape)}"
        )
    # Direct assignment (not fill_from) so restore neither bumps epochs
    # nor re-validates levels the original table already accepted.
    grid_table._levels[...] = levels.reshape(shape)
    grid_table._epoch = int(meta["epoch"])
    grid_table._cd_epochs = {int(cd): int(e) for cd, e in meta["cd_epochs"]}
    return grid_table


def restore_trust_store(
    directory: str | Path, *, grid_table: Any = None
) -> tuple[TrustTable, RecommenderWeights | None, Any]:
    """Restore a snapshot taken by :func:`snapshot_trust_store`.

    Every segment is digest- and size-checked before its values are
    used.  Returns ``(table, weights, grid_table)``: ``weights`` is
    ``None`` when the snapshot carried none; the persisted Grid levels
    are restored into ``grid_table`` when given (custom ETS tables do not
    survive JSON), into a fresh table of the persisted shape otherwise,
    and ``grid_table`` is passed through unchanged when the snapshot
    carried no Grid levels.

    Raises:
        TrustJournalError: on schema/structure problems, a digest
            mismatch, a missing or truncated segment, or a Grid table of
            the wrong shape — naming the offending path.
    """
    directory = Path(directory)
    manifest = _load_manifest(directory)
    entities = manifest["entities"]
    contexts = [TrustContext(name) for name in manifest["contexts"]]
    count = int(manifest["rows"])
    cols = [
        _read_segment(directory, manifest["columns"][name], count).tolist()
        for name, _ in _COLUMNS
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
    table._epoch = max(table._epoch, int(manifest["table_epoch"]))
    weights_data = manifest.get("weights")
    weights = None if weights_data is None else _weights_from_dict(weights_data)
    if manifest.get("grid") is not None:
        grid_table = _restore_grid(directory, manifest["grid"], grid_table)
    return table, weights, grid_table
