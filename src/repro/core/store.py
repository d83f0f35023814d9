"""Base-snapshot codec of the durable trust plane (``repro.trust.store/v1``).

Every generation of a :class:`~repro.core.journal.DurableTrustPlane`
starts from a base snapshot written by this module; the write-ahead
journal then records the mutations on top of it.  The snapshot holds a
:class:`~repro.core.tables.TrustTable` (and optionally its learned
:class:`~repro.core.recommender.RecommenderWeights`) as **one fixed-dtype
binary segment per Grid-domain shard per column**, with a JSON manifest
carrying the shard epochs and a SHA-256 digest per segment.  The layout
follows tahoe-lafs' grid-manager certificate discipline: durable
per-domain state files plus a signed-by-digest index, so partial or
tampered snapshots are *refused* with a
:class:`~repro.core.journal.TrustJournalError` naming the offending file,
never silently repaired.

Restore checks every segment's digest and size, then replays the rows
domain by domain into a fresh table.  Per-trustee opinion order is
preserved (every opinion about ``y`` lives in ``y``'s domain segment, in
insertion order), which is exactly the order the reputation average
accumulates in — the restored Γ surface is bit-identical to one computed
before the snapshot.  The only observable difference is diagnostic: the
scalar first-offender ``ValueError`` for future-dated records may name a
different offender, because the *global* interleave of records across
domains is not part of the persisted state.

On-disk layout (all integers ``<i8``, all floats ``<f8``, little-endian):

.. code-block:: text

    <dir>/manifest.json                     repro.trust.store/v1
    <dir>/shard-<k>.<column>.bin            6 columns per shard:
        truster, trustee, context           indices into manifest lists
        value, time                         float payload
        txcount                             TrustRecord.transaction_count
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.context import TrustContext
from repro.core.domains import DomainMap
from repro.core.journal import TrustJournalError, sync_dir, sync_file
from repro.core.recommender import AllianceRegistry, RecommenderWeights
from repro.core.tables import TrustTable

__all__ = [
    "STORE_SCHEMA",
    "snapshot_trust_store",
    "restore_trust_store",
]

STORE_SCHEMA = "repro.trust.store/v1"

_COLUMNS = (
    ("truster", "<i8"),
    ("trustee", "<i8"),
    ("context", "<i8"),
    ("value", "<f8"),
    ("time", "<f8"),
    ("txcount", "<i8"),
)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


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
        # Epoch counters, persisted as [key, count] pairs (JSON object
        # keys would coerce int domains to strings).  The write-ahead
        # journal (repro.core.journal) verifies each replayed op against
        # these, so a restore must reproduce them exactly — replay-derived
        # counts undercount whenever history contained overwrites.
        "epochs": {
            "self": weights._epoch,
            "domains": sorted(weights._domain_epochs.items(), key=repr),
        },
        "alliance_epochs": {
            "self": weights.alliances._epoch,
            "domains": sorted(
                weights.alliances._domain_epochs.items(), key=repr
            ),
        },
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


def _weights_from_dict(
    data: dict[str, Any], domains: DomainMap
) -> RecommenderWeights:
    alliances = AllianceRegistry(domains=domains)
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
            domains=domains,
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
            domains=domains,
        )
    for entity, accuracy in data.get("accuracy", {}).items():
        weights._accuracy[entity] = float(accuracy)
    # Fast-forward the persisted epoch counters: the declare() replay
    # above produced synthetic counts (one bump per group), but journal
    # replay verifies ops against the *original* counters.  The persisted
    # value is always >= the replayed one, so max() never regresses.
    epochs = data.get("epochs")
    if epochs is not None:
        weights._epoch = max(weights._epoch, int(epochs["self"]))
        for domain, count in epochs["domains"]:
            weights._domain_epochs[domain] = max(
                weights._domain_epochs.get(domain, 0), int(count)
            )
    alliance_epochs = data.get("alliance_epochs")
    if alliance_epochs is not None:
        alliances._epoch = max(alliances._epoch, int(alliance_epochs["self"]))
        for domain, count in alliance_epochs["domains"]:
            alliances._domain_epochs[domain] = max(
                alliances._domain_epochs.get(domain, 0), int(count)
            )
    return weights


def snapshot_trust_store(
    directory: str | Path,
    table: TrustTable,
    weights: RecommenderWeights | None = None,
) -> Path:
    """Snapshot ``table`` (and optionally ``weights``) into ``directory``.

    Writes one little-endian binary segment per shard per column plus a
    ``manifest.json`` carrying the schema tag, the interned entity and
    context lists, every shard's mutation epoch and a SHA-256 digest per
    segment.  Returns the manifest path.

    The snapshot is **crash-atomic**: segments and manifest are written
    into a temporary sibling directory (``<name>.tmp``), fsynced, and
    swapped into place by rename — any previous snapshot at ``directory``
    is parked as ``<name>.old`` for the instant of the swap and removed
    once the new one is durable.  A kill at any point leaves either the
    old snapshot or the new one restorable (see the ``.old`` fallback of
    :meth:`DurableTrustPlane.recover
    <repro.core.journal.DurableTrustPlane.recover>`), never a
    half-written mix that the digest check would turn into total loss.

    Entity identifiers and domain keys must be JSON-representable
    (strings or integers); the Grid agents' ``"cd:0"`` convention and the
    default CRC-32 bucketing both satisfy this.

    Raises:
        TrustJournalError: if an entity or domain key cannot be persisted.
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
    entities: list = []
    entity_index: dict = {}
    contexts: list[str] = []
    context_index: dict[TrustContext, int] = {}
    shards: list[dict[str, Any]] = []
    for k, domain in enumerate(table.domains_present()):
        if not isinstance(domain, (str, int)):
            raise TrustJournalError(
                f"domain key {domain!r} is not JSON-representable; use a "
                "DomainMap resolving to str or int keys"
            )
        items = list(table.domain_records(domain))
        n = len(items)
        cols = {name: np.empty(n, dtype=dtype) for name, dtype in _COLUMNS}
        for i, ((z, y, c), rec) in enumerate(items):
            for entity in (z, y):
                if not isinstance(entity, (str, int)):
                    raise TrustJournalError(
                        f"entity {entity!r} is not JSON-representable"
                    )
                if entity not in entity_index:
                    entity_index[entity] = len(entities)
                    entities.append(entity)
            ci = context_index.get(c)
            if ci is None:
                ci = len(contexts)
                context_index[c] = ci
                contexts.append(c.name)
            cols["truster"][i] = entity_index[z]
            cols["trustee"][i] = entity_index[y]
            cols["context"][i] = ci
            cols["value"][i] = rec.value
            cols["time"][i] = rec.last_transaction
            cols["txcount"][i] = rec.transaction_count
        column_meta: dict[str, Any] = {}
        for name, dtype in _COLUMNS:
            fname = f"shard-{k}.{name}.bin"
            fpath = directory / fname
            fpath.write_bytes(cols[name].tobytes())
            sync_file(fpath)
            column_meta[name] = {
                "file": fname,
                "dtype": dtype,
                "sha256": _sha256(fpath),
            }
        shards.append(
            {
                "domain": domain,
                "epoch": table.domain_epoch(domain),
                "rows": n,
                "columns": column_meta,
            }
        )
    domain_map: dict[str, Any]
    if table.domains.domain_of is None:
        domain_map = {"kind": "crc32", "n_shards": table.domains.n_shards}
    else:
        domain_map = {"kind": "explicit"}
    manifest: dict[str, Any] = {
        "schema": STORE_SCHEMA,
        "domain_map": domain_map,
        "entities": entities,
        "contexts": contexts,
        "table_epoch": table.epoch,
        # Every domain counter, including domains whose buckets are
        # currently empty (removals leave a bumped counter behind); the
        # per-shard "epoch" fields only cover populated domains, and the
        # write-ahead journal needs the full map to verify replays.
        "domain_epochs": sorted(table._domain_epochs.items(), key=repr),
        "shards": shards,
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
    for key in ("domain_map", "entities", "contexts", "table_epoch", "shards"):
        if key not in manifest:
            raise TrustJournalError(
                f"trust-store manifest {manifest_path} missing {key!r}"
            )
    for shard in manifest["shards"]:
        for key in ("domain", "epoch", "rows", "columns"):
            if key not in shard:
                raise TrustJournalError(
                    f"trust-store manifest {manifest_path}: shard entry "
                    f"missing {key!r}"
                )
        for name, _ in _COLUMNS:
            meta = shard["columns"].get(name)
            if meta is None or not {"file", "dtype", "sha256"} <= set(meta):
                raise TrustJournalError(
                    f"trust-store manifest {manifest_path}: shard "
                    f"{shard['domain']!r} missing column {name!r}"
                )
    return manifest


def _read_segment(directory: Path, meta: dict[str, Any], rows: int) -> list:
    """Digest- and size-check one column segment; return its values."""
    fpath = directory / meta["file"]
    if not fpath.is_file():
        raise TrustJournalError(f"missing trust-store segment {fpath}")
    data = fpath.read_bytes()
    if hashlib.sha256(data).hexdigest() != meta["sha256"]:
        raise TrustJournalError(
            f"digest mismatch for trust-store segment {fpath}; "
            "refusing to restore"
        )
    if len(data) != rows * 8:
        raise TrustJournalError(
            f"trust-store segment {fpath} has wrong size for {rows} rows"
        )
    return np.frombuffer(data, dtype=meta["dtype"]).tolist()


def restore_trust_store(
    directory: str | Path, *, domains: DomainMap | None = None
) -> tuple[TrustTable, RecommenderWeights | None]:
    """Restore a snapshot taken by :func:`snapshot_trust_store`.

    Every column segment is digest- and size-checked before its rows are
    replayed.  Snapshots of tables with an explicit ``domain_of``
    resolver require the caller to pass an equivalent ``domains`` map —
    callables do not survive JSON.  Returns ``(table, weights)``;
    ``weights`` is ``None`` when the snapshot carried none.

    Raises:
        TrustJournalError: on schema/structure problems, a digest
            mismatch, a missing or truncated segment, a domain-map
            mismatch, or a missing ``domains`` for an explicit-map
            snapshot — naming the offending path.
    """
    directory = Path(directory)
    manifest = _load_manifest(directory)
    dm = manifest["domain_map"]
    if dm["kind"] == "crc32":
        if domains is None:
            domains = DomainMap(n_shards=int(dm["n_shards"]))
    elif domains is None:
        raise TrustJournalError(
            f"snapshot {directory / 'manifest.json'} was taken with an "
            "explicit domain resolver; pass an equivalent DomainMap via "
            "domains="
        )
    entities = manifest["entities"]
    contexts = [TrustContext(name) for name in manifest["contexts"]]
    table = TrustTable(domains=domains)
    for shard_meta in manifest["shards"]:
        domain = shard_meta["domain"]
        rows = int(shard_meta["rows"])
        cols = [
            _read_segment(directory, shard_meta["columns"][name], rows)
            for name, _ in _COLUMNS
        ]
        for zi, yi, ci, value, time, txcount in zip(*cols):
            y = entities[yi]
            restored_domain = table.domain_of(y)
            if restored_domain != domain:
                raise TrustJournalError(
                    f"domain map mismatch: snapshot {directory} stores "
                    f"{y!r} in domain {domain!r}, restore resolves it to "
                    f"{restored_domain!r}"
                )
            table.record(
                entities[zi], y, contexts[ci], value, time,
                transaction_count=txcount,
            )
    # Fast-forward the epoch counters to their persisted values: the
    # record() replay above bumped them once per surviving row, which
    # undercounts any history with overwrites or removals.  The
    # write-ahead journal verifies replayed ops against the original
    # counters.  Persisted >= replayed always holds (every surviving
    # record cost at least one bump), so max() never regresses a counter.
    for domain, count in manifest.get("domain_epochs", []):
        table._domain_epochs[domain] = max(
            table._domain_epochs.get(domain, 0), int(count)
        )
    table._epoch = max(table._epoch, int(manifest["table_epoch"]))
    weights_data = manifest.get("weights")
    weights = (
        None if weights_data is None else _weights_from_dict(weights_data, domains)
    )
    return table, weights
