"""Direct-trust and reputation-trust tables (DTT / RTT).

Section 2.2 of the paper computes trust from two tables:

* the **direct-trust table** ``DTT(x, y, c)`` — the trust level entity ``x``
  itself holds about entity ``y`` in context ``c``; and
* the **reputation-trust table** ``RTT(z, y, c)`` — the trust level a third
  party ``z`` reports about ``y``.

The paper notes that "in practical systems, entities will use the same
information to evaluate direct relationships and give recommendations, i.e.,
RTT and DTT will refer to the same table" — so this module provides a single
:class:`TrustTable` that serves both roles.

Entries carry continuous trust values in ``[0, 1]`` together with the time of
the last supporting transaction ``t_xy``, which the engine needs for decay.
Helpers convert between the continuous scale and the six discrete levels of
:class:`~repro.core.levels.TrustLevel`.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.core.context import TrustContext
from repro.core.levels import TrustLevel
from repro.errors import ConfigurationError

__all__ = ["TrustRecord", "TrustTable", "value_to_level", "level_to_value"]

EntityId = Hashable

#: Level of each sixth of the unit interval, indexed by ``int(value * 6)``;
#: ``value == 1`` lands in the seventh slot, which is ``F`` as well.
_LEVEL_OF_BIN = (*TrustLevel, TrustLevel.F)

#: What :meth:`TrustTable.opinions` returns for a pair nobody has rated.
_NO_OPINIONS: Mapping = MappingProxyType({})

#: What :meth:`TrustTable.latest` returns for a pair nobody has rated.
_NEVER = -math.inf


def value_to_level(value: float) -> TrustLevel:
    """Quantise a continuous trust value in ``[0, 1]`` to a discrete level.

    The unit interval is split into six equal bins, ``[0, 1/6) -> A`` up to
    ``[5/6, 1] -> F``.
    """
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"trust value must lie in [0, 1], got {value}")
    return _LEVEL_OF_BIN[int(value * 6)]


def level_to_value(level: TrustLevel | int | str) -> float:
    """Map a discrete level to the midpoint of its continuous bin."""
    level = TrustLevel.from_value(level)
    return (int(level) - 0.5) / 6.0


@dataclass(slots=True)
class TrustRecord:
    """One (truster, trustee, context) entry of a trust table.

    Attributes:
        value: continuous trust value in ``[0, 1]``.
        last_transaction: simulation time of the most recent supporting
            transaction (the paper's ``t_xy``); must be finite.
        transaction_count: number of transactions folded into ``value``; the
            update policies in :mod:`repro.core.update` use this to decide
            when enough evidence has accumulated to publish a new level.
    """

    value: float
    last_transaction: float
    transaction_count: int = 1

    def __init__(
        self, value: float, last_transaction: float, transaction_count: int = 1
    ) -> None:
        # Written out (not generated plus __post_init__): the table builds
        # one record per observed transaction.
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(f"trust value must lie in [0, 1], got {value}")
        if transaction_count < 0:
            raise ConfigurationError(
                f"transaction_count must be non-negative, got {transaction_count!r}"
            )
        if not math.isfinite(last_transaction):
            raise ConfigurationError(
                f"last_transaction must be finite, got {last_transaction}"
            )
        self.value = value
        self.last_transaction = last_transaction
        self.transaction_count = transaction_count


class TrustTable:
    """Mutable mapping ``(truster, trustee, context) -> TrustRecord``.

    Serves as both DTT and RTT (see module docstring).  Iteration order is
    insertion order, which keeps replays deterministic; the base-file
    codec (:mod:`repro.core.store`) persists records in it, so a restored
    table iterates exactly like the original.

    A ``(trustee, context name) -> {truster: record}`` index, kept in
    the same insertion order, serves :meth:`opinions` and
    :meth:`recommenders` without scanning every record.  It is keyed by
    the context's name (its identity), whose hash the string caches.
    Beside it, the newest ``last_transaction`` of each bucket serves
    :meth:`latest` in O(1).
    """

    def __init__(self) -> None:
        self._records: dict[tuple[EntityId, EntityId, TrustContext], TrustRecord] = {}
        self._by_trustee: dict[tuple[EntityId, str], dict[EntityId, TrustRecord]] = {}
        self._latest: dict[tuple[EntityId, str], float] = {}
        self._epoch = 0
        # Write-ahead journal sink (see repro.core.journal); when set,
        # every record/remove appends a delta op.
        self._journal = None

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter, bumped by every :meth:`record`/:meth:`remove`.

        Journal ops carry the value it reached as ``e``, and replay
        verifies it (see :func:`repro.core.journal.apply_op`).
        """
        return self._epoch

    # -- mutation ---------------------------------------------------------

    def record(
        self,
        truster: EntityId,
        trustee: EntityId,
        context: TrustContext,
        value: float,
        time: float,
        *,
        transaction_count: int = 1,
    ) -> TrustRecord:
        """Insert or overwrite the entry for ``(truster, trustee, context)``.

        Returns the stored :class:`TrustRecord`.

        Raises:
            ConfigurationError: if ``truster`` is ``trustee``, or the record
                is invalid (see :class:`TrustRecord`); the table is left
                unchanged.
            TrustJournalError: if the attached journal refuses the op (an
                id that is not a ``str`` or ``int``); the table is left
                unchanged.
        """
        if truster == trustee:
            raise ConfigurationError(
                "an entity cannot hold a trust record about itself, got "
                f"truster={truster!r} trustee={trustee!r}"
            )
        rec = TrustRecord(value, time, transaction_count)
        if self._journal is not None:
            # The op in the flat form the journal holds it in (see
            # repro.core.journal.JournalWriter.append), held before the
            # table changes: an op the journal refuses leaves it unchanged.
            self._journal.append(
                (
                    "record", truster, trustee, context.name, rec.value,
                    rec.last_transaction, rec.transaction_count, self._epoch + 1,
                )
            )
        self._records[truster, trustee, context] = rec
        key = (trustee, context.name)
        bucket = self._by_trustee.get(key)
        if bucket is None:
            bucket = self._by_trustee[key] = {}
        replaced = bucket.get(truster)
        bucket[truster] = rec
        latest = self._latest.get(key, _NEVER)
        if time >= latest:
            self._latest[key] = time
        elif replaced is not None and replaced.last_transaction == latest:
            # A backdated overwrite of the newest opinion: the newest time
            # may have left the bucket.  Any other backdated write leaves
            # it where it was.
            self._latest[key] = max(r.last_transaction for r in bucket.values())
        self._epoch += 1
        return rec

    def remove(self, truster: EntityId, trustee: EntityId, context: TrustContext) -> None:
        """Delete an entry; raises :class:`KeyError` if it does not exist."""
        key = (truster, trustee, context)
        del self._records[key]
        index = (trustee, context.name)
        bucket = self._by_trustee[index]
        rec = bucket.pop(truster)
        if not bucket:
            del self._by_trustee[index]
            del self._latest[index]
        elif rec.last_transaction == self._latest[index]:
            self._latest[index] = max(r.last_transaction for r in bucket.values())
        self._epoch += 1
        if self._journal is not None:
            self._journal.append(
                {
                    "op": "remove",
                    "z": truster,
                    "y": trustee,
                    "c": context.name,
                    "e": self._epoch,
                }
            )

    # -- queries ----------------------------------------------------------

    def get(
        self, truster: EntityId, trustee: EntityId, context: TrustContext
    ) -> TrustRecord | None:
        """Return the record, or ``None`` when the pair has no history."""
        # Through the trustee index: its key hashes the context's name
        # (cached by the string), not the context object.
        bucket = self._by_trustee.get((trustee, context.name))
        return None if bucket is None else bucket.get(truster)

    def opinions(
        self, trustee: EntityId, context: TrustContext
    ) -> Mapping[EntityId, TrustRecord]:
        """Every truster's record about ``trustee`` in ``context``, in
        insertion order — the index bucket itself, to be read, not changed.
        """
        return self._by_trustee.get((trustee, context.name), _NO_OPINIONS)

    def latest(self, trustee: EntityId, context: TrustContext) -> float:
        """The newest ``last_transaction`` of any opinion about ``trustee``
        in ``context`` (``-inf`` when nobody rated it); O(1)."""
        return self._latest.get((trustee, context.name), _NEVER)

    def recommenders(
        self, trustee: EntityId, context: TrustContext, *, excluding: EntityId
    ) -> Iterator[tuple[EntityId, TrustRecord]]:
        """Iterate ``(z, record)`` for every third party ``z != excluding``
        that holds an opinion about ``trustee`` in ``context``.

        This is exactly the set the reputation sum of Section 2.2 ranges over,
        in the order the records were inserted.
        """
        for truster, rec in self.opinions(trustee, context).items():
            if truster != excluding:
                yield truster, rec

    def entities(self) -> frozenset[EntityId]:
        """All entities that appear in the current records (as truster or
        trustee)."""
        return frozenset(entity for key in self._records for entity in key[:2])

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: tuple[EntityId, EntityId, TrustContext]) -> bool:
        return key in self._records

    def __iter__(self) -> Iterator[tuple[EntityId, EntityId, TrustContext]]:
        return iter(self._records)

    def items(self) -> Iterator[tuple[tuple[EntityId, EntityId, TrustContext], TrustRecord]]:
        """Iterate ``((truster, trustee, context), record)`` pairs."""
        return iter(self._records.items())
