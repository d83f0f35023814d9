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

from collections.abc import Hashable, Iterator, Mapping
from dataclasses import dataclass

from repro.core.context import TrustContext
from repro.core.domains import DEFAULT_DOMAINS, DomainMap
from repro.core.levels import TrustLevel
from repro.errors import UnknownEntityError

__all__ = ["TrustRecord", "TrustTable", "value_to_level", "level_to_value"]

EntityId = Hashable


def value_to_level(value: float) -> TrustLevel:
    """Quantise a continuous trust value in ``[0, 1]`` to a discrete level.

    The unit interval is split into six equal bins, ``[0, 1/6) -> A`` up to
    ``[5/6, 1] -> F``.
    """
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"trust value must lie in [0, 1], got {value}")
    return TrustLevel(min(int(value * 6) + 1, int(TrustLevel.F)))


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
            transaction (the paper's ``t_xy``).
        transaction_count: number of transactions folded into ``value``; the
            update policies in :mod:`repro.core.update` use this to decide
            when enough evidence has accumulated to publish a new level.
    """

    value: float
    last_transaction: float
    transaction_count: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"trust value must lie in [0, 1], got {self.value}")
        if self.transaction_count < 0:
            raise ValueError("transaction_count must be non-negative")

    @property
    def level(self) -> TrustLevel:
        """The discrete trust level this record quantises to."""
        return value_to_level(self.value)


class TrustTable:
    """Mutable mapping ``(truster, trustee, context) -> TrustRecord``.

    Serves as both DTT and RTT (see module docstring).  Iteration order is
    insertion order, which keeps replays deterministic.

    Records are additionally bucketed by the **Grid domain of the
    trustee** (resolved through ``domains``): every opinion about ``y``
    lives in ``y``'s domain bucket, in the same relative order it holds
    in the global table.  Each bucket carries its own mutation epoch,
    which journal ops carry as ``e`` and the base-segment codec
    (:mod:`repro.core.store`) persists next to that domain's segment.
    """

    def __init__(self, domains: DomainMap = DEFAULT_DOMAINS) -> None:
        self.domains = domains
        self._records: dict[tuple[EntityId, EntityId, TrustContext], TrustRecord] = {}
        self._entities: set[EntityId] = set()
        self._epoch = 0
        self._domain_epochs: dict[Hashable, int] = {}
        self._by_domain: dict[Hashable, dict[tuple, None]] = {}
        self._domain_cache: dict[EntityId, Hashable] = {}
        # Write-ahead journal sink (see repro.core.journal); when set,
        # every record/remove appends a framed delta after applying.
        self._journal = None

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter, bumped by every :meth:`record`/:meth:`remove`.

        The coarse mutation signal: *any* table mutation bumps it.  Journal
        replay checks the fine-grained :meth:`domain_epoch` counters.
        """
        return self._epoch

    # -- domain sharding ---------------------------------------------------

    def domain_of(self, entity: EntityId) -> Hashable:
        """The Grid-domain key of ``entity`` (cached resolution)."""
        domain = self._domain_cache.get(entity)
        if domain is None:
            domain = self.domains.resolve(entity)
            self._domain_cache[entity] = domain
        return domain

    def domain_epoch(self, domain: Hashable) -> int:
        """Mutation counter of one domain bucket (0 if never touched)."""
        return self._domain_epochs.get(domain, 0)

    def domain_epochs(self) -> Mapping[Hashable, int]:
        """Read-only snapshot of every domain's mutation counter."""
        return dict(self._domain_epochs)

    def domains_present(self) -> tuple[Hashable, ...]:
        """Domains that currently hold at least one record, in
        first-appearance order."""
        return tuple(d for d, bucket in self._by_domain.items() if bucket)

    def domain_records(
        self, domain: Hashable
    ) -> Iterator[tuple[tuple[EntityId, EntityId, TrustContext], TrustRecord]]:
        """Iterate one domain's ``(key, record)`` pairs in insertion order.

        The order is the subsequence of the global insertion order whose
        trustees fall in ``domain`` — exactly the order the reputation
        loop visits those records.  The base-segment codec
        (:mod:`repro.core.store`) writes each domain's segment in it.
        """
        for key in self._by_domain.get(domain, ()):
            yield key, self._records[key]

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
        """
        if truster == trustee:
            raise ValueError("an entity cannot hold a trust record about itself")
        rec = TrustRecord(value=value, last_transaction=time, transaction_count=transaction_count)
        key = (truster, trustee, context)
        self._records[key] = rec
        self._entities.add(truster)
        self._entities.add(trustee)
        self._epoch += 1
        domain = self.domain_of(trustee)
        # dict re-assignment keeps the key's original position, matching the
        # insertion-order semantics of the global record dict.
        self._by_domain.setdefault(domain, {})[key] = None
        self._domain_epochs[domain] = self._domain_epochs.get(domain, 0) + 1
        if self._journal is not None:
            self._journal.append(
                {
                    "op": "record",
                    "z": truster,
                    "y": trustee,
                    "c": context.name,
                    "v": rec.value,
                    "t": rec.last_transaction,
                    "n": rec.transaction_count,
                    "d": domain,
                    "e": self._domain_epochs[domain],
                }
            )
        return rec

    def remove(self, truster: EntityId, trustee: EntityId, context: TrustContext) -> None:
        """Delete an entry; raises :class:`KeyError` if it does not exist."""
        key = (truster, trustee, context)
        del self._records[key]
        self._epoch += 1
        domain = self.domain_of(trustee)
        self._by_domain.get(domain, {}).pop(key, None)
        self._domain_epochs[domain] = self._domain_epochs.get(domain, 0) + 1
        if self._journal is not None:
            self._journal.append(
                {
                    "op": "remove",
                    "z": truster,
                    "y": trustee,
                    "c": context.name,
                    "d": domain,
                    "e": self._domain_epochs[domain],
                }
            )

    # -- queries ----------------------------------------------------------

    def get(
        self, truster: EntityId, trustee: EntityId, context: TrustContext
    ) -> TrustRecord | None:
        """Return the record, or ``None`` when the pair has no history."""
        return self._records.get((truster, trustee, context))

    def require(
        self, truster: EntityId, trustee: EntityId, context: TrustContext
    ) -> TrustRecord:
        """Return the record, raising :class:`UnknownEntityError` if absent."""
        rec = self.get(truster, trustee, context)
        if rec is None:
            raise UnknownEntityError(
                f"no trust record for truster={truster!r} trustee={trustee!r} "
                f"context={context.name!r}"
            )
        return rec

    def recommenders(
        self, trustee: EntityId, context: TrustContext, *, excluding: EntityId
    ) -> Iterator[tuple[EntityId, TrustRecord]]:
        """Iterate ``(z, record)`` for every third party ``z != excluding``
        that holds an opinion about ``trustee`` in ``context``.

        This is exactly the set the reputation sum of Section 2.2 ranges over.
        """
        for (truster, target, ctx), rec in self._records.items():
            if target == trustee and ctx == context and truster != excluding:
                yield truster, rec

    def entities(self) -> frozenset[EntityId]:
        """All entities that appear in the table (as truster or trustee)."""
        return frozenset(self._entities)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: tuple[EntityId, EntityId, TrustContext]) -> bool:
        return key in self._records

    def __iter__(self) -> Iterator[tuple[EntityId, EntityId, TrustContext]]:
        return iter(self._records)

    def items(self) -> Iterator[tuple[tuple[EntityId, EntityId, TrustContext], TrustRecord]]:
        """Iterate ``((truster, trustee, context), record)`` pairs."""
        return iter(self._records.items())
