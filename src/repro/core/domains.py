"""Grid-domain sharding of the entity-level trust plane.

Section 3 of the paper evaluates trust *per Grid-domain pair*; the trust
plane mirrors that structure by assigning every entity of the internal
DTT/RTT table to a **Grid domain**, and keying its per-domain mutation
counters on that domain:

* :class:`~repro.core.tables.TrustTable` buckets its records by the
  *trustee's* domain (every opinion about ``y`` lives in ``y``'s domain)
  and keeps a per-domain mutation epoch next to the global counter;
* :class:`~repro.core.recommender.AllianceRegistry` and
  :class:`~repro.core.recommender.RecommenderWeights` bump the domain of
  every member / recommender they touch;
* the write-ahead journal (:mod:`repro.core.journal`) carries those
  counters on every op as ``e`` and checks them on replay, and the
  base-segment codec (:mod:`repro.core.store`) writes one segment per
  domain.

A :class:`DomainMap` resolves entities to domains.  The default map
buckets entities into :data:`DEFAULT_N_SHARDS` domains through a CRC-32
of the entity's string form — *stable across processes and restarts*
(unlike builtin ``hash``, which is salted), which the durable trust
plane's base snapshots (:mod:`repro.core.store`) rely on.  Deployments whose
entity ids encode a real domain (the Grid agents' ``"cd:3"`` /
``"rd:7"`` convention) can install an explicit ``domain_of`` callable
instead and get exact per-Grid-domain segments.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Hashable
from dataclasses import dataclass

__all__ = ["DomainMap", "DEFAULT_N_SHARDS", "DEFAULT_DOMAINS"]

#: Shard count of the default CRC-32 bucketing map.
DEFAULT_N_SHARDS = 16


@dataclass(frozen=True)
class DomainMap:
    """Resolve entities to Grid-domain shard keys.

    Attributes:
        n_shards: bucket count of the default CRC-32 mapping (ignored when
            ``domain_of`` is set).
        domain_of: optional explicit resolver; must be deterministic and
            return a hashable, JSON-representable key (``str`` or ``int``)
            if snapshots of the sharded store are to be taken.
    """

    n_shards: int = DEFAULT_N_SHARDS
    domain_of: Callable[[Hashable], Hashable] | None = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")

    def resolve(self, entity: Hashable) -> Hashable:
        """The domain key of ``entity`` (stable across processes)."""
        if self.domain_of is not None:
            return self.domain_of(entity)
        return zlib.crc32(str(entity).encode("utf-8")) % self.n_shards


#: Shared default map: every trust-plane component constructed without an
#: explicit map uses this instance, so table, alliances and weights agree
#: on domain assignment out of the box.
DEFAULT_DOMAINS = DomainMap()
