"""Trust-plane fault injection and resilience.

PR 1's :mod:`repro.faults` made *machines* fail; this package makes the
paper's other single point of failure — the trust information plane (the
central trust-level table of Section 3, the recommender set of Section 2) —
able to fail too, and gives the scheduler the machinery to survive it:

* **availability faults** — per-source outage / latency / staleness models
  on the deterministic sim clock and RNG, behind a query path applying
  timeout → exponential backoff with jitter → a per-source circuit breaker
  (closed / open / half-open);
* **integrity faults** — adversarial recommendation streams (badmouthing,
  ballot-stuffing, collusive clique inflation, oscillating two-faced
  recommenders) injected into the shared reputation table, countered by
  outcome-driven credibility scoring that purges persistent deviators;
* **graceful degradation** — when the breaker is open or data is stale,
  the cost provider prices affected rows with the paper's trust-unaware
  blanket ESC instead of failing, and re-prices them the moment the plane
  recovers.

Strictly opt-in: with no :class:`TrustFaultModel` configured (or a healthy
source), scheduling results are bit-identical to a build without this
package.
"""

from repro.trustfaults.adversary import AdversaryFleet
from repro.trustfaults.breaker import BackoffPolicy, BreakerState, CircuitBreaker
from repro.trustfaults.credibility import CredibilityWeights
from repro.trustfaults.model import (
    AdversarySpec,
    AttackKind,
    IntegrityFaultModel,
    TrustFaultModel,
    TrustQueryConfig,
    TrustSourceFault,
)
from repro.trustfaults.query import (
    ResilientTrustSource,
    SourcePath,
)

__all__ = [
    "AdversaryFleet",
    "AdversarySpec",
    "AttackKind",
    "BackoffPolicy",
    "BreakerState",
    "CircuitBreaker",
    "CredibilityWeights",
    "IntegrityFaultModel",
    "ResilientTrustSource",
    "SourcePath",
    "TrustFaultModel",
    "TrustQueryConfig",
    "TrustSourceFault",
]
