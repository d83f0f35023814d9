"""Trust-plane fault models: who is unavailable, who is lying, and when.

Mirrors :mod:`repro.faults.model` — which makes *machines* fail — for the
trust information plane itself.  Two orthogonal fault families:

* **availability faults** (:class:`TrustSourceFault`): the central
  trust-level table can be slow, down, or serving stale data.  Outages
  come from explicit windows, a hard blackout flag, or an exponential
  MTBF/MTTR up-down process sampled on the deterministic simulation RNG
  (reusing the :class:`~repro.faults.model.MachineTimeline` sample-path
  machinery).
* **integrity faults** (:class:`AdversarySpec` / :class:`IntegrityFaultModel`):
  adversarial recommenders inject crafted opinions into the shared
  reputation table — badmouthing honest targets, ballot-stuffing favoured
  targets, collusive clique inflation, or oscillating two-faced behaviour.

:class:`TrustFaultModel` bundles both plus the query-path tuning
(:class:`TrustQueryConfig`) and is the user-facing configuration object,
exactly like :class:`~repro.faults.model.FaultModel` is for machine faults.
Everything is strictly opt-in: an empty model changes nothing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.trustfaults.breaker import BackoffPolicy

__all__ = [
    "TrustSourceFault",
    "TrustQueryConfig",
    "AttackKind",
    "AdversarySpec",
    "IntegrityFaultModel",
    "TrustFaultModel",
]


@dataclass(frozen=True)
class TrustSourceFault:
    """Availability fault profile of one trust source.

    Attributes:
        blackout: when True the source never answers (100 % outage).
        outages: explicit ``[start, end)`` down-windows on the sim clock —
            deterministic, useful for tests and staged recovery scenarios.
        outage_mtbf: mean up-interval of a random exponential up-down
            process (``None`` disables the random process).
        outage_mttr: mean down-interval of the random process.
        latency_mean: mean of the exponential per-attempt answer latency
            (simulated seconds; 0 answers instantly).
        refresh_interval: the source refreshes its data every this many
            simulated seconds *while up*; data age is measured against the
            last refresh that actually happened.  ``None`` means data is
            always fresh while the source is up.
    """

    blackout: bool = False
    outages: tuple[tuple[float, float], ...] = ()
    outage_mtbf: float | None = None
    outage_mttr: float = 50.0
    latency_mean: float = 0.0
    refresh_interval: float | None = None

    def __post_init__(self) -> None:
        for lo, hi in self.outages:
            if not 0.0 <= lo < hi:
                raise ConfigurationError(
                    f"outage window must satisfy 0 <= start < end, got ({lo}, {hi})"
                )
        if self.outage_mtbf is not None and self.outage_mtbf <= 0:
            raise ConfigurationError("outage_mtbf must be positive")
        if self.outage_mttr <= 0:
            raise ConfigurationError("outage_mttr must be positive")
        if self.latency_mean < 0:
            raise ConfigurationError("latency_mean must be non-negative")
        if self.refresh_interval is not None and self.refresh_interval <= 0:
            raise ConfigurationError("refresh_interval must be positive")


@dataclass(frozen=True)
class TrustQueryConfig:
    """Tuning of the resilient query path (timeout → backoff → breaker).

    Attributes:
        timeout: per-attempt latency budget (simulated seconds).
        staleness_bound: maximum acceptable data age; older answers raise
            :class:`~repro.errors.StaleTrustData` (default: no bound).
        backoff: retry schedule applied between attempts of one query.
        failure_threshold: consecutive failed queries tripping the breaker.
        cooldown: OPEN → HALF_OPEN wait (simulated seconds).
        probe_successes: half-open successes needed to close the breaker.
    """

    timeout: float = 0.5
    staleness_bound: float = math.inf
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    failure_threshold: int = 3
    cooldown: float = 50.0
    probe_successes: int = 1

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        if self.staleness_bound <= 0:
            raise ConfigurationError("staleness_bound must be positive")


class AttackKind(enum.Enum):
    """The adversarial recommendation strategies of the integrity model."""

    #: Report minimal trust about honest targets to starve them of work.
    BADMOUTH = "badmouth"
    #: Report maximal trust about favoured (typically malicious) targets.
    BALLOT_STUFF = "ballot-stuff"
    #: Ballot-stuff the targets *and* each clique member's own reputation.
    COLLUSION = "collusion"
    #: Alternate between honest-looking and lying phases (two-faced).
    OSCILLATE = "oscillate"


@dataclass(frozen=True)
class AdversarySpec:
    """One coordinated group of adversarial recommenders.

    Attributes:
        kind: the attack strategy.
        targets: resource-domain indices the attack is aimed at (victims
            for ``BADMOUTH``, beneficiaries otherwise).
        n_recommenders: size of the adversarial group.
        value_low: the trust value reported when lying *down*.
        value_high: the trust value reported when lying *up*.
        period: rounds per phase for ``OSCILLATE`` (ignored otherwise).
        label: identity prefix of the group's entities (defaults to kind).
    """

    kind: AttackKind
    targets: tuple[int, ...]
    n_recommenders: int = 3
    value_low: float = 0.05
    value_high: float = 0.95
    period: int = 2
    label: str = ""

    def __post_init__(self) -> None:
        if not self.targets:
            raise ConfigurationError("an adversary spec needs at least one target")
        if any(t < 0 for t in self.targets):
            raise ConfigurationError("target indices must be non-negative")
        if self.n_recommenders < 1:
            raise ConfigurationError("n_recommenders must be >= 1")
        for name, v in (("value_low", self.value_low), ("value_high", self.value_high)):
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1], got {v}")
        if self.period < 1:
            raise ConfigurationError("period must be >= 1")

    @property
    def group_label(self) -> str:
        """The identity prefix of this group's recommender entities."""
        return self.label or self.kind.value


@dataclass(frozen=True)
class IntegrityFaultModel:
    """All adversarial recommender groups active in a run."""

    adversaries: tuple[AdversarySpec, ...]

    def __post_init__(self) -> None:
        if not self.adversaries:
            raise ConfigurationError(
                "an integrity model needs at least one adversary spec"
            )


@dataclass(frozen=True)
class TrustFaultModel:
    """The complete trust-plane fault configuration (strictly opt-in).

    Attributes:
        table: availability fault profile of the central trust-level table
            (``None`` → the table is perfectly available).
        integrity: adversarial recommendation streams (``None`` → honest).
        query: resilient query-path tuning (timeout / backoff / breaker /
            staleness bound).
    """

    table: TrustSourceFault | None = None
    integrity: IntegrityFaultModel | None = None
    query: TrustQueryConfig = field(default_factory=TrustQueryConfig)

    @property
    def enabled(self) -> bool:
        """Whether any trust-plane fault process is configured."""
        return self.table is not None or self.integrity is not None
