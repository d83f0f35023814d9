"""Resilient trust-query path: timeout → backoff → circuit breaker.

:class:`ResilientTrustSource` fronts the central trust-level table.  Every
TC-row fetch goes through :meth:`ResilientTrustSource.check`, which applies
the full degradation ladder on the deterministic simulation clock/RNG:

1. if the source's circuit breaker is **open**, fail fast with
   :class:`~repro.errors.TrustSourceUnavailable` (no source contact, no RNG
   draws — a hammered breaker costs nothing and stays reproducible);
2. otherwise attempt the query: sample the answer latency, time out when
   the source is down or slower than the budget, and retry under the
   exponential-backoff-with-jitter schedule;
3. exhausted retries record a breaker failure and raise
   :class:`~repro.errors.TrustQueryTimeout`;
4. an answered query whose data age exceeds the staleness bound raises
   :class:`~repro.errors.StaleTrustData` (the source is *up* — the breaker
   records a success — but the data must not be trusted for pricing).

The query clock is advanced externally (:meth:`ResilientTrustSource.advance`)
by whoever owns the simulation time — the scheduler, at every mapping event.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

import numpy as np

from repro.errors import (
    ConfigurationError,
    StaleTrustData,
    TrustQueryTimeout,
    TrustSourceUnavailable,
)
from repro.faults.model import MachineTimeline
from repro.grid.topology import Grid
from repro.obs.metrics import MetricsRegistry
from repro.state import Obj, restore_rng, rng_state
from repro.trustfaults.breaker import BreakerState, CircuitBreaker
from repro.trustfaults.model import TrustFaultModel, TrustQueryConfig, TrustSourceFault

__all__ = ["SourcePath", "ResilientTrustSource"]


class SourcePath:
    """Materialised availability sample path of one trust source.

    Combines the deterministic parts of a :class:`TrustSourceFault`
    (blackout, explicit outage windows) with a lazily generated random
    up-down process, and resolves data age against the source's refresh
    schedule: the source refreshes at every multiple of
    ``refresh_interval`` *at which it is up*, so outages let data age.
    """

    def __init__(
        self,
        fault: TrustSourceFault,
        rng: np.random.Generator,
        *,
        start: float = 0.0,
    ) -> None:
        self._fault = fault
        self.timeline = (
            MachineTimeline(
                rng, fault.outage_mtbf, fault.outage_mttr, start=start
            )
            if fault.outage_mtbf is not None
            else None
        )

    def is_down(self, t: float) -> bool:
        """Whether the source is unreachable at ``t``."""
        if self._fault.blackout:
            return True
        for lo, hi in self._fault.outages:
            if lo <= t < hi:
                return True
        if self.timeline is not None and not self.timeline.is_up(t):
            return True
        return False

    def age(self, t: float) -> float:
        """Age of the source's data at ``t`` (0 when always fresh)."""
        interval = self._fault.refresh_interval
        if interval is None:
            return 0.0
        k = int(t // interval)
        while k >= 0:
            tick = k * interval
            if not self.is_down(tick):
                return t - tick
            k -= 1
        return t  # never refreshed since the epoch


class ResilientTrustSource:
    """The central trust-level table behind a resilient query path.

    Args:
        grid: the Grid whose trust table this source serves.
        fault: availability fault profile (``None`` → always healthy; the
            query path still runs, so healthy-source runs exercise the same
            code without ever degrading).
        config: query-path tuning (timeout, staleness bound, backoff,
            breaker parameters).
        rng: generator (or integer seed) driving latency samples, backoff
            jitter and the random outage process.  Self-contained: draws
            never perturb workload or fault streams.
        metrics: optional registry; counts ``trustq.queries`` /
            ``timeouts`` / ``fast_fails`` / ``stale`` / ``degraded`` and a
            ``trustq.latency_s`` histogram, plus breaker transitions.
        name: source label used in metric names.
        start: initial clock value.
    """

    #: Spec of :meth:`state_dict` (see :mod:`repro.state`).
    STATE = Obj(
        "trust-source state",
        {
            "now": float,
            "breaker": CircuitBreaker.STATE,
            "rng": dict,
            "timeline": replace(MachineTimeline.STATE, nullable=True),
        },
    )

    def __init__(
        self,
        grid: Grid,
        *,
        fault: TrustSourceFault | None = None,
        config: TrustQueryConfig | None = None,
        rng: np.random.Generator | int | None = None,
        metrics: MetricsRegistry | None = None,
        name: str = "table",
        start: float = 0.0,
    ) -> None:
        self.grid = grid
        self.fault = fault
        self.config = config if config is not None else TrustQueryConfig()
        if rng is None or isinstance(rng, int):
            rng = np.random.default_rng(0 if rng is None else rng)
        self._rng = rng
        self.metrics = metrics if metrics is not None else MetricsRegistry.disabled()
        self.name = name
        self.now = float(start)
        self.breaker = CircuitBreaker(
            name=name,
            failure_threshold=self.config.failure_threshold,
            cooldown=self.config.cooldown,
            probe_successes=self.config.probe_successes,
            metrics=self.metrics,
        )
        self._path = (
            SourcePath(fault, rng, start=start) if fault is not None else None
        )

    # -- clock ---------------------------------------------------------------

    def advance(self, t: float) -> None:
        """Move the query clock forward to ``t`` (never backwards)."""
        if t > self.now:
            self.now = float(t)

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Adopt ``metrics`` for the source *and* its circuit breaker.

        Used by the scheduler to thread its registry through, mirroring how
        it adopts the fault injector's; instrumentation never changes
        query outcomes.
        """
        self.metrics = metrics
        self.breaker.metrics = metrics

    # -- checkpoint ----------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """The query clock, the breaker, the RNG and the outage timeline.

        ``timeline`` is the random outage process as far as it has been
        materialised (``None`` without an ``outage_mtbf``).  The RNG both
        samples latencies and extends that timeline lazily, so the two are
        saved together: a restored source draws what the saved one would
        have drawn, and sees the same outages.
        """
        timeline = self._path.timeline if self._path is not None else None
        return {
            "now": self.now,
            "breaker": self.breaker.state_dict(),
            "rng": rng_state(self._rng),
            "timeline": None if timeline is None else timeline.state_dict(),
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict` (other keys of
        ``state`` are ignored).

        Raises:
            ConfigurationError: when the state has an outage timeline and
                this source has no random outage process, or the other way
                round, or numpy refuses the RNG state, or the timeline is
                not ordered; the RNG and timeline checks run before the
                clock and breaker are restored.
        """
        timeline = self._path.timeline if self._path is not None else None
        if (state["timeline"] is None) != (timeline is None):
            has = "has no" if timeline is None else "has a"
            raise ConfigurationError(
                f"trust-source state with outage timeline {state['timeline']!r:.60}"
                f" cannot restore a source that {has} random outage process "
                "(outage_mtbf)"
            )
        if timeline is not None:
            timeline.restore(state["timeline"])
        restore_rng(self._rng, state["rng"])
        self.now = float(state["now"])
        self.breaker.restore(state["breaker"])

    # -- the guarded query ---------------------------------------------------

    def check(self) -> None:
        """One guarded trust-plane query at the current clock.

        Returns normally when the source answered with fresh data; raises
        one of the typed :class:`~repro.errors.TrustQueryError` subclasses
        otherwise.  Breaker state is updated as a side effect.
        """
        now = self.now
        if self.metrics.enabled:
            self.metrics.counter("trustq.queries").add()
        if not self.breaker.allows(now):
            if self.metrics.enabled:
                self.metrics.counter("trustq.fast_fails").add()
            raise TrustSourceUnavailable(
                f"trust source {self.name!r}: circuit breaker open at t={now:g}"
            )
        if self._path is None:
            self.breaker.record_success(now)
            return
        backoff = self.config.backoff
        elapsed = 0.0
        for attempt in range(backoff.max_retries + 1):
            at = now + elapsed
            latency = (
                float(self._rng.exponential(self.fault.latency_mean))
                if self.fault.latency_mean > 0
                else 0.0
            )
            if self.metrics.enabled:
                self.metrics.histogram("trustq.latency_s").observe(latency)
            if not self._path.is_down(at) and latency <= self.config.timeout:
                age = self._path.age(at)
                if age > self.config.staleness_bound:
                    # The source is up and answering; only its data is old.
                    self.breaker.record_success(now)
                    if self.metrics.enabled:
                        self.metrics.counter("trustq.stale").add()
                    raise StaleTrustData(
                        f"trust source {self.name!r}: data age {age:g} exceeds "
                        f"staleness bound {self.config.staleness_bound:g}"
                    )
                self.breaker.record_success(now)
                return
            if self.metrics.enabled:
                self.metrics.counter("trustq.timeouts").add()
            if attempt < backoff.max_retries:
                elapsed += backoff.delay(attempt, self._rng)
        self.breaker.record_failure(now)
        raise TrustQueryTimeout(
            f"trust source {self.name!r}: query timed out after "
            f"{backoff.max_retries + 1} attempts at t={now:g}"
        )

    # -- convenience ---------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        """The breaker state at the current clock."""
        return self.breaker.state(self.now)

    @classmethod
    def from_model(
        cls,
        grid: Grid,
        model: TrustFaultModel,
        *,
        rng: np.random.Generator | int | None = None,
        metrics: MetricsRegistry | None = None,
        start: float = 0.0,
    ) -> "ResilientTrustSource":
        """Build the central-table source described by ``model``."""
        return cls(
            grid,
            fault=model.table,
            config=model.query,
            rng=rng,
            metrics=metrics,
            start=start,
        )

