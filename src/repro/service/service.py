"""The always-on grid scheduling service.

:class:`GridService` wraps a configured
:class:`~repro.scheduling.scheduler.TRMScheduler` and runs it as a
long-lived system instead of a one-shot batch experiment:

* an **ingestion plane** (:mod:`repro.service.admission`) decides, per
  arrival, whether the request is admitted to the scheduler or shed with a
  typed reason (queue full, rate limited, backpressure, draining);
* a **rolling window** fires every ``window_interval`` simulated seconds —
  for batch heuristics it is the meta-request formation tick, reusing the
  incremental fast kernels across windows; for immediate heuristics it
  only carries the service housekeeping;
* **backpressure** (:mod:`repro.service.backpressure`) latches when the
  unsettled backlog crosses a watermark and pushes back on ingestion;
* a **watchdog** trips on windows that blow their wall-clock budget or on
  a backlog that stops making progress;
* **checkpoints** at window boundaries capture the complete service state
  (:mod:`repro.service.checkpoint`) so a crash between windows resumes
  with settled-exactly-once accounting.

The service is *equivalence-preserving by construction*: with unlimited
admission and no kills it drives the shared
:class:`~repro.scheduling.engine.SchedulingEngine` through the exact event
sequence of ``TRMScheduler.run`` (same priorities, same tie-breaks, same
accumulated window floats), so the cumulative schedule is bit-identical to
the batch run — a property the service test suite pins on the full
Table-6 workload.
"""

from __future__ import annotations

import time as _time
from collections import Counter as _Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    SchedulingError,
    ServiceError,
    ServiceKilled,
    ServiceStalled,
)
from repro.faults.records import FailureEvent, FailureKind
from repro.grid.request import Request
from repro.scheduling.engine import SchedulingEngine
from repro.scheduling.result import CompletionRecord, ScheduleResult
from repro.scheduling.scheduler import TRMScheduler
from repro.service.admission import AdmissionController, AdmissionPolicy, ShedReason
from repro.service.backpressure import BackpressureLatch
from repro.service.checkpoint import (
    CHECKPOINT_SCHEMA,
    attach_trust_journal,
    validate_checkpoint,
    verify_trust_journal,
)
from repro.sim.events import Event, EventPriority
from repro.sim.kernel import Simulator

__all__ = [
    "WatchdogConfig",
    "ServiceConfig",
    "ServiceResult",
    "GridService",
    "DEFAULT_WINDOW_INTERVAL",
]

#: Window period used for immediate heuristics when none is configured
#: (batch heuristics always use their ``batch_interval``).
DEFAULT_WINDOW_INTERVAL = 600.0


@dataclass(frozen=True)
class WatchdogConfig:
    """Stuck-window detection.

    Attributes:
        window_wall_budget_s: wall-clock budget for one window's batch
            mapping; a window exceeding it trips the watchdog.
        stall_window_limit: consecutive windows with a non-empty backlog
            and no settling progress that trip the watchdog.
        fail_fast: raise :class:`~repro.errors.ServiceStalled` on a trip
            instead of only counting it.
    """

    window_wall_budget_s: float = 5.0
    stall_window_limit: int = 64
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.window_wall_budget_s <= 0:
            raise ConfigurationError("window_wall_budget_s must be positive")
        if self.stall_window_limit < 1:
            raise ConfigurationError("stall_window_limit must be >= 1")


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of one :class:`GridService`.

    Attributes:
        admission: the ingestion plane's policy; defaults to unlimited
            (admit everything — the equivalence configuration).
        window_interval: rolling-window period for *immediate* heuristics
            (batch heuristics use the scheduler's ``batch_interval``);
            defaults to :data:`DEFAULT_WINDOW_INTERVAL`.
        backpressure_high: backlog size engaging the backpressure latch;
            ``None`` disables backpressure.
        backpressure_low: backlog size releasing it (defaults to half of
            ``backpressure_high``).
        watchdog: stuck-window detection settings.
    """

    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy.unlimited)
    window_interval: float | None = None
    backpressure_high: int | None = None
    backpressure_low: int | None = None
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)

    def __post_init__(self) -> None:
        if self.window_interval is not None and self.window_interval <= 0:
            raise ConfigurationError("window_interval must be positive")
        if self.backpressure_low is not None and self.backpressure_high is None:
            raise ConfigurationError(
                "backpressure_low needs backpressure_high"
            )


@dataclass(frozen=True)
class ServiceResult:
    """Outcome of one service run.

    Attributes:
        schedule: the cumulative schedule over every settled request —
            for unlimited admission without kills, bit-identical to the
            batch ``TRMScheduler`` result on the same workload.
        submitted: requests that reached the ingestion plane.
        admitted: requests that passed admission into the scheduler.
        shed: shed-reason tag → count for ingestion-refused requests.
        windows: rolling windows completed.
        watchdog_trips: stuck-window detections.
        checkpoints: boundary checkpoints taken.
        backpressure_engagements: times the backpressure latch engaged.
        backpressure_releases: times it released.
        checkpoint_payloads: the boundary checkpoints themselves, in the
            order taken (``checkpoint_every`` runs only).
    """

    schedule: ScheduleResult
    submitted: int
    admitted: int
    shed: dict[str, int]
    windows: int
    watchdog_trips: int
    checkpoints: int
    backpressure_engagements: int
    backpressure_releases: int
    checkpoint_payloads: tuple[dict, ...] = ()

    @property
    def shed_total(self) -> int:
        """Requests refused by the ingestion plane (all reasons)."""
        return sum(self.shed.values())

    def summary(self) -> dict[str, Any]:
        """Headline service accounting (includes the schedule summary)."""
        return {
            **self.schedule.summary(),
            "service": {
                "submitted": self.submitted,
                "admitted": self.admitted,
                "shed": dict(sorted(self.shed.items())),
                "windows": self.windows,
                "watchdog_trips": self.watchdog_trips,
                "checkpoints": self.checkpoints,
                "backpressure_engagements": self.backpressure_engagements,
            },
        }


class GridService:
    """An always-on scheduling service over one configured scheduler.

    A service instance is **single-shot**: it owns its scheduler's mutable
    state (cost-provider exclusions, trust-source clock) for exactly one
    :meth:`serve` *or* :meth:`resume` call.  To restore a checkpoint,
    construct a fresh, identically-configured scheduler and service and
    call :meth:`resume` on it.

    Args:
        scheduler: the configured batch driver to run as a service.
        config: service-plane configuration; defaults to unlimited
            admission, no backpressure, counting watchdog.
        trust_plane: optional :class:`~repro.core.journal.DurableTrustPlane`
            whose delta checkpoints ride along in every service
            checkpoint (``trust_journal`` sidecar) — the hot path then
            fsyncs only the journal tail, never the full store.  On
            :meth:`resume`, the plane must sit exactly at the sidecar's
            pinned generation/offset (recover it through
            :func:`~repro.service.checkpoint.resolve_trust_journal`).
    """

    def __init__(
        self,
        scheduler: TRMScheduler,
        config: ServiceConfig | None = None,
        trust_plane: Any = None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config if config is not None else ServiceConfig()
        self.trust_plane = trust_plane
        self.metrics = scheduler.metrics
        self.admission = AdmissionController(self.config.admission)
        self.latch = (
            BackpressureLatch(
                self.config.backpressure_high, self.config.backpressure_low
            )
            if self.config.backpressure_high is not None
            else None
        )
        if scheduler.batch_interval is not None:
            self.interval = scheduler.batch_interval
        else:
            self.interval = (
                self.config.window_interval
                if self.config.window_interval is not None
                else DEFAULT_WINDOW_INTERVAL
            )
        self._batch_mode = scheduler.batch_interval is not None
        self._served = False
        # Per-run state, bound by _bind().
        self._sim: Simulator | None = None
        self._engine: SchedulingEngine | None = None
        self._requests: Sequence[Request] = ()
        self._total = 0
        self._epoch = 0
        self._next_window = self.interval
        self._submitted = 0
        self._admitted = 0
        self._shed: _Counter[str] = _Counter()
        self._watchdog_trips = 0
        self._stalled_windows = 0
        self._last_settled = 0
        self._checkpoints: list[dict] = []
        self._kill_after: int | None = None
        self._checkpoint_every: int | None = None

    # -- lifecycle -----------------------------------------------------------

    def serve(
        self,
        requests: Sequence[Request],
        *,
        kill_after_window: int | None = None,
        checkpoint_every: int | None = None,
    ) -> ServiceResult:
        """Run the service over ``requests`` until everything settles.

        Args:
            requests: the workload; arrival times drive ingestion.
            kill_after_window: crash emulation — raise
                :class:`~repro.errors.ServiceKilled` (carrying the
                boundary checkpoint) once this many windows completed.
            checkpoint_every: take a checkpoint every N windows; taken
                checkpoints accumulate on :attr:`checkpoints`.

        Returns:
            The :class:`ServiceResult`; its ``schedule`` accounts for
            every submitted request exactly once (completed, shed/
            rejected, or dropped).
        """
        engine, sim = self._begin(
            requests, kill_after_window, checkpoint_every
        )
        sim.schedule_many(
            [request.arrival_time for request in requests],
            self._on_arrival,
            priority=EventPriority.ARRIVAL,
            payloads=requests,
        )
        if self._total > 0:
            sim.schedule(
                self.interval, self._on_window, priority=EventPriority.BATCH
            )
            engine.start_machine_watch()
        return self._drive()

    def resume(
        self,
        checkpoint: dict,
        requests: Sequence[Request],
        *,
        kill_after_window: int | None = None,
        checkpoint_every: int | None = None,
    ) -> ServiceResult:
        """Restore ``checkpoint`` and run the remainder of ``requests``.

        The service must be freshly constructed and configured identically
        to the one that took the checkpoint (same heuristic, policy,
        window interval, machine count, trust table epoch) — mismatches
        raise :class:`~repro.errors.CheckpointError`.  Settled accounting
        resumes exactly where the checkpoint left it: nothing settles
        twice, nothing is lost.
        """
        payload = validate_checkpoint(checkpoint)
        sched = self.scheduler
        if payload["heuristic"] != sched.heuristic.name:
            raise CheckpointError(
                f"checkpoint was taken with heuristic "
                f"{payload['heuristic']!r}, service runs {sched.heuristic.name!r}"
            )
        if payload["policy"] != sched.policy.label:
            raise CheckpointError(
                f"checkpoint policy {payload['policy']!r} != "
                f"{sched.policy.label!r}"
            )
        if payload["window_interval"] != self.interval:
            raise CheckpointError(
                f"checkpoint window interval {payload['window_interval']} != "
                f"{self.interval}"
            )
        if payload["trust_epoch"] != sched.grid.trust_table.epoch:
            raise CheckpointError(
                "the grid's trust table evolved since the checkpoint "
                f"(epoch {sched.grid.trust_table.epoch} != "
                f"{payload['trust_epoch']}); restore onto a grid at the "
                "checkpointed trust epoch"
            )
        if len(payload["machines"]) != sched.grid.n_machines:
            raise CheckpointError(
                f"checkpoint has {len(payload['machines'])} machines, "
                f"grid has {sched.grid.n_machines}"
            )
        journal_sidecar = payload.get("trust_journal")
        if journal_sidecar is not None:
            if self.trust_plane is None:
                raise CheckpointError(
                    "checkpoint carries a trust-journal sidecar but the "
                    "resumed service has no durable trust plane attached; "
                    "recover it via resolve_trust_journal and pass "
                    "trust_plane="
                )
            verify_trust_journal(journal_sidecar, self.trust_plane)
        elif self.trust_plane is not None:
            raise CheckpointError(
                "the resumed service has a durable trust plane but the "
                "checkpoint carries no trust-journal sidecar; resuming "
                "would journal onto unpinned state"
            )

        engine, sim = self._begin(
            requests, kill_after_window, checkpoint_every
        )
        clock = float(payload["clock"])
        by_index = {r.index: r for r in requests}

        def request_of(index: int) -> Request:
            try:
                return by_index[index]
            except KeyError:
                raise CheckpointError(
                    f"checkpoint references request {index}, which is "
                    "absent from the resumed workload"
                ) from None

        # Settled accounting and machine bookkeeping.
        for state, d in zip(engine.states, payload["machines"]):
            state.available_time = float(d["available_time"])
            state.busy_time = float(d["busy_time"])
            state.assigned_count = int(d["assigned_count"])
            state.failed_count = int(d["failed_count"])
        engine.records = {
            int(k): CompletionRecord(**v)
            for k, v in payload["records"].items()
        }
        engine.rejected = {int(k): v for k, v in payload["rejected"].items()}
        engine.dropped = [int(i) for i in payload["dropped"]]
        engine.failures = [_failure_from(d) for d in payload["failures"]]
        engine.attempts = {
            int(k): int(v) for k, v in payload["attempts"].items()
        }
        # The booking loop numbers a retry one past these counts and builds
        # its record unchecked, so the counts must already be 1-based.
        for index, booked in engine.attempts.items():
            if booked < 1:
                raise CheckpointError(
                    f"checkpoint attempts of request {index} must be >= 1, "
                    f"got {booked}"
                )
        engine.batches_formed = int(payload["batches_formed"])
        engine.settled = (
            len(engine.records) + len(engine.rejected) + len(engine.dropped)
        )
        engine.pending = [
            request_of(int(i)) for i in payload["pending"]
        ]
        for idx, machines in payload["exclusions"].items():
            for m in machines:
                sched.costs.exclude(int(idx), int(m))
        self._restore_trust_plane(payload)

        # Arrivals not yet ingested resume their schedule; everything at or
        # before the checkpoint clock already fired (ARRIVAL outranks the
        # window's BATCH priority at equal times).
        ingested = (
            set(engine.records)
            | set(engine.rejected)
            | set(engine.dropped)
            | {r.index for r in engine.pending}
            | {int(k) for k in payload["inflight_failures"]}
            | {int(k) for k in payload["inflight_retries"]}
        )
        remaining = [r for r in requests if r.index not in ingested]
        sim.schedule_many(
            [max(request.arrival_time, clock) for request in remaining],
            self._on_arrival,
            priority=EventPriority.ARRIVAL,
            payloads=remaining,
        )
        # In-flight events: the attempt outcomes are already on the
        # machines' books; only the pending notifications re-arm.  A
        # completion at the checkpoint clock already fired (COMPLETION
        # outranks the window's BATCH priority at equal times).
        for record in engine.records.values():
            if record.completion_time > clock:
                engine.rearm_completion(record)
        for k, d in sorted(
            payload["inflight_failures"].items(), key=lambda kv: int(kv[0])
        ):
            engine.rearm_failure(_failure_from(d), request_of(int(k)))
        for k, due_attempt in sorted(
            payload["inflight_retries"].items(), key=lambda kv: int(kv[0])
        ):
            due, attempt = due_attempt
            engine.schedule_retry(
                request_of(int(k)), max(float(due), clock), int(attempt)
            )

        # Service-plane state.
        if payload["admission"] is not None:
            if self.admission.bucket is None:
                raise CheckpointError(
                    "checkpoint carries token-bucket state but the resumed "
                    "service has no rate limit configured"
                )
            self.admission.bucket.restore(payload["admission"])
        if payload["backpressure"] is not None:
            if self.latch is None:
                raise CheckpointError(
                    "checkpoint carries backpressure state but the resumed "
                    "service has no backpressure configured"
                )
            self.latch.restore(payload["backpressure"])
        wd = payload["watchdog"]
        self._watchdog_trips = int(wd["trips"])
        self._stalled_windows = int(wd["stalled_windows"])
        self._last_settled = int(wd["last_settled"])
        counters = payload["counters"]
        self._submitted = int(counters["submitted"])
        self._admitted = int(counters["admitted"])
        self._shed = _Counter(
            {str(k): int(v) for k, v in counters["shed"].items()}
        )
        self._epoch = int(payload["epoch"])
        self._next_window = float(payload["next_window"])

        if engine.settled < self._total:
            sim.schedule(
                self._next_window, self._on_window,
                priority=EventPriority.BATCH,
            )
        # Machines currently mid-downtime lose only that downtime's trace
        # events; outcomes are resolved against the injector timelines at
        # booking time, so accounting is unaffected.
        engine.start_machine_watch(after=clock)
        if self.metrics.enabled:
            self.metrics.counter("svc.restores").add()
        return self._drive()

    @property
    def checkpoints(self) -> tuple[dict, ...]:
        """Boundary checkpoints taken during the run (``checkpoint_every``)."""
        return tuple(self._checkpoints)

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self) -> dict:
        """Capture the complete service state at a window boundary.

        Returns a JSON-compatible payload (see
        :mod:`repro.service.checkpoint`).  Only deterministic trust-fault
        configurations can be checkpointed: a trust source with a *random*
        outage process (``outage_mtbf``) materialises its timeline lazily
        and cannot be restored faithfully.
        """
        engine, sim = self._running()
        ts = self.scheduler.trust_source
        if (
            ts is not None
            and ts.fault is not None
            and ts.fault.outage_mtbf is not None
        ):
            raise CheckpointError(
                "cannot checkpoint a trust source with a random outage "
                "process (outage_mtbf); use blackout/explicit outage "
                "windows for recoverable runs"
            )
        payload: dict[str, Any] = {
            "schema": CHECKPOINT_SCHEMA,
            "epoch": self._epoch,
            "clock": sim.now,
            "next_window": self._next_window,
            "heuristic": self.scheduler.heuristic.name,
            "policy": self.scheduler.policy.label,
            "window_interval": self.interval,
            "trust_epoch": self.scheduler.grid.trust_table.epoch,
            "machines": [
                {
                    "available_time": s.available_time,
                    "busy_time": s.busy_time,
                    "assigned_count": s.assigned_count,
                    "failed_count": s.failed_count,
                }
                for s in engine.states
            ],
            "records": {
                str(k): r._asdict() for k, r in engine.records.items()
            },
            "rejected": {str(k): v for k, v in engine.rejected.items()},
            "dropped": list(engine.dropped),
            "failures": [_failure_dict(f) for f in engine.failures],
            "attempts": {str(k): v for k, v in engine.attempts.items()},
            "batches_formed": engine.batches_formed,
            "pending": [r.index for r in engine.pending],
            "inflight_failures": {
                str(k): _failure_dict(f)
                for k, f in engine.inflight_failures.items()
            },
            "inflight_retries": {
                str(k): [due, attempt]
                for k, (due, attempt) in engine.inflight_retries.items()
            },
            "exclusions": {
                str(k): sorted(machines)
                for k, machines in self.scheduler.costs.all_exclusions().items()
            },
            "admission": (
                self.admission.bucket.state_dict()
                if self.admission.bucket is not None
                else None
            ),
            "backpressure": (
                self.latch.state_dict() if self.latch is not None else None
            ),
            "watchdog": {
                "trips": self._watchdog_trips,
                "stalled_windows": self._stalled_windows,
                "last_settled": self._last_settled,
            },
            "counters": {
                "submitted": self._submitted,
                "admitted": self._admitted,
                "shed": dict(self._shed),
            },
        }
        if ts is not None:
            breaker = ts.breaker
            opened_at = breaker._opened_at
            payload["trust_plane"] = {
                "now": ts.now,
                "breaker": {
                    "state": breaker._state.value,
                    "failures": breaker._failures,
                    "probes_ok": breaker._probes_ok,
                    "opened_at": None if np.isneginf(opened_at) else opened_at,
                    "transitions": breaker._transitions,
                },
                "rng": _jsonify_rng_state(ts._rng.bit_generator.state),
            }
        if self.trust_plane is not None:
            # Delta-checkpoint the durable trust plane: fsync only the
            # journal tail (O(changes)), pin the durable offset.
            attach_trust_journal(payload, self.trust_plane)
        return payload

    def _restore_trust_plane(self, payload: dict) -> None:
        ts = self.scheduler.trust_source
        plane = payload.get("trust_plane")
        if plane is None:
            if ts is not None:
                raise CheckpointError(
                    "the resumed service has a trust source but the "
                    "checkpoint carries no trust-plane state"
                )
            return
        if ts is None:
            raise CheckpointError(
                "checkpoint carries trust-plane state but the resumed "
                "service has no trust source"
            )
        ts.now = float(plane["now"])
        b = plane["breaker"]
        breaker = ts.breaker
        breaker._state = _breaker_state(b["state"])
        breaker._failures = int(b["failures"])
        breaker._probes_ok = int(b["probes_ok"])
        breaker._opened_at = (
            -np.inf if b["opened_at"] is None else float(b["opened_at"])
        )
        breaker._transitions = int(b["transitions"])
        ts._rng.bit_generator.state = _unjsonify_rng_state(plane["rng"])

    # -- event handlers ------------------------------------------------------

    def _on_arrival(self, event: Event) -> None:
        engine, _ = self._running()
        request: Request = event.payload
        tracer = self.scheduler.tracer
        if tracer.enabled:
            tracer.emit(event.time, "arrival", request=request.index)
        self._submitted += 1
        metered = self.metrics.enabled
        if metered:
            self.metrics.counter("svc.submitted").add()
        latch = self.latch
        reason = self.admission.decide(
            request,
            event.time,
            queue=engine.pending,
            queue_bounded=self._batch_mode,
            backpressure=latch is not None and latch.engaged,
        )
        if reason is ShedReason.QUEUE_FULL:
            victim = self.admission.eviction_victim(request, engine.pending)
            if victim is not None:
                self._shed_request(
                    victim, event.time, ShedReason.PRIORITY_EVICTED,
                    pending=True,
                )
                reason = None
        if reason is not None:
            self._shed_request(request, event.time, reason)
            return
        self._admitted += 1
        if metered:
            self.metrics.counter("svc.admitted").add()
            with self.metrics.timer("svc.enqueue_latency_s"):
                engine.submit(request, event.time)
        else:
            engine.submit(request, event.time)
        if latch is not None:
            self._update_latch(self._backlog())

    def _on_window(self, event: Event) -> None:
        engine, sim = self._running()
        deadline = self.admission.policy.deadline
        if deadline is not None and engine.pending:
            expired = [
                r
                for r in engine.pending
                if event.time - r.arrival_time > deadline
            ]
            for request in expired:
                self._shed_request(
                    request, event.time, ShedReason.DEADLINE_EXPIRED,
                    pending=True,
                )
        mapped = 0
        wall = 0.0
        if self._batch_mode:
            begin = _time.perf_counter()
            mapped = engine.form_batch(event.time)
            wall = _time.perf_counter() - begin
        self._epoch += 1
        if self.metrics.enabled:
            self.metrics.counter("svc.windows").add()
            self.metrics.histogram("svc.window_mapped").observe(mapped)
            if self._batch_mode:
                self.metrics.histogram("svc.window_wall_s").observe(wall)
        backlog = self._backlog()
        if self.metrics.enabled:
            self.metrics.histogram("svc.backlog").observe(backlog)
        self._update_latch(backlog)
        self._watch(wall, backlog, engine.settled)
        # The next window's exact accumulated float — checkpointed so a
        # resumed chain reproduces the same mapped_time values bit-for-bit.
        self._next_window = event.time + self.interval
        if (
            self._checkpoint_every is not None
            and self._epoch % self._checkpoint_every == 0
        ):
            self._checkpoints.append(self.checkpoint())
            if self.metrics.enabled:
                self.metrics.counter("svc.checkpoints").add()
        if self._kill_after is not None and self._epoch >= self._kill_after:
            raise ServiceKilled(
                f"service killed at window {self._epoch} boundary "
                f"(t={event.time})",
                self.checkpoint(),
            )
        if engine.settled < self._total:
            sim.schedule(
                self._next_window, self._on_window,
                priority=EventPriority.BATCH,
            )

    def _watch(self, wall: float, backlog: int, settled: int) -> None:
        wd = self.config.watchdog
        tripped: str | None = None
        if self._batch_mode and wall > wd.window_wall_budget_s:
            tripped = (
                f"window {self._epoch} spent {wall:.3f}s wall-clock "
                f"(budget {wd.window_wall_budget_s}s)"
            )
        if settled == self._last_settled and backlog > 0:
            self._stalled_windows += 1
            if self._stalled_windows >= wd.stall_window_limit:
                tripped = (
                    f"{self._stalled_windows} consecutive windows with a "
                    f"backlog of {backlog} and no settling progress"
                )
        else:
            self._stalled_windows = 0
        self._last_settled = settled
        if tripped is not None:
            self._watchdog_trips += 1
            if self.metrics.enabled:
                self.metrics.counter("svc.watchdog.trips").add()
            if wd.fail_fast:
                raise ServiceStalled(tripped)

    # -- helpers -------------------------------------------------------------

    def _begin(
        self,
        requests: Sequence[Request],
        kill_after_window: int | None,
        checkpoint_every: int | None,
    ) -> tuple[SchedulingEngine, Simulator]:
        if self._served:
            raise ServiceError(
                "GridService instances are single-shot; construct a fresh "
                "service (and scheduler) per serve()/resume() call"
            )
        self._served = True
        if kill_after_window is not None and kill_after_window < 1:
            raise ConfigurationError("kill_after_window must be >= 1")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        sim = Simulator(metrics=self.metrics)
        total = len(requests)
        engine = SchedulingEngine(
            self.scheduler, sim, more_work=lambda: engine.settled < total
        )
        self._sim = sim
        self._engine = engine
        self._requests = requests
        self._total = total
        self._kill_after = kill_after_window
        self._checkpoint_every = checkpoint_every
        self._last_settled = 0
        return engine, sim

    def _drive(self) -> ServiceResult:
        engine, sim = self._running()
        sim.run()
        settled = (
            len(engine.records) + len(engine.rejected) + len(engine.dropped)
        )
        if settled != self._total:
            raise SchedulingError(
                f"service drained with {len(engine.records)} completed + "
                f"{len(engine.rejected)} rejected + {len(engine.dropped)} "
                f"dropped of {self._total} requests"
            )
        return ServiceResult(
            schedule=engine.result(self._requests),
            submitted=self._submitted,
            admitted=self._admitted,
            shed=dict(sorted(self._shed.items())),
            windows=self._epoch,
            watchdog_trips=self._watchdog_trips,
            checkpoints=len(self._checkpoints),
            backpressure_engagements=(
                self.latch.engagements if self.latch is not None else 0
            ),
            backpressure_releases=(
                self.latch.releases if self.latch is not None else 0
            ),
            checkpoint_payloads=tuple(self._checkpoints),
        )

    def _shed_request(
        self,
        request: Request,
        time: float,
        reason: ShedReason,
        *,
        pending: bool = False,
    ) -> None:
        engine, _ = self._running()
        if pending:
            engine.shed_pending(request, time, reason.value)
        else:
            engine.shed(request, time, reason.value)
        self._shed[reason.value] += 1
        if self.metrics.enabled:
            self.metrics.counter("svc.shed").add()
            self.metrics.counter(f"svc.shed.{reason.value}").add()

    def _backlog(self) -> int:
        engine, _ = self._running()
        return (
            len(engine.pending)
            + len(engine.inflight_failures)
            + len(engine.inflight_retries)
        )

    def _update_latch(self, backlog: int) -> None:
        if self.latch is None:
            return
        if self.latch.update(backlog) and self.metrics.enabled:
            name = "engaged" if self.latch.engaged else "released"
            self.metrics.counter(f"svc.backpressure.{name}").add()

    def _running(self) -> tuple[SchedulingEngine, Simulator]:
        if self._engine is None or self._sim is None:
            raise ServiceError("the service has no active run")
        return self._engine, self._sim


# -- (de)serialisation helpers ----------------------------------------------


def _failure_dict(failure: FailureEvent) -> dict:
    return {
        "request_index": failure.request_index,
        "machine_index": failure.machine_index,
        "attempt": failure.attempt,
        "start_time": failure.start_time,
        "failure_time": failure.failure_time,
        "wasted_work": failure.wasted_work,
        "kind": failure.kind.value,
    }


def _failure_from(d: dict) -> FailureEvent:
    return FailureEvent(
        request_index=int(d["request_index"]),
        machine_index=int(d["machine_index"]),
        attempt=int(d["attempt"]),
        start_time=float(d["start_time"]),
        failure_time=float(d["failure_time"]),
        wasted_work=float(d["wasted_work"]),
        kind=FailureKind(d["kind"]),
    )


def _breaker_state(value: str):
    from repro.trustfaults.breaker import BreakerState

    return BreakerState(value)


def _jsonify_rng_state(state: Any) -> Any:
    """Recursively coerce numpy scalars in a bit-generator state to Python."""
    if isinstance(state, dict):
        return {k: _jsonify_rng_state(v) for k, v in state.items()}
    if isinstance(state, np.ndarray):
        return {"__ndarray__": state.tolist(), "dtype": str(state.dtype)}
    if isinstance(state, np.generic):
        return state.item()
    return state


def _unjsonify_rng_state(state: Any) -> Any:
    """Invert :func:`_jsonify_rng_state` after a JSON round-trip."""
    if isinstance(state, dict):
        if "__ndarray__" in state:
            return np.array(state["__ndarray__"], dtype=state["dtype"])
        return {k: _unjsonify_rng_state(v) for k, v in state.items()}
    return state
