"""The always-on grid scheduling service.

:class:`GridService` wraps a configured
:class:`~repro.scheduling.scheduler.TRMScheduler` and runs it as a
long-lived system instead of a one-shot batch experiment:

* an **ingestion plane** (:mod:`repro.service.admission`) decides, per
  arrival, whether the request is admitted to the scheduler or shed with a
  typed reason (queue full, rate limited, backpressure, deadline);
* a **rolling window** fires every batch interval — for batch heuristics
  it is the meta-request formation tick, reusing the incremental fast
  kernels across windows; for immediate heuristics it fires every
  :data:`DEFAULT_WINDOW_INTERVAL` and only carries the service
  housekeeping;
* **backpressure** (:mod:`repro.service.backpressure`) latches when the
  unsettled backlog crosses a watermark and pushes back on ingestion;
* a **watchdog** counts windows that blow their wall-clock budget
  (:data:`WINDOW_WALL_BUDGET_S`) and backlogs that stop making progress
  (:data:`STALL_WINDOW_LIMIT` windows);
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
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    SchedulingError,
    ServiceError,
    ServiceKilled,
)
from repro.grid.feedback import TrustFeedback
from repro.grid.request import Request
from repro.scheduling.engine import SchedulingEngine
from repro.scheduling.result import ScheduleResult
from repro.scheduling.scheduler import TRMScheduler
from repro.service.admission import AdmissionController, AdmissionPolicy, ShedReason
from repro.service.backpressure import BackpressureLatch
from repro.service.checkpoint import (
    CHECKPOINT_SCHEMA,
    attach_trust_journal,
    validate_checkpoint,
    verify_trust_journal,
)
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator

__all__ = [
    "ServiceConfig",
    "ServiceResult",
    "GridService",
    "DEFAULT_WINDOW_INTERVAL",
]

#: Window period of immediate heuristics (batch heuristics use their
#: ``batch_interval``).
DEFAULT_WINDOW_INTERVAL = 600.0

#: Wall-clock budget of one window's batch mapping; a window exceeding it
#: trips the watchdog.
WINDOW_WALL_BUDGET_S = 5.0

#: Consecutive windows with a non-empty backlog and no settling progress
#: that trip the watchdog.
STALL_WINDOW_LIMIT = 64

#: Each optional checkpoint section → what it holds, and the part of a
#: service that owns it.  A section without its owner, or an owner without
#: its section, is refused on resume.
_SECTIONS = {
    "admission": ("token-bucket state", "rate limit"),
    "backpressure": ("backpressure state", "backpressure latch"),
    "trust_plane": ("trust-plane state", "trust source"),
    "feedback": ("feedback state", "TrustFeedback completion hook"),
    "trust_journal": (
        "trust-journal pin",
        "durable trust plane (only one recovered with resolve_trust_journal "
        "resumes; any other journals onto unpinned state)",
    ),
}


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of one :class:`GridService`.

    Attributes:
        admission: the ingestion plane's policy; defaults to unlimited
            (admit everything — the equivalence configuration).
        backpressure_high: backlog size engaging the backpressure latch
            (it releases at half of it); ``None`` disables backpressure.
    """

    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy.unlimited)
    backpressure_high: int | None = None


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
            admission, no backpressure.
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
            BackpressureLatch(self.config.backpressure_high)
            if self.config.backpressure_high is not None
            else None
        )
        self.interval = (
            scheduler.batch_interval
            if scheduler.batch_interval is not None
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
            self._arrival_handler(engine),
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
        twice, nothing is lost.  Each section is restored by the part that
        owns it (see :meth:`checkpoint`); a section without its owner here,
        or an owner here without its section, is refused, before anything
        is restored.
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
        owners = self._owners()
        for name, owner in owners.items():
            if (payload.get(name) is None) != (owner is None):
                what, part = _SECTIONS[name]
                raise CheckpointError(
                    f"checkpoint carries {what} ({name}) but the resumed "
                    f"service has no {part}"
                    if owner is None
                    else f"the resumed service has a {part} but the "
                    f"checkpoint carries no {what} ({name})"
                )
        if self.trust_plane is not None:
            verify_trust_journal(payload["trust_journal"], self.trust_plane)

        engine, sim = self._begin(
            requests, kill_after_window, checkpoint_every
        )
        by_index = {r.index: r for r in requests}
        engine.restore(payload, by_index)
        for what, owner, state in (
            ("cost-provider state (exclusions, trust_plane)", sched.costs, payload),
            *(
                (f"{_SECTIONS[name][0]} ({name})", owners[name], payload.get(name))
                for name in ("admission", "backpressure", "feedback")
            ),
        ):
            if owner is not None:
                try:
                    owner.restore(state)
                except (KeyError, TypeError, ValueError) as exc:
                    raise CheckpointError(
                        f"checkpoint {what} cannot be restored: {exc}"
                    ) from exc
        wd = payload["watchdog"]
        self._watchdog_trips = wd["trips"]
        self._stalled_windows = wd["stalled_windows"]
        self._last_settled = wd["last_settled"]
        counters = payload["counters"]
        self._submitted = counters["submitted"]
        self._admitted = counters["admitted"]
        self._shed = _Counter(counters["shed"])
        self._epoch = payload["epoch"]
        self._next_window = float(payload["next_window"])

        # Arrivals not yet ingested resume their schedule; everything at or
        # before the checkpoint clock already fired (ARRIVAL outranks the
        # window's BATCH priority at equal times).  They are scheduled
        # before the engine re-arms, as in the uninterrupted run.
        clock = float(payload["clock"])
        ingested = engine.ingested()
        remaining = [r for r in requests if r.index not in ingested]
        sim.schedule_many(
            [max(request.arrival_time, clock) for request in remaining],
            self._arrival_handler(engine),
            priority=EventPriority.ARRIVAL,
            payloads=remaining,
        )
        engine.rearm(clock, by_index)
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
        :mod:`repro.service.checkpoint`): the service's header, then each
        stateful part's own ``state_dict()`` — the engine's keys and the
        cost provider's (which carry a resilient trust source's
        ``trust_plane``, random outage process included), the token
        bucket's ``admission`` and the latch's ``backpressure`` (``None``
        when not configured), a :class:`~repro.grid.feedback.TrustFeedback`
        completion hook's ``feedback`` and a durable trust plane's
        ``trust_journal`` pin (absent when not configured).  Completion
        records are serialised once per run, so treat the per-record
        field dicts as read-only while the run goes on (see
        :meth:`SchedulingEngine.state_dict
        <repro.scheduling.engine.SchedulingEngine.state_dict>`).
        """
        engine, sim = self._running()
        sched = self.scheduler
        owners = self._owners()
        payload: dict[str, Any] = {
            "schema": CHECKPOINT_SCHEMA,
            "epoch": self._epoch,
            "clock": sim.now,
            "next_window": self._next_window,
            "heuristic": sched.heuristic.name,
            "policy": sched.policy.label,
            "window_interval": self.interval,
            "trust_epoch": sched.grid.trust_table.epoch,
            **engine.state_dict(),
            **sched.costs.state_dict(),
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
        # v1 layout: without an owner, admission and backpressure are null
        # and feedback is absent.
        for name in ("admission", "backpressure", "feedback"):
            owner = owners[name]
            if owner is not None:
                payload[name] = owner.state_dict()
            elif name != "feedback":
                payload[name] = None
        if self.trust_plane is not None:
            # Delta-checkpoint the durable trust plane: fsync only the
            # journal tail (O(changes)), pin the durable offset.
            attach_trust_journal(payload, self.trust_plane)
        return payload

    def _owners(self) -> dict[str, Any]:
        """Each optional checkpoint section → the part of this service
        that owns it, or ``None`` when the service has no such part."""
        sched = self.scheduler
        return {
            "admission": self.admission.bucket,
            "backpressure": self.latch,
            "trust_plane": sched.costs.trust_source,
            "feedback": (
                sched.on_complete
                if isinstance(sched.on_complete, TrustFeedback)
                else None
            ),
            "trust_journal": self.trust_plane,
        }

    # -- event handlers ------------------------------------------------------

    def _arrival_handler(
        self, engine: SchedulingEngine
    ) -> Callable[[Iterator[tuple[float, Request]]], None]:
        """The handler that admits or sheds each arrival of a run, in
        order (see :meth:`Simulator.schedule_many
        <repro.sim.kernel.Simulator.schedule_many>`).

        What no event can change is read once, here: the tracer and
        metrics switches, which admission limits and latch exist, the mode,
        the trust source and whether the cost provider screens.  The token
        bucket, the queue bound, the latch state and feasibility are judged
        per arrival; with no limit and no latch every arrival is admitted
        without a decision.  In batch mode an admitted, feasible arrival
        costs one ``pending.append``.
        """
        sched = self.scheduler
        tracer = sched.tracer if sched.tracer.enabled else None
        metrics = self.metrics if self.metrics.enabled else None
        admission = self.admission
        latch = self.latch
        batch = self._batch_mode
        limited = (
            latch is not None
            or admission.bucket is not None
            or (batch and admission.policy.queue_capacity is not None)
        )
        decide = admission.decide
        source = sched.trust_source
        costs = sched.costs
        screens = costs.screens

        def on_arrivals(run: Iterator[tuple[float, Request]]) -> None:
            # The window replaces the pending list, never a run.
            pending = engine.pending
            append = pending.append
            submitted = admitted = 0
            try:
                for time, request in run:
                    if tracer is not None:
                        tracer.emit(time, "arrival", request=request.index)
                    submitted += 1
                    if metrics is not None:
                        metrics.counter("svc.submitted").add()
                    if limited:
                        reason = decide(
                            time, pending, batch, latch is not None and latch.engaged
                        )
                        if reason is not None:
                            self._shed_request(request, time, reason)
                            continue
                    admitted += 1
                    if metrics is not None:
                        metrics.counter("svc.admitted").add()
                        started = _time.perf_counter()
                    if not batch:
                        engine.submit(request, time)
                    else:
                        if source is not None:
                            source.advance(time)
                        if screens and not costs.is_feasible(request):
                            engine.reject(request, time)
                        else:
                            append(request)
                    if metrics is not None:
                        metrics.histogram("svc.enqueue_latency_s").observe(
                            _time.perf_counter() - started
                        )
                    if latch is not None:
                        self._update_latch(self._backlog())
            finally:
                self._submitted += submitted
                self._admitted += admitted

        return on_arrivals

    def _on_window(self, time: float, _payload: None) -> None:
        engine, sim = self._running()
        deadline = self.admission.policy.deadline
        if deadline is not None and engine.pending:
            expired = [
                r
                for r in engine.pending
                if time - r.arrival_time > deadline
            ]
            for request in expired:
                self._shed_request(
                    request, time, ShedReason.DEADLINE_EXPIRED,
                    pending=True,
                )
        mapped = 0
        wall = 0.0
        if self._batch_mode:
            begin = _time.perf_counter()
            mapped = engine.form_batch(time)
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
        self._next_window = time + self.interval
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
                f"(t={time})",
                self.checkpoint(),
            )
        if engine.settled < self._total:
            sim.schedule(
                self._next_window, self._on_window,
                priority=EventPriority.BATCH,
            )

    def _watch(self, wall: float, backlog: int, settled: int) -> None:
        tripped = self._batch_mode and wall > WINDOW_WALL_BUDGET_S
        if settled == self._last_settled and backlog > 0:
            self._stalled_windows += 1
            if self._stalled_windows >= STALL_WINDOW_LIMIT:
                tripped = True
        else:
            self._stalled_windows = 0
        self._last_settled = settled
        if tripped:
            self._watchdog_trips += 1
            if self.metrics.enabled:
                self.metrics.counter("svc.watchdog.trips").add()

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
        engine = SchedulingEngine(self.scheduler, sim, total=total)
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
