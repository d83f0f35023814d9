"""The resumable scheduling-engine core.

:class:`SchedulingEngine` is the execution machinery that used to live as
closures inside :meth:`TRMScheduler.run <repro.scheduling.scheduler.TRMScheduler.run>`:
dispatching arrivals, forming and executing meta-request plans, booking
attempts against machine states, and driving the failure → retry → drop
recovery ladder as discrete events.  Hoisting it into a class serves two
callers:

* :class:`~repro.scheduling.scheduler.TRMScheduler` drives one finite
  request list to completion (the batch experiment path) — ``run()`` is now
  a thin driver that schedules arrivals and the batch-timer chain over an
  engine;
* :class:`~repro.service.service.GridService` keeps an engine alive across
  rolling windows, feeding it admitted requests as they pass admission
  control and checkpointing its state at window boundaries.

The extraction is behaviour-preserving: the engine executes the exact event
sequence of the old closures (same event priorities, same metric and trace
emission order, same tie-breaks), which the golden and hypothesis suites
pin.  Booking is one loop for fault-free and faulted runs alike
(:meth:`SchedulingEngine._commit`): a plan is priced in one vector pass,
its record invariants are checked once per window before anything is
booked, and each assignment then costs a few attribute reads and writes —
a disabled tracer, disabled metrics and an absent completion hook are
tested once per window, not per item.

For the service's crash recovery, the engine additionally tracks its
*in-flight* recovery events — failure notifications and retry re-dispatches
that are scheduled on the simulator but have not fired yet — so its
:meth:`~SchedulingEngine.state_dict` captures, and
:meth:`~SchedulingEngine.restore` plus :meth:`~SchedulingEngine.rearm`
re-schedule, everything that was in the air at a window boundary.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import islice
from operator import attrgetter, gt
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import CheckpointError, SchedulingError
from repro.faults.records import FailureEvent, FailureKind
from repro.grid.machine import MachineState
from repro.grid.request import Request
from repro.scheduling.result import CompletionRecord, ScheduleResult
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator
from repro.state import INDEX, Obj

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.scheduling.scheduler import TRMScheduler

__all__ = ["SchedulingEngine", "REASON_CONSTRAINT"]

#: Reason tag recorded for constraint-driven rejections.
REASON_CONSTRAINT = "constraint-infeasible"

#: A window's mapping order: by arrival, ties by request index.
_ARRIVAL_ORDER = attrgetter("arrival_time", "index")
#: A plan's execution order.
_PLAN_ORDER = attrgetter("order")

#: Serialised fields of a machine's bookkeeping: two times, two counts.
_MACHINE = ("available_time", "busy_time", "assigned_count", "failed_count")
_IDS = ("request_index", "machine_index", "attempt")
_FAILURE = Obj(
    "failure event",
    {
        **dict.fromkeys(_IDS, int),
        **dict.fromkeys(("start_time", "failure_time", "wasted_work"), float),
        "kind": frozenset(kind.value for kind in FailureKind),
    },
)


def _failure_state(failure: FailureEvent) -> dict[str, Any]:
    state = {key: getattr(failure, key) for key in _FAILURE.fields}
    state["kind"] = failure.kind.value
    return state


def _load(make: Callable[..., Any], fields: dict[str, Any], where: str) -> Any:
    """``make(**fields)``, with an invariant it refuses named by ``where``."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {where} is refused: {exc}") from exc


def _failure_from(state: dict[str, Any], where: str) -> FailureEvent:
    return _load(FailureEvent, {**state, "kind": FailureKind(state["kind"])}, where)


class SchedulingEngine:
    """One scheduler's execution state, bound to one simulator.

    Args:
        scheduler: the configured :class:`TRMScheduler` whose grid, cost
            provider, heuristic, policy, hooks, fault injector and retry
            policy the engine executes.
        sim: the simulator the engine schedules its events on.
        total: how many requests the run settles: the self-perpetuating
            machine up/down event chain stops rescheduling once that many
            have settled, letting the run terminate (``None``: never).  A
            count rather than a predicate closing over the engine, so a
            finished engine is freed at once, not by the cycle collector.

    Attributes:
        states: per-machine bookkeeping (availability, busy time).
        records: request index → completion record, for completed requests.
        rejected: request index → reason tag, for refused requests.
        dropped: request indices abandoned after retry exhaustion.
        failures: every failed execution attempt, in occurrence order.
        attempts: request index → execution attempts booked so far.
        pending: requests awaiting the next meta-request formation.
        settled: how many requests reached a terminal state so far.
        batches_formed: meta-requests formed so far (also the next index).
        inflight_failures: request index → the failure event whose
            notification is scheduled but has not fired yet.
        inflight_retries: request index → (due time, attempt) of a retry
            re-dispatch scheduled but not fired yet.
    """

    #: Spec of :meth:`state_dict` (see :mod:`repro.state`); its keys sit
    #: at the top level of a service checkpoint.
    STATE = Obj(
        "engine state",
        {
            "machines": [
                Obj(
                    "machine state",
                    {
                        **dict.fromkeys(_MACHINE[:2], float),
                        **dict.fromkeys(_MACHINE[2:], int),
                    },
                )
            ],
            "records": {
                INDEX: Obj(
                    "completion record",
                    {
                        **dict.fromkeys(CompletionRecord._fields, float),
                        **dict.fromkeys(_IDS, int),
                    },
                )
            },
            "rejected": {INDEX: str},
            "dropped": [int],
            "failures": [_FAILURE],
            "attempts": {INDEX: int},
            "batches_formed": int,
            "pending": [int],
            "inflight_failures": {INDEX: _FAILURE},
            "inflight_retries": {INDEX: (float, int)},
        },
    )

    def __init__(
        self,
        scheduler: "TRMScheduler",
        sim: Simulator,
        *,
        total: int | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.sim = sim
        self._total = total
        self.states = list(map(MachineState, scheduler.grid.machines))
        self.records: dict[int, CompletionRecord] = {}
        self.rejected: dict[int, str] = {}
        self.dropped: list[int] = []
        self.failures: list[FailureEvent] = []
        self.attempts: dict[int, int] = {}
        self.pending: list[Request] = []
        self.settled = 0
        self.batches_formed = 0
        self.inflight_failures: dict[int, FailureEvent] = {}
        self.inflight_retries: dict[int, tuple[float, int]] = {}
        # str(request index) -> field dict of every record a state_dict
        # has serialised, in booking order: each state_dict serialises
        # only the records booked since the previous one.
        self._record_fields: dict[str, dict[str, Any]] = {}
        if scheduler.faults is not None:
            scheduler.faults.bind(scheduler.grid)

    # -- availability --------------------------------------------------------

    def availability(self, now: float) -> np.ndarray:
        """Effective per-machine availability at ``now``: ``max(α_i, now)``."""
        alpha = np.array(
            [s.available_time for s in self.states], dtype=np.float64
        )
        return np.maximum(alpha, now)

    # -- settling ------------------------------------------------------------

    def reject(self, request: Request, time: float) -> None:
        """Settle ``request`` as refused by the admission constraint."""
        self.rejected[request.index] = REASON_CONSTRAINT
        self.settled += 1
        if self.scheduler.metrics.enabled:
            self.scheduler.metrics.counter("sched.rejections").add()
        self.scheduler.tracer.emit(time, "reject", request=request.index)

    def shed(self, request: Request, time: float, reason: str) -> None:
        """Settle ``request`` as shed by the service's ingestion plane.

        Shed requests are accounted like rejections — they never execute —
        but carry the service's typed reason tag instead of the constraint
        tag, and emit a ``reject`` trace entry with the reason attached so
        the lifecycle invariants keep holding.
        """
        if request.index in self.rejected or request.index in self.records:
            raise SchedulingError(
                f"request {request.index} is already settled; cannot shed"
            )
        self.rejected[request.index] = reason
        self.settled += 1
        if self.scheduler.metrics.enabled:
            self.scheduler.metrics.counter("sched.rejections").add()
        self.scheduler.tracer.emit(
            time, "reject", request=request.index, reason=reason
        )

    def shed_pending(self, request: Request, time: float, reason: str) -> None:
        """Remove ``request`` from the batch pool and settle it as shed."""
        try:
            self.pending.remove(request)
        except ValueError:
            raise SchedulingError(
                f"request {request.index} is not pending; cannot shed"
            ) from None
        self.shed(request, time, reason)

    # -- execution -----------------------------------------------------------

    def _commit(
        self, requests: Sequence[Request], machines: Sequence[int], mapped_time: float
    ) -> None:
        """Book a checked plan: the one booking loop of every run.

        One vector pass prices every assignment.  The record invariants
        are then checked once over the window, before any machine state,
        record or hook changes:

        * every arrival is at or before ``mapped_time`` — each booking
          starts no earlier than ``mapped_time`` (the fault injector only
          ever delays a start), so start ≥ arrival;
        * every realised cost is non-negative — a completed booking ends at
          ``start + cost``, so completion ≥ start.

        Attempt numbers are 1 fault-free and one past the request's booked
        attempts otherwise, so attempt ≥ 1.  Records are therefore built
        without per-record checks.  A request already holding a record is
        refused before its own booking.

        A disabled tracer, a disabled metrics registry and an absent
        ``on_complete`` hook each cost one test per window.
        """
        sched = self.scheduler
        eec, cost, tc = sched.costs.realized_costs(requests, machines)
        eec, cost, tc = eec.tolist(), cost.tolist(), tc.tolist()
        arrivals = [request.arrival_time for request in requests]
        if max(arrivals) > mapped_time:
            pos = next(i for i, a in enumerate(arrivals) if a > mapped_time)
            raise SchedulingError(
                f"request {requests[pos].index} arrives at {arrivals[pos]}, "
                f"after its mapping at {mapped_time}"
            )
        if min(cost) < 0:
            pos = next(i for i, c in enumerate(cost) if c < 0)
            raise SchedulingError(
                f"request {requests[pos].index} has negative realized cost "
                f"{cost[pos]}"
            )
        faults = sched.faults
        tracer = sched.tracer if sched.tracer.enabled else None
        hooked = sched.on_complete is not None
        states = self.states
        records = self.records
        new_record = tuple.__new__
        booked = 0
        for request, arrival, machine, e, c, t in zip(
            requests, arrivals, machines, eec, cost, tc
        ):
            index = request.index
            if index in records:
                raise SchedulingError(f"request {index} was mapped twice")
            state = states[machine]
            start = state.available_time
            if mapped_time > start:
                start = mapped_time
            if faults is None:
                attempt = 1
                end = start + c
                state.available_time = end
                state.busy_time += c
                state.assigned_count += 1
                failed = False
            else:
                attempt = self.attempts.get(index, 0) + 1
                self.attempts[index] = attempt
                outcome = faults.attempt_outcome(
                    request_index=index,
                    machine_index=machine,
                    attempt=attempt,
                    begin=start,
                    cost=c,
                )
                state.book_attempt(
                    outcome.executed, outcome.next_free, failed=outcome.failed
                )
                start, end = outcome.start_time, outcome.end_time
                failed = outcome.failed
            if tracer is not None:
                tracer.emit(
                    mapped_time, "assign",
                    request=index, machine=machine, completion=end,
                )
            if failed:
                failure = FailureEvent(
                    request_index=index,
                    machine_index=machine,
                    attempt=attempt,
                    start_time=start,
                    failure_time=end,
                    wasted_work=outcome.executed,
                    kind=outcome.failure,
                )
                self.failures.append(failure)
                self.rearm_failure(failure, request)
                continue
            record = new_record(
                CompletionRecord,
                (index, machine, arrival, mapped_time, start, end, e, c, t, attempt),
            )
            records[index] = record
            booked += 1
            if hooked:
                self.rearm_completion(record)
        self.settled += booked
        if booked and sched.metrics.enabled:
            sched.metrics.counter("sched.completions").add(booked)

    def _on_failed_attempt(
        self, time: float, held: tuple[FailureEvent, Request]
    ) -> None:
        failure, request = held
        sched = self.scheduler
        assert sched.retry is not None
        self.inflight_failures.pop(request.index, None)
        sched.tracer.emit(
            time,
            "failure",
            request=failure.request_index,
            machine=failure.machine_index,
            attempt=failure.attempt,
            cause=failure.kind.value,
        )
        if sched.on_failure is not None:
            sched.on_failure(failure)
        if not sched.retry.should_retry(failure.attempt):
            self.dropped.append(request.index)
            self.settled += 1
            if sched.metrics.enabled:
                sched.metrics.counter("sched.drops").add()
            sched.tracer.emit(
                time, "drop", request=request.index,
                attempts=failure.attempt,
            )
            return
        # Re-price the retry: trust may have evolved since the original
        # mapping, and the failed machine is excluded (best effort —
        # relaxed if nothing finite would remain).
        if sched.trust_source is not None:
            sched.trust_source.advance(time)
        sched.costs.invalidate_trust_cache(request.index)
        sched.costs.exclude(request.index, failure.machine_index)
        if not np.isfinite(sched.costs.mapping_ecc_row(request)).any():
            sched.costs.clear_exclusions(request.index)
        self.schedule_retry(
            request,
            time + sched.retry.delay_for(failure.attempt),
            failure.attempt,
        )

    def schedule_retry(self, request: Request, due: float, attempt: int) -> None:
        """Schedule the retry re-dispatch of ``request`` at ``due``."""
        self.inflight_retries[request.index] = (due, attempt)
        self.sim.schedule(
            due, self._on_retry_due, priority=EventPriority.ARRIVAL, payload=request
        )

    def _on_retry_due(self, time: float, request: Request) -> None:
        self.submit(request, time, retry=True)

    def rearm_completion(self, record: CompletionRecord) -> None:
        """Schedule the ``on_complete`` notification of a booked record.

        Called when a request completes and, on checkpoint restore, for
        every record still running at the checkpoint clock, so the hook
        (and the trust evolution it drives) sees every transaction once.
        """
        if self.scheduler.on_complete is not None:
            self.sim.schedule(
                record.completion_time,
                self._on_completion,
                priority=EventPriority.COMPLETION,
                payload=record,
            )

    def _on_completion(self, _time: float, record: CompletionRecord) -> None:
        self.scheduler.on_complete(record)  # type: ignore[misc]

    def rearm_failure(self, failure: FailureEvent, request: Request) -> None:
        """Schedule the FAILURE event of a failed attempt.

        Called when an attempt fails at booking and, on checkpoint restore,
        for every failure still in flight.  The attempt's outcome is already
        booked against the machine; only the pending FAILURE event (the
        trace entry, the ``on_failure`` hook and the retry-or-drop decision)
        is created.
        """
        self.inflight_failures[request.index] = failure
        self.sim.schedule(
            failure.failure_time,
            self._on_failed_attempt,
            priority=EventPriority.FAILURE,
            payload=(failure, request),
        )

    # -- ingestion -----------------------------------------------------------

    def submit(self, request: Request, time: float, *, retry: bool = False) -> None:
        """Dispatch ``request`` at ``time``.

        Immediate heuristics map on the spot; batch heuristics stage the
        request into :attr:`pending` for the next :meth:`form_batch`.
        Constraint-infeasible requests settle as rejected here.
        """
        sched = self.scheduler
        if sched.trust_source is not None:
            sched.trust_source.advance(time)
        if retry:
            self.inflight_retries.pop(request.index, None)
            if sched.metrics.enabled:
                sched.metrics.counter("sched.retries").add()
            sched.tracer.emit(time, "retry", request=request.index)
        if not sched.costs.is_feasible(request):
            self.reject(request, time)
            return
        if sched.batch_interval is None:
            with sched.metrics.timer(sched._latency_metric):
                machine = sched.heuristic.choose(  # type: ignore[union-attr]
                    request, sched.costs, self.availability(time)
                )
            if sched.metrics.enabled:
                sched.metrics.counter("sched.mappings").add()
            self._check_machine(request, machine)
            self._commit([request], [machine], time)
        else:
            self.pending.append(request)

    def ingest(self, run: Iterable[tuple[float, Request]]) -> None:
        """Dispatch a run of arrivals, in order: the arrival handler of
        :meth:`TRMScheduler.run <repro.scheduling.scheduler.TRMScheduler.run>`
        (see :meth:`Simulator.schedule_many
        <repro.sim.kernel.Simulator.schedule_many>`).

        Each ``(time, request)`` pair is traced as an ``arrival`` and then
        dispatched as :meth:`submit` dispatches it.  What cannot change
        inside a run — the tracer switch, the mode, the trust source and
        whether the cost provider screens — is read once per run; in batch
        mode a feasible arrival costs one ``pending.append``.
        """
        sched = self.scheduler
        tracer = sched.tracer if sched.tracer.enabled else None
        if sched.batch_interval is None:
            for time, request in run:
                if tracer is not None:
                    tracer.emit(time, "arrival", request=request.index)
                self.submit(request, time)
            return
        source = sched.trust_source
        costs = sched.costs
        screens = costs.screens
        append = self.pending.append
        for time, request in run:
            if tracer is not None:
                tracer.emit(time, "arrival", request=request.index)
            if source is not None:
                source.advance(time)
            if screens and not costs.is_feasible(request):
                self.reject(request, time)
            else:
                append(request)

    def form_batch(self, time: float) -> int:
        """Form and execute a meta-request from :attr:`pending` at ``time``.

        The window is :attr:`pending` itself, sorted in place by arrival
        (ties by request index) and replaced by a fresh list once booked.
        A member arriving after ``time`` is refused by the booking loop's
        window check, before anything is booked.

        Returns the number of requests mapped (0 for an empty window).
        """
        sched = self.scheduler
        if sched.trust_source is not None:
            sched.trust_source.advance(time)
        window = self.pending
        if not window:
            return 0
        window.sort(key=_ARRIVAL_ORDER)
        size = len(window)
        self.batches_formed += 1
        if sched.metrics.enabled:
            sched.metrics.counter("sched.batches").add()
            sched.metrics.histogram("sched.batch_size").observe(size)
        if sched.tracer.enabled:
            sched.tracer.emit(time, "batch", size=size)
        with sched.metrics.timer(sched._latency_metric):
            plan = sched.heuristic.plan(  # type: ignore[union-attr]
                window, sched.costs, self.availability(time)
            )
        if sched.metrics.enabled:
            sched.metrics.counter("sched.mappings").add(size)
        if len(plan) != size:
            raise SchedulingError(
                f"{sched.heuristic.name} planned {len(plan)} of "
                f"{size} requests"
            )
        # Every shipped heuristic appends in commit order, so the common
        # case is already sorted — an O(n) check beats re-sorting a
        # million-item plan every window.
        requests, machines, orders = zip(*plan)
        if any(map(gt, orders, orders[1:])):
            plan = sorted(plan, key=_PLAN_ORDER)
            requests, machines, _orders = zip(*plan)
        # Refuse a bad plan before anything is booked.
        if min(machines) < 0 or max(machines) >= sched.grid.n_machines:
            for request, machine in zip(requests, machines):
                self._check_machine(request, machine)
        self._commit(requests, machines, time)
        self.pending = []
        return size

    # -- the batch timer -----------------------------------------------------

    def start_batch_timer(self) -> None:
        """Form a meta-request every ``batch_interval`` (batch heuristics
        only), until ``total`` requests have settled."""
        if self.scheduler.batch_interval is not None:
            self.sim.schedule(
                self.scheduler.batch_interval,
                self._on_batch_timer,
                priority=EventPriority.BATCH,
            )

    def _on_batch_timer(self, time: float, _payload: None) -> None:
        self.form_batch(time)
        if self._more_work():
            self.sim.schedule(
                time + self.scheduler.batch_interval,
                self._on_batch_timer,
                priority=EventPriority.BATCH,
            )

    # -- machine up/down transitions as first-class DES events ---------------
    # The injector's timelines are the source of truth (outcomes are
    # resolved against them at booking time); these events mirror the
    # transitions into the simulation so they are traceable and ordered
    # against completions and arrivals.  The chain stops rescheduling once
    # ``total`` requests have settled, letting the run terminate.

    def start_machine_watch(self, *, after: float = 0.0) -> None:
        """Begin mirroring every machine's up/down timeline into the sim."""
        sched = self.scheduler
        if sched.faults is None or sched.faults.model.machines is None:
            return
        for machine in range(sched.grid.n_machines):
            self._schedule_next_down(machine, after=after)

    def _schedule_next_down(self, machine: int, after: float) -> None:
        sched = self.scheduler
        assert sched.faults is not None
        timeline = sched.faults.timeline(machine)
        assert timeline is not None
        down_start, repair_end = timeline.first_down_at_or_after(after)
        self.sim.schedule(
            down_start,
            self._on_machine_down,
            priority=EventPriority.MACHINE,
            payload=(machine, repair_end),
        )

    def _more_work(self) -> bool:
        return self._total is None or self.settled < self._total

    def _on_machine_down(self, time: float, held: tuple[int, float]) -> None:
        machine, repair_end = held
        self.scheduler.tracer.emit(
            time, "machine-down", machine=machine, until=repair_end
        )
        if self._more_work():
            self.sim.schedule(
                repair_end,
                self._on_machine_up,
                priority=EventPriority.MACHINE,
                payload=machine,
            )

    def _on_machine_up(self, time: float, machine: int) -> None:
        self.scheduler.tracer.emit(time, "machine-up", machine=machine)
        if self._more_work():
            self._schedule_next_down(machine, after=time)

    # -- checkpoint ----------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """The engine's restorable state, JSON-ready (spec :attr:`STATE`).

        Each completion record is serialised once, by the first call that
        sees it: ``records`` is a fresh mapping per call, but its
        per-record field dicts are shared with later calls, so treat them
        as read-only while the run goes on.
        """
        # Records are only ever added, in booking order, so the ones past
        # the cached count are exactly those booked since last time.
        fields = self._record_fields
        for k, r in islice(self.records.items(), len(fields), None):
            fields[str(k)] = r._asdict()
        return {
            "machines": [
                {key: getattr(s, key) for key in _MACHINE} for s in self.states
            ],
            "records": dict(fields),
            "rejected": {str(k): v for k, v in self.rejected.items()},
            "dropped": list(self.dropped),
            "failures": [_failure_state(f) for f in self.failures],
            "attempts": {str(k): v for k, v in self.attempts.items()},
            "batches_formed": self.batches_formed,
            "pending": [r.index for r in self.pending],
            "inflight_failures": {
                str(k): _failure_state(f)
                for k, f in self.inflight_failures.items()
            },
            "inflight_retries": {
                str(k): [due, attempt]
                for k, (due, attempt) in self.inflight_retries.items()
            },
        }

    def restore(self, state: dict[str, Any], requests: Mapping[int, Request]) -> None:
        """Restore state captured by :meth:`state_dict` onto a fresh engine.

        ``requests`` maps request index → request of the resumed workload.
        No event is scheduled here: :meth:`rearm` does that, once the
        caller has scheduled the arrivals still to come.

        Raises:
            CheckpointError: naming the key of a record or failure that
                breaks its invariants, of an attempt count below 1, or of
                a request absent from ``requests``, and on a machine count
                other than the grid's; the engine is left untouched then.
        """
        n_machines = self.scheduler.grid.n_machines
        if len(state["machines"]) != n_machines:
            raise CheckpointError(
                f"checkpoint has {len(state['machines'])} machines, "
                f"grid has {n_machines}"
            )
        for key in ("pending", "inflight_failures", "inflight_retries"):
            for index in map(int, state[key]):
                if index not in requests:
                    raise CheckpointError(
                        f"checkpoint {key} references request {index}, which "
                        "is absent from the resumed workload"
                    )
        # The booking loop numbers a retry one past these counts and builds
        # its record unchecked, so the counts must already be 1-based.
        attempts = {int(k): v for k, v in state["attempts"].items()}
        for index, booked in attempts.items():
            if booked < 1:
                raise CheckpointError(
                    f"checkpoint attempts of request {index} must be >= 1, "
                    f"got {booked}"
                )
        records = {
            int(k): _load(CompletionRecord, v, f"records[{k}]")
            for k, v in state["records"].items()
        }
        failures = [
            _failure_from(d, f"failures[{i}]")
            for i, d in enumerate(state["failures"])
        ]
        inflight = {
            int(k): _failure_from(d, f"inflight_failures[{k}]")
            for k, d in state["inflight_failures"].items()
        }
        for machine, d in zip(self.states, state["machines"]):
            machine.available_time = float(d["available_time"])
            machine.busy_time = float(d["busy_time"])
            machine.assigned_count = d["assigned_count"]
            machine.failed_count = d["failed_count"]
        self.records = records
        self.rejected = {int(k): v for k, v in state["rejected"].items()}
        self.dropped = list(state["dropped"])
        self.failures = failures
        self.attempts = attempts
        self.batches_formed = state["batches_formed"]
        self.settled = len(records) + len(self.rejected) + len(self.dropped)
        self.pending = [requests[i] for i in state["pending"]]
        self.inflight_failures = inflight
        self.inflight_retries = {
            int(k): (float(due), attempt)
            for k, (due, attempt) in state["inflight_retries"].items()
        }

    def ingested(self) -> set[int]:
        """Indices of every request the engine holds, settled or not."""
        return (
            self.records.keys()
            | self.rejected.keys()
            | set(self.dropped)
            | {r.index for r in self.pending}
            | self.inflight_failures.keys()
            | self.inflight_retries.keys()
        )

    def rearm(self, clock: float, requests: Mapping[int, Request]) -> None:
        """Schedule the events a restored engine still awaits after ``clock``.

        The attempt outcomes are already on the machines' books; only the
        notifications re-arm: the completion hook of every record still
        running (one completing at ``clock`` already fired — COMPLETION
        outranks the window's BATCH priority at equal times), and every
        in-flight failure and retry, in request order.
        """
        for record in self.records.values():
            if record.completion_time > clock:
                self.rearm_completion(record)
        for index, failure in sorted(self.inflight_failures.items()):
            self.rearm_failure(failure, requests[index])
        for index, (due, attempt) in sorted(self.inflight_retries.items()):
            self.schedule_retry(requests[index], max(due, clock), attempt)

    # -- results -------------------------------------------------------------

    def result(self, requests: Sequence[Request]) -> ScheduleResult:
        """Assemble the cumulative :class:`ScheduleResult` over ``requests``."""
        sched = self.scheduler
        indices = [r.index for r in requests]
        indices.sort()
        # Records are non-empty tuples: ``filter`` drops only the misses.
        ordered = tuple(filter(None, map(self.records.get, indices)))
        # A run without rejections, failures or drops (the common case)
        # sorts and allocates nothing for them.  Allocation is dear right
        # after a full collection, as a timed run starts: this saves ~5 µs
        # of the ~100 µs a 61-request run spends outside ``Simulator.run``
        # (2-vCPU Xeon host).
        rejected, failures, dropped = self.rejected, self.failures, self.dropped
        return ScheduleResult(
            heuristic=sched.heuristic.name,
            policy_label=sched.policy.label,
            records=ordered,
            machine_states=tuple(self.states),
            rejected=tuple(sorted(rejected)) if rejected else (),
            rejection_reasons=dict(sorted(rejected.items())) if rejected else {},
            failures=tuple(
                sorted(
                    failures,
                    key=lambda f: (f.failure_time, f.request_index, f.attempt),
                )
            ) if failures else (),
            dropped=tuple(sorted(dropped)) if dropped else (),
        )

    def _check_machine(self, request: Request, machine: int) -> None:
        if not 0 <= machine < self.scheduler.grid.n_machines:
            raise SchedulingError(
                f"{self.scheduler.heuristic.name} chose invalid machine "
                f"{machine} for request {request.index} (the grid has "
                f"{self.scheduler.grid.n_machines} machines)"
            )
