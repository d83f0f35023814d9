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
that are scheduled on the simulator but have not fired yet — so a
checkpoint can capture, and a restore re-schedule, everything that was in
the air at a window boundary.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SchedulingError
from repro.faults.records import FailureEvent
from repro.grid.machine import MachineState
from repro.grid.request import MetaRequest, Request
from repro.scheduling.result import CompletionRecord, ScheduleResult
from repro.sim.events import Event, EventPriority
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.scheduling.scheduler import TRMScheduler

__all__ = ["SchedulingEngine", "REASON_CONSTRAINT"]

#: Reason tag recorded for constraint-driven rejections.
REASON_CONSTRAINT = "constraint-infeasible"


class SchedulingEngine:
    """One scheduler's execution state, bound to one simulator.

    Args:
        scheduler: the configured :class:`TRMScheduler` whose grid, cost
            provider, heuristic, policy, hooks, fault injector and retry
            policy the engine executes.
        sim: the simulator the engine schedules its events on.
        more_work: predicate consulted by the self-perpetuating machine
            up/down event chain — the chain stops rescheduling once this
            returns False, letting the run terminate.  ``TRMScheduler``
            passes "not every request settled yet"; the service passes
            "still serving".

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

    def __init__(
        self,
        scheduler: "TRMScheduler",
        sim: Simulator,
        *,
        more_work: Callable[[], bool] | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.sim = sim
        self._more_work = more_work if more_work is not None else (lambda: True)
        self.states = [MachineState(machine=m) for m in scheduler.grid.machines]
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
        self, event: Event, failure: FailureEvent, request: Request
    ) -> None:
        sched = self.scheduler
        assert sched.retry is not None
        self.inflight_failures.pop(request.index, None)
        sched.tracer.emit(
            event.time,
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
                event.time, "drop", request=request.index,
                attempts=failure.attempt,
            )
            return
        # Re-price the retry: trust may have evolved since the original
        # mapping, and the failed machine is excluded (best effort —
        # relaxed if nothing finite would remain).
        if sched.trust_source is not None:
            sched.trust_source.advance(event.time)
        sched.costs.invalidate_trust_cache(request.index)
        if sched.retry.exclude_failed:
            sched.costs.exclude(request.index, failure.machine_index)
            if not np.isfinite(sched.costs.mapping_ecc_row(request)).any():
                sched.costs.clear_exclusions(request.index)
        self.schedule_retry(
            request,
            event.time + sched.retry.delay_for(failure.attempt),
            failure.attempt,
        )

    def schedule_retry(self, request: Request, due: float, attempt: int) -> None:
        """Schedule the retry re-dispatch of ``request`` at ``due``."""
        self.inflight_retries[request.index] = (due, attempt)
        self.sim.schedule(
            due,
            lambda ev, r=request: self.submit(r, ev.time, retry=True),
            priority=EventPriority.ARRIVAL,
        )

    def rearm_completion(self, record: CompletionRecord) -> None:
        """Schedule the ``on_complete`` notification of a booked record.

        Called when a request completes and, on checkpoint restore, for
        every record still running at the checkpoint clock, so the hook
        (and the trust evolution it drives) sees every transaction once.
        """
        sched = self.scheduler
        if sched.on_complete is not None:
            self.sim.schedule(
                record.completion_time,
                lambda ev, rec=record: sched.on_complete(rec),
                priority=EventPriority.COMPLETION,
            )

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
            lambda ev, f=failure, r=request: self._on_failed_attempt(ev, f, r),
            priority=EventPriority.FAILURE,
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

    def form_batch(self, time: float) -> int:
        """Form and execute a meta-request from :attr:`pending` at ``time``.

        Returns the number of requests mapped (0 for an empty window).
        """
        sched = self.scheduler
        if sched.trust_source is not None:
            sched.trust_source.advance(time)
        if not self.pending:
            return 0
        meta = MetaRequest.of(
            self.pending, formed_at=time, index=self.batches_formed
        )
        self.batches_formed += 1
        if sched.metrics.enabled:
            sched.metrics.counter("sched.batches").add()
            sched.metrics.histogram("sched.batch_size").observe(len(meta))
        if sched.tracer.enabled:
            sched.tracer.emit(time, "batch", size=len(meta))
        with sched.metrics.timer(sched._latency_metric):
            plan = sched.heuristic.plan(  # type: ignore[union-attr]
                list(meta), sched.costs, self.availability(time)
            )
        if sched.metrics.enabled:
            sched.metrics.counter("sched.mappings").add(len(meta))
        if len(plan) != len(meta):
            raise SchedulingError(
                f"{sched.heuristic.name} planned {len(plan)} of "
                f"{len(meta)} requests"
            )
        # Every shipped heuristic appends in commit order, so the common
        # case is already sorted — an O(n) check beats re-sorting a
        # million-item plan every window.
        if any(a.order > b.order for a, b in zip(plan, plan[1:])):
            plan = sorted(plan, key=lambda p: p.order)
        requests = [item.request for item in plan]
        machines = [item.machine_index for item in plan]
        # Refuse a bad plan before anything is booked.
        if min(machines) < 0 or max(machines) >= sched.grid.n_machines:
            for request, machine in zip(requests, machines):
                self._check_machine(request, machine)
        self._commit(requests, machines, time)
        self.pending.clear()
        return len(meta)

    # -- machine up/down transitions as first-class DES events ---------------
    # The injector's timelines are the source of truth (outcomes are
    # resolved against them at booking time); these events mirror the
    # transitions into the simulation so they are traceable and ordered
    # against completions and arrivals.  The chain stops rescheduling once
    # ``more_work`` turns False, letting the run terminate.

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
            lambda ev, m=machine, r=repair_end: self._on_machine_down(ev, m, r),
            priority=EventPriority.MACHINE,
        )

    def _on_machine_down(self, event: Event, machine: int, repair_end: float) -> None:
        self.scheduler.tracer.emit(
            event.time, "machine-down", machine=machine, until=repair_end
        )
        if self._more_work():
            self.sim.schedule(
                repair_end,
                lambda ev, m=machine: self._on_machine_up(ev, m),
                priority=EventPriority.MACHINE,
            )

    def _on_machine_up(self, event: Event, machine: int) -> None:
        self.scheduler.tracer.emit(event.time, "machine-up", machine=machine)
        if self._more_work():
            self._schedule_next_down(machine, after=event.time)

    # -- results -------------------------------------------------------------

    def result(self, requests: Sequence[Request]) -> ScheduleResult:
        """Assemble the cumulative :class:`ScheduleResult` over ``requests``."""
        sched = self.scheduler
        ordered = tuple(
            self.records[r.index]
            for r in sorted(requests, key=lambda r: r.index)
            if r.index in self.records
        )
        return ScheduleResult(
            heuristic=sched.heuristic.name,
            policy_label=sched.policy.label,
            records=ordered,
            machine_states=tuple(self.states),
            rejected=tuple(sorted(self.rejected)),
            rejection_reasons=dict(sorted(self.rejected.items())),
            failures=tuple(
                sorted(
                    self.failures,
                    key=lambda f: (f.failure_time, f.request_index, f.attempt),
                )
            ),
            dropped=tuple(sorted(self.dropped)),
        )

    def _check_machine(self, request: Request, machine: int) -> None:
        if not 0 <= machine < self.scheduler.grid.n_machines:
            raise SchedulingError(
                f"{self.scheduler.heuristic.name} chose invalid machine "
                f"{machine} for request {request.index} (the grid has "
                f"{self.scheduler.grid.n_machines} machines)"
            )
