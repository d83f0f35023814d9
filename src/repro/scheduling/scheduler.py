"""The trust-aware resource management scheduler (TRM-scheduler).

Drives a request stream through a mapping heuristic on top of the
discrete-event kernel, per Section 4.1's assumptions: a centrally organised
scheduler, non-preemptive mapping, indivisible tasks.

* With an :class:`~repro.scheduling.base.ImmediateHeuristic`, every arrival
  is mapped the moment it occurs (on-line mode, e.g. MCT).
* With a :class:`~repro.scheduling.base.BatchHeuristic`, arrivals accumulate
  and a batch timer fires every ``batch_interval`` time units, forming a
  *meta-request* that is mapped as a whole (e.g. Min-min, Sufferage).

The scheduler keeps the belief/reality split of Section 5.3 explicit:
heuristics decide using the policy's *mapping* costs, while machine
bookkeeping and completion records use the *realised* costs.  Under the
default accounting the two coincide per policy; under
``PAIR_REALIZED`` accounting a trust-unaware mapper plans with costs that
differ from what the machines then pay.

An optional ``on_complete`` hook fires (as a simulation event, at the
request's completion time) for each finished request — this is where the
Figure-1 trust agents plug in.

**Fault injection and recovery** are strictly opt-in: with a
:class:`~repro.faults.injector.FaultInjector` installed, execution attempts
may die (task crashes, machine downtimes).  A failed attempt releases its
machine — the wasted work stays on the books — fires an ``on_failure`` hook
(where agents observe the failure as a strongly-unsatisfactory
transaction), and the :class:`~repro.faults.retry.RetryPolicy` decides
whether the request re-enters the normal immediate/batch path (optionally
excluding machines that already failed it, after an exponential backoff) or
is dropped.  Every request settles exactly once: completed, rejected, or
dropped.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, SchedulingError
from repro.faults.injector import FaultInjector
from repro.faults.records import FailureEvent
from repro.faults.retry import RetryPolicy
from repro.grid.request import Request
from repro.grid.topology import Grid
from repro.obs.metrics import MetricsRegistry
from repro.scheduling.base import BatchHeuristic, ImmediateHeuristic
from repro.scheduling.constraints import TrustConstraint
from repro.scheduling.costs import CostProvider
from repro.scheduling.engine import REASON_CONSTRAINT, SchedulingEngine
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.result import CompletionRecord, ScheduleResult
from repro.sim.events import Event, EventPriority
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.trustfaults.query import ResilientTrustSource

__all__ = ["TRMScheduler", "REASON_CONSTRAINT"]

CompletionHook = Callable[[CompletionRecord], None]
FailureHook = Callable[[FailureEvent], None]


class TRMScheduler:
    """Event-driven scheduler binding a grid, a policy and a heuristic.

    Args:
        grid: the Grid to schedule onto.
        eec: the ``(n_tasks, n_machines)`` expected-execution-cost matrix.
        policy: trust policy (aware/unaware + accounting).
        heuristic: an immediate or batch heuristic instance.
        batch_interval: meta-request formation period; required for batch
            heuristics, rejected for immediate ones.
        tracer: optional tracer receiving ``arrival``/``batch``/``assign``
            entries (plus ``retry``/``failure``/``drop`` and
            ``machine-down``/``machine-up`` under fault injection).
        on_complete: optional hook fired at each request's completion time.
        faults: optional fault injector; installs the failure model.
        retry: recovery policy for failed requests; defaults to
            ``RetryPolicy()`` when ``faults`` is given, and must be omitted
            otherwise.
        on_failure: optional hook fired at each failed attempt's failure
            time (the trust-evolution entry point for failures).
        trust_source: optional resilient trust-plane front
            (:mod:`repro.trustfaults`).  When set, mapping-time trust
            queries go through its guarded path, failed queries degrade the
            affected cost rows to trust-unaware pricing, and the scheduler
            advances the source's query clock at every mapping event.
        metrics: optional :class:`MetricsRegistry` receiving the
            scheduler's run metrics — ``sched.mappings`` / ``completions``
            / ``retries`` / ``rejections`` / ``drops`` / ``batches``
            counters and a per-heuristic mapping-latency histogram
            (``sched.map_latency_s.<name>``) — and threaded through to the
            kernel, the cost provider and the fault injector.  Disabled by
            default; instrumentation never changes scheduling decisions.
    """

    def __init__(
        self,
        grid: Grid,
        eec: np.ndarray,
        policy: TrustPolicy,
        heuristic: ImmediateHeuristic | BatchHeuristic,
        *,
        batch_interval: float | None = None,
        tracer: Tracer | None = None,
        on_complete: CompletionHook | None = None,
        constraint: "TrustConstraint | None" = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        on_failure: FailureHook | None = None,
        metrics: MetricsRegistry | None = None,
        trust_source: "ResilientTrustSource | None" = None,
    ) -> None:
        self.grid = grid
        self.policy = policy
        self.heuristic = heuristic
        self.metrics = metrics if metrics is not None else MetricsRegistry.disabled()
        self.trust_source = trust_source
        if (
            trust_source is not None
            and self.metrics.enabled
            and not trust_source.metrics.enabled
        ):
            trust_source.bind_metrics(self.metrics)
        self.costs = CostProvider(
            grid=grid, eec=eec, policy=policy, constraint=constraint,
            metrics=self.metrics, trust_source=trust_source,
        )
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        self.on_complete = on_complete
        self.on_failure = on_failure
        self._latency_metric = f"sched.map_latency_s.{heuristic.name}"

        if faults is None and retry is not None:
            raise ConfigurationError(
                "a retry policy without a fault injector has nothing to retry"
            )
        if faults is None and on_failure is not None:
            raise ConfigurationError(
                "an on_failure hook without a fault injector never fires"
            )
        self.faults = faults
        if (
            faults is not None
            and self.metrics.enabled
            and not faults.metrics.enabled
        ):
            faults.metrics = self.metrics
        self.retry = (
            retry if retry is not None else (RetryPolicy() if faults else None)
        )

        if isinstance(heuristic, BatchHeuristic):
            if batch_interval is None or batch_interval <= 0:
                raise ConfigurationError(
                    "batch heuristics need a positive batch_interval"
                )
            self.batch_interval: float | None = float(batch_interval)
        elif isinstance(heuristic, ImmediateHeuristic):
            if batch_interval is not None:
                raise ConfigurationError(
                    "immediate heuristics do not take a batch_interval"
                )
            self.batch_interval = None
        else:  # pragma: no cover - type guard
            raise ConfigurationError(
                f"unsupported heuristic type: {type(heuristic).__name__}"
            )

    # -- public API ----------------------------------------------------------

    def run(self, requests: Sequence[Request]) -> ScheduleResult:
        """Schedule ``requests`` to completion and return the result.

        The request list may be in any order; arrival times drive the run.
        Every request settles exactly once — completed, rejected by the
        admission constraint, or dropped after retry exhaustion.

        The execution machinery lives in
        :class:`~repro.scheduling.engine.SchedulingEngine`; this driver
        schedules the arrivals, the batch-timer chain and the machine
        up/down watch, then runs the simulation to completion.
        """
        sim = Simulator(metrics=self.metrics)
        total = len(requests)
        engine = SchedulingEngine(
            self, sim, more_work=lambda: engine.settled < total
        )

        def on_arrival(event: Event) -> None:
            request: Request = event.payload
            if self.tracer.enabled:
                self.tracer.emit(event.time, "arrival", request=request.index)
            engine.submit(request, event.time)

        def on_batch(event: Event) -> None:
            engine.form_batch(event.time)
            if engine.settled < total:
                sim.schedule(
                    event.time + self.batch_interval,
                    on_batch,
                    priority=EventPriority.BATCH,
                )

        sim.schedule_many(
            [request.arrival_time for request in requests],
            on_arrival,
            priority=EventPriority.ARRIVAL,
            payloads=requests,
        )
        if self.batch_interval is not None and total > 0:
            sim.schedule(self.batch_interval, on_batch, priority=EventPriority.BATCH)
        if total > 0:
            engine.start_machine_watch()

        sim.run()

        if len(engine.records) + len(engine.rejected) + len(engine.dropped) != total:
            raise SchedulingError(
                f"run finished with {len(engine.records)} completed + "
                f"{len(engine.rejected)} rejected + {len(engine.dropped)} "
                f"dropped of {total} requests"
            )
        return engine.result(requests)
