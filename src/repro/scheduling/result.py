"""Schedule execution records and aggregate results.

The scheduler emits one :class:`CompletionRecord` per request; a
:class:`ScheduleResult` bundles them with the final machine states and
exposes the metrics the paper's tables report (makespan, average completion
time, machine utilisation) plus a few extras (flow time, security cost
share).  Under fault injection the result additionally carries one
:class:`~repro.faults.records.FailureEvent` per failed execution attempt
and the indices of requests dropped after retry exhaustion, and derives the
resilience metrics (goodput, wasted-work fraction, effective makespan).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np

from repro.faults.records import FailureEvent
from repro.grid.machine import MachineState

__all__ = ["CompletionRecord", "ScheduleResult"]


class _CompletionFields(NamedTuple):
    request_index: int
    machine_index: int
    arrival_time: float
    mapped_time: float
    start_time: float
    completion_time: float
    eec: float
    realized_cost: float
    trust_cost: float
    attempt: int = 1


class CompletionRecord(_CompletionFields):
    """The realised execution of one request.

    Records are immutable tuples.  The public constructor (and
    ``_make``/``_replace``) refuses a record whose completion precedes its
    start, whose start precedes its arrival, or whose attempt is below 1,
    with :class:`ValueError`.  The scheduling engine builds its records
    with ``tuple.__new__`` instead: it checks the same invariants once per
    window on the plan's values before booking anything (see
    :meth:`SchedulingEngine._commit
    <repro.scheduling.engine.SchedulingEngine._commit>`).

    Attributes:
        request_index: dense request index.
        machine_index: machine the request ran on.
        arrival_time: when the request entered the RMS.
        mapped_time: when the mapping decision was made (arrival for
            immediate mode, batch-formation time for batch mode).
        start_time: when execution began on the machine.
        completion_time: when execution finished.
        eec: raw execution cost of the task on the chosen machine.
        realized_cost: total booked cost (EEC + realised security cost).
        trust_cost: the TC of the pairing (0..6); informational even for
            trust-unaware runs.
        attempt: 1-based execution attempt that succeeded (1 = first try;
            anything higher means earlier attempts failed and were retried).
    """

    __slots__ = ()

    def __new__(
        cls,
        request_index: int,
        machine_index: int,
        arrival_time: float,
        mapped_time: float,
        start_time: float,
        completion_time: float,
        eec: float,
        realized_cost: float,
        trust_cost: float,
        attempt: int = 1,
    ) -> CompletionRecord:
        if completion_time < start_time:
            raise ValueError("completion cannot precede start")
        if start_time < arrival_time:
            raise ValueError("execution cannot start before arrival")
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        return tuple.__new__(
            cls,
            (
                request_index,
                machine_index,
                arrival_time,
                mapped_time,
                start_time,
                completion_time,
                eec,
                realized_cost,
                trust_cost,
                attempt,
            ),
        )

    @classmethod
    def _make(cls, iterable) -> CompletionRecord:
        # namedtuple's _make (and _replace, which calls it) would skip the
        # checks; route both through the validating constructor.
        return cls(*iterable)

    @property
    def flow_time(self) -> float:
        """Time spent in the system: completion − arrival."""
        return self.completion_time - self.arrival_time

    @property
    def security_cost(self) -> float:
        """Realised security overhead: realised cost − EEC."""
        return self.realized_cost - self.eec


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of running one policy/heuristic over one scenario.

    Attributes:
        heuristic: registry name of the heuristic used.
        policy_label: ``"trust-aware"`` or ``"trust-unaware"``.
        records: one completion record per *completed* request, request order.
        machine_states: final per-machine bookkeeping.
        rejected: indices of requests refused by a hard trust constraint
            (empty unless a ``REJECT`` admission policy was active).
        rejection_reasons: request index → short reason tag for each
            rejection (e.g. ``"constraint-infeasible"``).
        failures: one entry per failed execution attempt, in failure-time
            order (empty without fault injection).
        dropped: indices of requests abandoned after exhausting their
            retry attempts, sorted.
    """

    heuristic: str
    policy_label: str
    records: tuple[CompletionRecord, ...]
    machine_states: tuple[MachineState, ...]
    rejected: tuple[int, ...] = ()
    rejection_reasons: dict[int, str] = field(default_factory=dict)
    failures: tuple[FailureEvent, ...] = ()
    dropped: tuple[int, ...] = ()

    # -- request accounting --------------------------------------------------

    @property
    def n_completed(self) -> int:
        """Number of requests that ran to completion."""
        return len(self.records)

    @property
    def n_rejected(self) -> int:
        """Number of requests refused admission."""
        return len(self.rejected)

    @property
    def n_dropped(self) -> int:
        """Number of requests abandoned after retry exhaustion."""
        return len(self.dropped)

    @property
    def n_submitted(self) -> int:
        """Every request the run saw: completed + rejected + dropped."""
        return self.n_completed + self.n_rejected + self.n_dropped

    @property
    def rejection_rate(self) -> float:
        """Fraction of submitted requests refused admission."""
        total = self.n_submitted
        if total == 0:
            return 0.0
        return self.n_rejected / total

    @property
    def drop_rate(self) -> float:
        """Fraction of submitted requests dropped after retries."""
        total = self.n_submitted
        if total == 0:
            return 0.0
        return self.n_dropped / total

    # -- the paper's metrics -------------------------------------------------

    @cached_property
    def makespan(self) -> float:
        """Latest completion over all requests (Λ); 0 for empty runs."""
        if not self.records:
            return 0.0
        return max(r.completion_time for r in self.records)

    @cached_property
    def average_completion_time(self) -> float:
        """Mean absolute completion time — the paper's table metric."""
        if not self.records:
            return 0.0
        return float(np.mean([r.completion_time for r in self.records]))

    @cached_property
    def average_flow_time(self) -> float:
        """Mean (completion − arrival) over requests."""
        if not self.records:
            return 0.0
        return float(np.mean([r.flow_time for r in self.records]))

    @cached_property
    def machine_utilization(self) -> float:
        """Mean busy-fraction over machines, measured against the makespan."""
        horizon = self.makespan
        if horizon <= 0 or not self.machine_states:
            return 0.0
        return float(np.mean([s.utilization(horizon) for s in self.machine_states]))

    @cached_property
    def total_security_cost(self) -> float:
        """Sum of realised security overheads over all requests."""
        return float(sum(r.security_cost for r in self.records))

    @cached_property
    def total_eec(self) -> float:
        """Sum of raw execution costs over all requests."""
        return float(sum(r.eec for r in self.records))

    @property
    def security_overhead_share(self) -> float:
        """Realised security cost as a fraction of raw execution cost."""
        if self.total_eec == 0:
            return 0.0
        return self.total_security_cost / self.total_eec

    # -- resilience metrics --------------------------------------------------

    @cached_property
    def effective_makespan(self) -> float:
        """Latest instant the run touched the system.

        Extends the makespan past the last completion when a failure (or
        the wasted tail of a dropped request) outlives it; identical to
        :attr:`makespan` for fault-free runs.
        """
        last_failure = max((f.failure_time for f in self.failures), default=0.0)
        return max(self.makespan, last_failure)

    @cached_property
    def total_wasted_work(self) -> float:
        """Machine time consumed by failed attempts (work paid for nothing)."""
        return float(sum(f.wasted_work for f in self.failures))

    @property
    def wasted_work_fraction(self) -> float:
        """Wasted machine time as a fraction of all booked machine time."""
        useful = float(sum(r.realized_cost for r in self.records))
        total = useful + self.total_wasted_work
        if total == 0:
            return 0.0
        return self.total_wasted_work / total

    @property
    def goodput(self) -> float:
        """Completed requests per unit time over the effective makespan."""
        horizon = self.effective_makespan
        if horizon <= 0:
            return 0.0
        return self.n_completed / horizon

    @cached_property
    def total_attempts(self) -> int:
        """Execution attempts booked on machines (completions + failures)."""
        return self.n_completed + len(self.failures)

    def summary(self) -> dict[str, Any]:
        """Headline accounting of the run as a plain dictionary.

        Every submitted request is accounted for exactly once:
        ``completed + rejected + dropped == submitted``.  Rejection reasons
        are aggregated into ``reason -> count``.
        """
        return {
            "heuristic": self.heuristic,
            "policy": self.policy_label,
            "submitted": self.n_submitted,
            "completed": self.n_completed,
            "rejected": self.n_rejected,
            "dropped": self.n_dropped,
            "rejection_reasons": dict(
                sorted(Counter(self.rejection_reasons.values()).items())
            ),
            "failures": len(self.failures),
            "makespan": self.makespan,
            "effective_makespan": self.effective_makespan,
            "goodput": self.goodput,
            "wasted_work": self.total_wasted_work,
            "wasted_work_fraction": self.wasted_work_fraction,
        }

    def __len__(self) -> int:
        return len(self.records)
