"""Failure records — what went wrong, where, and what it cost.

A :class:`FailureEvent` is the failure-side counterpart of
:class:`~repro.scheduling.result.CompletionRecord`: one entry per *failed
execution attempt*, carrying enough to account for wasted work and to let
the Figure-1 agents treat the failure as a strongly-unsatisfactory
transaction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["FailureKind", "FailureEvent"]


class FailureKind(enum.Enum):
    """Why an execution attempt failed."""

    #: The task itself crashed mid-execution (per-task Bernoulli/Weibull).
    TASK_CRASH = "task-crash"
    #: The hosting machine went down (MTBF/MTTR up-down process).
    MACHINE_DOWN = "machine-down"


@dataclass(frozen=True, slots=True)
class FailureEvent:
    """One failed execution attempt of one request.

    Attributes:
        request_index: dense request index of the failed attempt.
        machine_index: machine the attempt ran on.
        attempt: 1-based attempt number (1 = the first try).
        start_time: when the attempt began executing.
        failure_time: when the attempt died.
        wasted_work: machine time consumed by the attempt before it died
            (stays on the machine's books — failed work is still paid for).
        kind: whether the task crashed or its machine went down.
    """

    request_index: int
    machine_index: int
    attempt: int
    start_time: float
    failure_time: float
    wasted_work: float
    kind: FailureKind

    def __post_init__(self) -> None:
        if self.attempt < 1:
            raise ConfigurationError(
                f"attempt numbers are 1-based, got attempt {self.attempt}"
            )
        if self.failure_time < self.start_time:
            raise ConfigurationError(
                f"failure at {self.failure_time} cannot precede the "
                f"attempt's start at {self.start_time}"
            )
        if self.wasted_work < 0:
            raise ConfigurationError(
                f"wasted work must be non-negative, got {self.wasted_work}"
            )
