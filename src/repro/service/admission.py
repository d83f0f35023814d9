"""Ingestion-plane admission control: token bucket, capacity, deadlines.

Every request entering the service passes one
:class:`AdmissionController` decision before it reaches the scheduler.  A
refused request is *shed*: it settles immediately as rejected, carrying one
of the typed :class:`ShedReason` tags in the schedule's
``rejection_reasons``, so overload behaviour is observable and testable
rather than an emergent stall.

All mechanisms run on the deterministic simulation clock — the token
bucket refills by elapsed *simulated* time — so service runs stay
bit-reproducible and admission decisions can be replayed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.grid.request import Request
from repro.state import Obj

__all__ = ["ShedReason", "TokenBucket", "AdmissionPolicy", "AdmissionController"]


class ShedReason(enum.Enum):
    """Why the ingestion plane refused a request.

    The enum values are the reason tags recorded in
    :attr:`~repro.scheduling.result.ScheduleResult.rejection_reasons`
    (alongside the scheduler's own ``constraint-infeasible``).
    """

    #: The bounded pending queue is at capacity.
    QUEUE_FULL = "shed-queue-full"
    #: The token bucket is empty — the arrival rate exceeds the configured
    #: sustained admission rate.
    RATE_LIMITED = "shed-rate-limited"
    #: The scheduler signalled backpressure (backlog above the high
    #: watermark); ingestion sheds until the backlog drains below the low
    #: watermark.
    BACKPRESSURE = "shed-backpressure"
    #: The request waited in the pending queue past its deadline.
    DEADLINE_EXPIRED = "deadline-expired"


class TokenBucket:
    """Deterministic token bucket on the simulation clock.

    Tokens refill continuously at ``rate`` per simulated second up to
    ``burst``; each admitted request consumes one token.  State is two
    floats, so it checkpoints trivially.

    Attributes:
        rate: sustained admission rate (tokens per simulated second).
        burst: bucket capacity (momentary burst allowance).
        tokens: tokens currently available.
        last_refill: clock value of the last refill.
    """

    __slots__ = ("rate", "burst", "tokens", "last_refill")

    #: Spec of :meth:`state_dict` (see :mod:`repro.state`); a checkpoint
    #: of a service without a rate limit holds ``None``.
    STATE = Obj(
        "token-bucket state", {"tokens": float, "last_refill": float}, nullable=True
    )

    def __init__(self, rate: float, burst: float = 1.0) -> None:
        if rate <= 0:
            raise ConfigurationError("token bucket rate must be positive")
        if burst < 1:
            raise ConfigurationError("token bucket burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_refill = 0.0

    def refill(self, now: float) -> None:
        """Credit the tokens accrued since the last refill (clock-driven)."""
        if now > self.last_refill:
            self.tokens = min(
                self.burst, self.tokens + (now - self.last_refill) * self.rate
            )
            self.last_refill = now

    def try_take(self, now: float) -> bool:
        """Consume one token at ``now``; False when the bucket is empty."""
        self.refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    # -- checkpoint ----------------------------------------------------------

    def state_dict(self) -> dict:
        """The bucket's restorable state."""
        return {"tokens": self.tokens, "last_refill": self.last_refill}

    def restore(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.tokens = float(state["tokens"])
        self.last_refill = float(state["last_refill"])


@dataclass(frozen=True)
class AdmissionPolicy:
    """The ingestion plane's configuration.

    Attributes:
        queue_capacity: bound on the scheduler's pending queue (batch mode);
            arrivals finding it full are shed.  ``None`` disables the bound.
        rate: sustained admission rate for the token bucket (requests per
            simulated second); ``None`` disables rate limiting.
        burst: token-bucket capacity (ignored without ``rate``).
        deadline: maximum simulated time a request may wait in the pending
            queue before it is shed as ``deadline-expired``; measured from
            its arrival.  ``None`` disables deadlines.
    """

    queue_capacity: int | None = None
    rate: float | None = None
    burst: float = 1.0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be >= 1 (or None)")
        if self.rate is not None and self.rate <= 0:
            raise ConfigurationError("admission rate must be positive (or None)")
        if self.burst < 1:
            raise ConfigurationError("burst must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError("deadline must be positive (or None)")

    @classmethod
    def unlimited(cls) -> "AdmissionPolicy":
        """Admit everything — the configuration of the equivalence proof."""
        return cls()


class AdmissionController:
    """Applies one :class:`AdmissionPolicy` at the service's front door.

    The controller is deliberately free of scheduler knowledge: the service
    passes in the observable state (queue length, backpressure), and the
    controller answers "admit, or shed with which reason".
    """

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self.bucket = (
            TokenBucket(policy.rate, policy.burst)
            if policy.rate is not None
            else None
        )

    def decide(
        self,
        now: float,
        queue: list[Request],
        queue_bounded: bool,
        backpressure: bool,
    ) -> ShedReason | None:
        """The admission decision for one arrival.

        Every verdict depends on the clock and the scheduler's state,
        never on the arriving request itself.

        Args:
            now: the simulation clock.
            queue: the scheduler's pending queue (read-only here).
            queue_bounded: whether the queue bound applies (batch mode).
            backpressure: whether the scheduler's backpressure latch is
                engaged.

        Returns:
            ``None`` to admit, else the shed reason.
        """
        policy = self.policy
        if backpressure:
            return ShedReason.BACKPRESSURE
        if self.bucket is not None and not self.bucket.try_take(now):
            return ShedReason.RATE_LIMITED
        if (
            queue_bounded
            and policy.queue_capacity is not None
            and len(queue) >= policy.queue_capacity
        ):
            return ShedReason.QUEUE_FULL
        return None
