"""Retry policy — what the scheduler does with a failed task.

The recovery knobs of the fault subsystem: how many execution attempts a
request gets, how long to back off between them (doubling per retry), and
— implicitly — when to give up (the request is *dropped* once attempts are
exhausted, and shows up in
:attr:`~repro.scheduling.result.ScheduleResult.dropped`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How failed requests are re-tried.

    Attributes:
        max_attempts: total execution attempts a request may consume
            (``1`` = never retry: the first failure drops the request).
        backoff_base: delay before the first retry; ``0`` re-enqueues the
            request at the failure instant.  The delay before retry ``n``
            is ``backoff_base * 2**(n-1)``.

    The re-mapping of a retry prices the machines that already failed the
    request at ``+inf``, steering the heuristic elsewhere; if that would
    leave no finite-cost machine the exclusions are relaxed (best effort,
    never wedge a request).
    """

    max_attempts: int = 3
    backoff_base: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ConfigurationError("backoff_base must be non-negative")

    def should_retry(self, failed_attempt: int) -> bool:
        """Whether a request whose attempt ``failed_attempt`` died gets another."""
        _check_attempt(failed_attempt)
        return failed_attempt < self.max_attempts

    def delay_for(self, failed_attempt: int) -> float:
        """Backoff delay before the retry following ``failed_attempt``."""
        _check_attempt(failed_attempt)
        return self.backoff_base * 2.0 ** (failed_attempt - 1)

    @classmethod
    def drop(cls) -> "RetryPolicy":
        """A no-retry policy: every failure drops its request."""
        return cls(max_attempts=1)


def _check_attempt(failed_attempt: int) -> None:
    if failed_attempt < 1:
        raise ConfigurationError(
            f"failed_attempt is 1-based, got {failed_attempt!r}"
        )
