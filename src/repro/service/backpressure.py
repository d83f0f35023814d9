"""Scheduler→ingestion backpressure with watermark hysteresis.

The service tracks its *backlog* — requests admitted but not yet settled
(pending in the queue, awaiting a failure event, or awaiting a retry).
When the backlog crosses the high watermark the latch engages and the
ingestion plane sheds new arrivals (``shed-backpressure``) until the
scheduler drains the backlog below the low watermark.  The hysteresis gap
prevents the latch from flapping once per request at the boundary.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.state import Obj

__all__ = ["BackpressureLatch"]


class BackpressureLatch:
    """A two-watermark latch over the service backlog.

    Attributes:
        high: backlog size at which the latch engages (inclusive).
        low: backlog size at which it releases (inclusive): half the
            high watermark.
        engaged: whether ingestion is currently being pushed back on.
        engagements: number of disengaged→engaged transitions.
        releases: number of engaged→disengaged transitions.
    """

    __slots__ = ("high", "low", "engaged", "engagements", "releases")

    #: Spec of :meth:`state_dict` (see :mod:`repro.state`); a checkpoint
    #: of a service without backpressure holds ``None``.
    STATE = Obj(
        "backpressure state",
        {"engaged": bool, "engagements": int, "releases": int},
        nullable=True,
    )

    def __init__(self, high: int) -> None:
        if high < 1:
            raise ConfigurationError(
                f"backpressure high watermark must be >= 1, got {high!r}"
            )
        self.high = high
        self.low = high // 2
        self.engaged = False
        self.engagements = 0
        self.releases = 0

    def update(self, backlog: int) -> bool:
        """Feed the current backlog; True iff the latch state changed."""
        if not self.engaged and backlog >= self.high:
            self.engaged = True
            self.engagements += 1
            return True
        if self.engaged and backlog <= self.low:
            self.engaged = False
            self.releases += 1
            return True
        return False

    # -- checkpoint ----------------------------------------------------------

    def state_dict(self) -> dict:
        """The latch's restorable state."""
        return {
            "engaged": self.engaged,
            "engagements": self.engagements,
            "releases": self.releases,
        }

    def restore(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.engaged = bool(state["engaged"])
        self.engagements = int(state["engagements"])
        self.releases = int(state["releases"])
