"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate finer-grained failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "TrustModelError",
    "TrustQueryError",
    "TrustQueryTimeout",
    "TrustSourceUnavailable",
    "StaleTrustData",
    "SchedulingError",
    "NoFeasibleMachineError",
    "SimulationError",
    "EventOrderError",
    "WorkloadError",
    "ServiceError",
    "ServiceKilled",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """A user-supplied configuration value is invalid or inconsistent."""


class TrustModelError(ReproError):
    """A trust-model operation could not be carried out."""


class TrustQueryError(TrustModelError):
    """A trust-plane query could not produce fresh, usable data.

    Base class of the typed failures raised by the resilient query path of
    :mod:`repro.trustfaults`; callers that can degrade gracefully (the cost
    provider's trust-unaware fallback pricing) catch this and fall back
    instead of crashing.
    """


class TrustQueryTimeout(TrustQueryError):
    """A trust query exceeded its latency budget (after retries)."""


class TrustSourceUnavailable(TrustQueryError):
    """A trust source is down, or its circuit breaker is open (fast-fail)."""


class StaleTrustData(TrustQueryError):
    """A trust source answered, but its data is older than the staleness bound."""


class SchedulingError(ReproError):
    """A scheduling operation failed."""


class NoFeasibleMachineError(SchedulingError):
    """No machine can execute the request (e.g. empty machine set)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class EventOrderError(SimulationError):
    """An event was scheduled in the past of the simulation clock."""


class WorkloadError(ReproError, ValueError):
    """A workload specification or generated matrix is invalid."""


class ServiceError(ReproError):
    """The always-on scheduling service reached an invalid state."""


class ServiceKilled(ServiceError):
    """A service run was killed at a window boundary (crash emulation).

    Raised by ``GridService.serve(..., kill_after_window=k)`` once window
    ``k`` completes; carries the checkpoint taken at that boundary so
    recovery tests can restore from exactly the crash point.

    Attributes:
        checkpoint: the boundary checkpoint payload (JSON-compatible dict).
    """

    def __init__(self, message: str, checkpoint: dict | None = None) -> None:
        super().__init__(message)
        self.checkpoint = checkpoint if checkpoint is not None else {}


class CheckpointError(ServiceError):
    """A service checkpoint could not be taken or restored."""
