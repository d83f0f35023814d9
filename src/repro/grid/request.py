"""Tasks and requests.

Section 4.1's notation: a client presents a *request* ``r_i`` for the
execution of a *task* ``t(r_i)`` originated by client ``c(r_i)``.  Tasks are
indivisible and mapped non-preemptively.  Batch-mode heuristics collect the
requests arriving during a predefined interval into a *meta-request*
``R_j`` and map the whole batch at once (``SchedulingEngine.form_batch``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.grid.activities import ActivitySet
from repro.grid.client import Client

__all__ = ["Task", "Request"]


@dataclass(frozen=True)
class Task:
    """An indivisible unit of work.

    Attributes:
        index: dense task index (row of EEC matrices).
        activities: the ToAs the task engages in at the hosting resource;
            the request's OTL is the minimum offered level over these.
    """

    index: int
    activities: ActivitySet

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError(
                f"task index must be non-negative, got {self.index!r}"
            )


@dataclass(frozen=True)
class Request:
    """A client's request to execute one task (the paper's ``r_i``).

    Attributes:
        index: dense request index.
        client: originating client, ``c(r_i)``.
        task: the task to execute, ``t(r_i)``.
        arrival_time: simulation time the request entered the RMS.
    """

    index: int
    client: Client
    task: Task
    arrival_time: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError(
                f"request index must be non-negative, got {self.index!r}"
            )
        if self.arrival_time < 0:
            raise ConfigurationError(
                f"arrival_time must be non-negative, got {self.arrival_time!r}"
            )

    @property
    def client_domain_index(self) -> int:
        """Index of the originating client domain (row in trust tables)."""
        return self.client.client_domain.index

