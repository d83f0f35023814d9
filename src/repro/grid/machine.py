"""Machines — the schedulable resources inside resource domains.

The mapping heuristics of Section 4 operate at machine granularity: a
request is assigned to one machine, tasks are indivisible and run
non-preemptively.  The machine's trust attributes are inherited from its
resource domain ("the resources and clients within a GD inherit the
parameters associated with the RD and CD", Section 3.1), so the machine
object itself only carries identity, membership, and the bookkeeping the
scheduler needs (available time ``α_i`` and busy-time accounting).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.grid.domain import ResourceDomain

__all__ = ["Machine", "MachineState"]


@dataclass(frozen=True, slots=True)
class Machine:
    """One schedulable machine.

    Attributes:
        index: dense machine index (column of EEC matrices).
        resource_domain: the RD this machine belongs to; all trust
            attributes are inherited from it.
        name: optional readable name; defaults derived from the RD.
    """

    index: int
    resource_domain: ResourceDomain
    name: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError(
                f"machine index must be non-negative, got {self.index!r}"
            )
        if not self.name:
            object.__setattr__(
                self, "name", f"{self.resource_domain.name}/m{self.index}"
            )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(slots=True)
class MachineState:
    """Mutable scheduler-side state for one machine.

    Attributes:
        machine: the machine this state tracks.
        available_time: the paper's ``α_i`` — the time at which the machine
            finishes everything currently assigned to it.
        busy_time: total time spent executing assigned work (for the
            utilisation metric of Tables 4–9); under fault injection this
            includes the wasted time of failed attempts — failed work is
            still paid for.
        assigned_count: number of execution attempts booked so far.
        failed_count: how many of those attempts failed.
    """

    machine: Machine
    available_time: float = 0.0
    busy_time: float = 0.0
    assigned_count: int = 0
    failed_count: int = 0

    def book_attempt(
        self, executed: float, next_free: float, *, failed: bool = False
    ) -> None:
        """Book one fault-resolved execution attempt.

        The caller has already resolved when the attempt ends (possibly
        early, on failure) and when the machine can take new work (possibly
        later than the attempt's end, when a machine failure leaves it in
        repair).

        Args:
            executed: machine time the attempt actually consumed.
            next_free: when the machine becomes available again; must not
                precede what is already booked.
            failed: whether the attempt died (counts toward ``failed_count``).
        """
        if executed < 0:
            raise ConfigurationError(
                f"executed time must be non-negative, got {executed!r}"
            )
        if next_free < self.available_time:
            raise ConfigurationError(
                f"next_free {next_free!r} precedes booked work ending at "
                f"{self.available_time}"
            )
        self.available_time = next_free
        self.busy_time += executed
        self.assigned_count += 1
        if failed:
            self.failed_count += 1

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` this machine spent busy.

        Returns 0 for a zero/negative horizon (nothing has happened yet).
        """
        if horizon <= 0:
            return 0.0
        return min(self.busy_time / horizon, 1.0)
