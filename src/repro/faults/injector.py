"""Run-scoped fault injection.

A :class:`FaultInjector` binds a :class:`~repro.faults.model.FaultModel` to
one run (or one session): it owns the per-machine
:class:`~repro.faults.model.MachineTimeline` sample paths and the
per-attempt crash streams, and answers the scheduler's one question —
*given this booking, when does the attempt end and how?* — via
:meth:`attempt_outcome`.

Because timelines and crash draws are resolved deterministically at booking
time, the DES events that mirror them (task ``FAILURE`` events, machine
``MACHINE`` up/down transitions) can never disagree with realised outcomes,
and bit-reproducibility reduces to seeding: every stream hangs off one
:class:`~repro.sim.rng.RngFactory`.  Crash streams are keyed by
``(request, attempt)``, so paired trust-aware/unaware runs present the same
fate to a request landing on the same domain — the comparison stays
workload-paired even under failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.faults.model import FaultModel, MachineTimeline
from repro.faults.records import FailureKind
from repro.obs.metrics import MetricsRegistry
from repro.sim.rng import RngFactory

__all__ = ["AttemptOutcome", "FaultInjector"]


@dataclass(frozen=True, slots=True)
class AttemptOutcome:
    """The resolved fate of one booked execution attempt.

    Attributes:
        start_time: when execution actually begins (booking start pushed
            past any in-progress repair).
        end_time: completion instant, or the failure instant.
        executed: machine time consumed — ``cost`` on success, the wasted
            work on failure.
        next_free: when the machine can take new work (equals ``end_time``
            except after a machine failure, where it is the repair end).
        failure: ``None`` on success, else why the attempt died.
    """

    start_time: float
    end_time: float
    executed: float
    next_free: float
    failure: FailureKind | None

    @property
    def failed(self) -> bool:
        """Whether the attempt died before completing."""
        return self.failure is not None


class FaultInjector:
    """Binds a fault model to one run's sample paths.

    Args:
        model: the fault configuration (task crashes and/or machine faults).
        rng: the :class:`RngFactory` (or an ``int`` root seed) owning the
            injector's streams.
        start: absolute time machine timelines begin (machines start up).
        metrics: optional registry counting resolved attempts
            (``faults.attempts``) and injected failures by kind
            (``faults.injected.<kind>``); disabled by default.  The
            scheduler attaches its own registry to an un-instrumented
            injector, so session-level wiring needs no extra plumbing.
    """

    def __init__(
        self,
        model: FaultModel,
        *,
        rng: RngFactory | int = 0,
        start: float = 0.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not isinstance(model, FaultModel):
            raise ConfigurationError("model must be a FaultModel")
        if start < 0:
            raise ConfigurationError("start must be non-negative")
        self.model = model
        self.metrics = metrics if metrics is not None else MetricsRegistry.disabled()
        self.start = float(start)
        self._rng = rng if isinstance(rng, RngFactory) else RngFactory(seed=rng)
        self._timelines: dict[int, MachineTimeline] = {}
        self._machine_rd: list[int] | None = None

    # -- binding -------------------------------------------------------------

    def bind(self, grid) -> None:
        """Attach the injector to ``grid`` (idempotent for the same shape).

        The grid supplies the machine→RD map the models are keyed by.
        Timelines already materialised survive a re-bind, so one injector
        can span the successive scheduler runs of a session.
        """
        machine_rd = [int(rd) for rd in grid.machine_rd]
        if self._machine_rd is not None and self._machine_rd != machine_rd:
            raise ConfigurationError(
                "injector is already bound to a grid with a different "
                "machine/RD layout"
            )
        self._machine_rd = machine_rd

    def _require_bound(self) -> list[int]:
        if self._machine_rd is None:
            raise ConfigurationError("injector is not bound to a grid yet")
        return self._machine_rd

    def rd_of(self, machine_index: int) -> int:
        """Resource domain of ``machine_index`` under the bound grid."""
        machine_rd = self._require_bound()
        if not 0 <= machine_index < len(machine_rd):
            raise ConfigurationError(f"machine index {machine_index} out of range")
        return machine_rd[machine_index]

    # -- sample paths --------------------------------------------------------

    def timeline(self, machine_index: int) -> MachineTimeline | None:
        """The up-down timeline of one machine (``None`` without a model)."""
        if self.model.machines is None:
            return None
        cached = self._timelines.get(machine_index)
        if cached is not None:
            return cached
        self.rd_of(machine_index)  # refuses an unbound injector or index
        machines = self.model.machines
        timeline = MachineTimeline(
            self._rng.stream(f"updown-{machine_index}"),
            machines.mtbf,
            machines.mttr,
            start=self.start,
        )
        self._timelines[machine_index] = timeline
        return timeline

    def attempt_outcome(
        self,
        *,
        request_index: int,
        machine_index: int,
        attempt: int,
        begin: float,
        cost: float,
    ) -> AttemptOutcome:
        """Resolve the fate of an attempt booked at ``begin`` for ``cost``.

        The attempt starts once the machine is up, then dies at the earlier
        of a sampled task crash and the next machine downtime inside its
        execution window — or completes if neither interferes.
        """
        if cost < 0:
            raise ConfigurationError("cost must be non-negative")
        timeline = self.timeline(machine_index)
        start = timeline.next_up(begin) if timeline is not None else begin
        nominal_end = start + cost

        crash_at: float | None = None
        if self.model.tasks is not None:
            executed = self.model.tasks.sample_attempt(
                self.rd_of(machine_index),
                cost,
                self._rng.stream(f"crash-{request_index}-{attempt}"),
            )
            if executed is not None:
                crash_at = start + executed

        down_at = (
            timeline.first_down_in(start, nominal_end)
            if timeline is not None
            else None
        )
        if down_at is not None and (crash_at is None or down_at <= crash_at):
            assert timeline is not None
            outcome = AttemptOutcome(
                start_time=start,
                end_time=down_at,
                executed=down_at - start,
                next_free=timeline.next_up(down_at),
                failure=FailureKind.MACHINE_DOWN,
            )
        elif crash_at is not None:
            outcome = AttemptOutcome(
                start_time=start,
                end_time=crash_at,
                executed=crash_at - start,
                next_free=crash_at,
                failure=FailureKind.TASK_CRASH,
            )
        else:
            outcome = AttemptOutcome(
                start_time=start,
                end_time=nominal_end,
                executed=cost,
                next_free=nominal_end,
                failure=None,
            )
        if self.metrics.enabled:
            self.metrics.counter("faults.attempts").add()
            if outcome.failure is not None:
                self.metrics.counter(
                    f"faults.injected.{outcome.failure.value}"
                ).add()
        return outcome
