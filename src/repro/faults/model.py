"""Failure models: who fails, how often, and for how long.

Two orthogonal processes, both seeded through the existing
:class:`~repro.sim.rng.RngFactory` streams so runs stay bit-reproducible:

* :class:`TaskFailureModel` — per-attempt crash probabilities keyed by the
  hosting *resource domain* (flakiness is a domain property in this model,
  exactly like trust).  The crash point within the attempt follows either a
  uniform fraction (Bernoulli mode) or a conditional Weibull law.
* :class:`MachineFailureModel` — exponential MTBF/MTTR up-down processes,
  one per machine, all with the same parameters.  A
  :class:`MachineTimeline` materialises one machine's sample path lazily,
  so a scheduler can resolve "is this machine up at ``t``?" and "does a
  downtime interrupt this execution window?" deterministically at booking
  time.

:class:`FaultModel` bundles both and is the user-facing configuration
object; :meth:`FaultModel.injector` turns it into a run-scoped
:class:`~repro.faults.injector.FaultInjector`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from operator import gt

import numpy as np

from repro.errors import ConfigurationError
from repro.state import Obj

__all__ = [
    "TaskFailureModel",
    "MachineFailureModel",
    "MachineTimeline",
    "FaultModel",
]


@dataclass(frozen=True)
class TaskFailureModel:
    """Per-attempt crash model, keyed by resource domain.

    Attributes:
        rd_crash_prob: RD index → probability that one execution attempt on
            that domain crashes before completing.
        default_crash_prob: probability for RDs without an explicit entry.
        weibull_shape: when set, the crash *point* within the attempt
            follows a Weibull time-to-failure law with this shape (``k < 1``
            infant mortality, ``k = 1`` exponential, ``k > 1`` wear-out),
            conditioned on the crash happening within the attempt; when
            ``None`` the crash point is uniform over the attempt.
    """

    rd_crash_prob: dict[int, float] = field(default_factory=dict)
    default_crash_prob: float = 0.0
    weibull_shape: float | None = None

    def __post_init__(self) -> None:
        for rd, p in {**self.rd_crash_prob, -1: self.default_crash_prob}.items():
            if not 0.0 <= p < 1.0:
                raise ConfigurationError(
                    f"crash probability must lie in [0, 1), got {p} for RD {rd}"
                )
        if self.weibull_shape is not None and self.weibull_shape <= 0:
            raise ConfigurationError("weibull_shape must be positive")

    def crash_prob(self, rd_index: int) -> float:
        """Per-attempt crash probability on resource domain ``rd_index``."""
        return self.rd_crash_prob.get(rd_index, self.default_crash_prob)

    def sample_attempt(
        self, rd_index: int, cost: float, rng: np.random.Generator
    ) -> float | None:
        """Sample one execution attempt of ``cost`` work on ``rd_index``.

        Returns:
            The work executed before the crash (in ``[0, cost)``), or
            ``None`` when the attempt completes.
        """
        p = self.crash_prob(rd_index)
        if p <= 0.0 or rng.random() >= p:
            return None
        u = rng.random()
        if self.weibull_shape is None:
            frac = u
        else:
            # Conditional Weibull: scale chosen so P(T < cost) = p, then
            # invert F(t)/p at u.  Both log1p terms are negative; their
            # ratio lies in (0, 1).
            k = self.weibull_shape
            frac = (math.log1p(-u * p) / math.log1p(-p)) ** (1.0 / k)
        return cost * frac


@dataclass(frozen=True)
class MachineFailureModel:
    """Exponential MTBF/MTTR up-down process parameters of every machine.

    Attributes:
        mtbf: mean time between failures (mean up-interval).
        mttr: mean time to repair (mean down-interval).
    """

    mtbf: float
    mttr: float

    def __post_init__(self) -> None:
        if self.mtbf <= 0 or self.mttr <= 0:
            raise ConfigurationError(
                "mtbf and mttr must be positive, got "
                f"mtbf={self.mtbf!r}, mttr={self.mttr!r}"
            )


class MachineTimeline:
    """One machine's lazily generated up-down sample path.

    The timeline alternates ``up ~ Exp(mtbf)`` and ``down ~ Exp(mttr)``
    intervals starting (up) at ``start``.  It is the *source of truth* for
    a run: booking-time queries and the mirrored DES machine events both
    read the same path, so event ordering can never disagree with realised
    outcomes.
    """

    #: Spec of :meth:`state_dict` (see :mod:`repro.state`).
    STATE = Obj(
        "outage timeline",
        {"cursor": float, "down_starts": [float], "down_ends": [float]},
    )

    def __init__(
        self,
        rng: np.random.Generator,
        mtbf: float,
        mttr: float,
        *,
        start: float = 0.0,
    ) -> None:
        if mtbf <= 0 or mttr <= 0:
            raise ConfigurationError("MTBF and MTTR must be positive")
        self._rng = rng
        self._mtbf = mtbf
        self._mttr = mttr
        self._cursor = start
        self._down_starts: list[float] = []
        self._down_ends: list[float] = []

    def state_dict(self) -> dict:
        """The path materialised so far: where it ends, and its downtimes.

        The generator that extends the path belongs to whoever passed it
        in, and is saved by that owner.
        """
        return {
            "cursor": self._cursor,
            "down_starts": list(self._down_starts),
            "down_ends": list(self._down_ends),
        }

    def restore(self, state: dict) -> None:
        """Restore a path captured by :meth:`state_dict`.

        Raises:
            ConfigurationError: unless the downtimes are ordered, disjoint
                intervals ending at or before the cursor; nothing is
                restored then.
        """
        cursor = float(state["cursor"])
        starts = [float(t) for t in state["down_starts"]]
        ends = [float(t) for t in state["down_ends"]]
        bounds = [b for pair in zip(starts, ends) for b in pair] + [cursor]
        if len(starts) != len(ends) or any(map(gt, bounds, bounds[1:])):
            raise ConfigurationError(
                f"outage timeline of {len(starts)} down-starts and "
                f"{len(ends)} down-ends is not ordered, disjoint downtimes "
                f"ending by its cursor {cursor}"
            )
        self._cursor, self._down_starts, self._down_ends = cursor, starts, ends

    def _extend(self) -> None:
        down = self._cursor + float(self._rng.exponential(self._mtbf))
        repair = down + float(self._rng.exponential(self._mttr))
        self._down_starts.append(down)
        self._down_ends.append(repair)
        self._cursor = repair

    def _ensure(self, t: float) -> None:
        while self._cursor <= t:
            self._extend()

    def next_up(self, t: float) -> float:
        """Earliest time ``>= t`` at which the machine is up."""
        self._ensure(t)
        i = bisect.bisect_right(self._down_starts, t) - 1
        if i >= 0 and t < self._down_ends[i]:
            return self._down_ends[i]
        return t

    def is_up(self, t: float) -> bool:
        """Whether the machine is up at ``t`` (repair instants count as up)."""
        return self.next_up(t) == t

    def first_down_in(self, lo: float, hi: float) -> float | None:
        """First down-start strictly inside ``(lo, hi)``, or ``None``.

        This is the "does a downtime interrupt this execution window?"
        query: a task started at ``lo`` (machine up) running until ``hi``
        dies at the first failure instant strictly before it completes.
        """
        self._ensure(hi)
        i = bisect.bisect_right(self._down_starts, lo)
        if i < len(self._down_starts) and self._down_starts[i] < hi:
            return self._down_starts[i]
        return None

    def first_down_at_or_after(self, t: float) -> tuple[float, float]:
        """The first ``(down_start, repair_end)`` with ``down_start >= t``."""
        self._ensure(t)
        while True:
            i = bisect.bisect_left(self._down_starts, t)
            if i < len(self._down_starts):
                return (self._down_starts[i], self._down_ends[i])
            self._extend()


@dataclass(frozen=True)
class FaultModel:
    """The complete fault configuration of a run (strictly opt-in).

    Attributes:
        tasks: per-attempt crash model, or ``None`` for no task crashes.
        machines: machine up-down model, or ``None`` for always-up machines.
    """

    tasks: TaskFailureModel | None = None
    machines: MachineFailureModel | None = None

    @property
    def enabled(self) -> bool:
        """Whether any failure process is configured."""
        return self.tasks is not None or self.machines is not None

    def injector(self, rng, *, start: float = 0.0):
        """Build a run-scoped :class:`~repro.faults.injector.FaultInjector`.

        Args:
            rng: a :class:`~repro.sim.rng.RngFactory` (or an ``int`` root
                seed) owning the injector's streams.
            start: absolute time the machine timelines begin (the session
                clock for mid-session rounds).
        """
        from repro.faults.injector import FaultInjector

        return FaultInjector(self, rng=rng, start=start)
