"""Markov-modulated Poisson arrivals (burstiness extension).

The paper models arrivals as a plain Poisson process; real Grid request
streams are bursty — quiet periods punctuated by submission storms
(parameter sweeps, deadline rushes).  The standard burstiness model that
stays analytically close to Poisson is the two-state *Markov-modulated
Poisson process* (MMPP): the arrival rate switches between a low and a high
value according to a continuous-time Markov chain.

:class:`MmppProcess` plugs into everything the Poisson process does (same
:class:`~repro.sim.arrivals.ArrivalProcess` protocol), so burstiness
ablations are one-knob swaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

from repro.sim.arrivals import ArrivalProcess

__all__ = ["MmppProcess"]


@dataclass
class MmppProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson arrivals.

    Attributes:
        quiet_rate: arrival intensity in the quiet state.
        burst_rate: arrival intensity in the burst state (must exceed
            ``quiet_rate``).
        quiet_duration: mean sojourn time in the quiet state.
        burst_duration: mean sojourn time in the burst state.
        rng: random stream.
        start: offset added to every arrival time.

    The long-run average rate is the sojourn-weighted mean, exposed as
    :attr:`mean_rate`, so an MMPP can be calibrated load-equivalent to a
    Poisson process while being much burstier.
    """

    quiet_rate: float
    burst_rate: float
    quiet_duration: float
    burst_duration: float
    rng: np.random.Generator
    start: float = 0.0

    def __post_init__(self) -> None:
        for name in ("quiet_rate", "burst_rate", "quiet_duration", "burst_duration"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigurationError(f"{name} must be positive, got {value!r}")
        if self.burst_rate <= self.quiet_rate:
            raise ConfigurationError(
                f"burst_rate must exceed quiet_rate={self.quiet_rate!r}, "
                f"got {self.burst_rate!r}"
            )
        if self.start < 0:
            raise ConfigurationError(f"start must be non-negative, got {self.start!r}")

    @property
    def mean_rate(self) -> float:
        """Long-run average arrival rate (sojourn-weighted)."""
        total = self.quiet_duration + self.burst_duration
        return (
            self.quiet_rate * self.quiet_duration
            + self.burst_rate * self.burst_duration
        ) / total

    @classmethod
    def load_equivalent(
        cls,
        mean_rate: float,
        rng: np.random.Generator,
        *,
        burstiness: float = 5.0,
        quiet_duration: float = 200.0,
        burst_duration: float = 50.0,
        start: float = 0.0,
    ) -> "MmppProcess":
        """Construct an MMPP with the given long-run ``mean_rate``.

        Args:
            mean_rate: target average intensity.
            burstiness: ratio ``burst_rate / quiet_rate`` (> 1).
            quiet_duration / burst_duration: mean state sojourns.
        """
        if mean_rate <= 0:
            raise ConfigurationError(f"mean_rate must be positive, got {mean_rate!r}")
        if burstiness <= 1.0:
            raise ConfigurationError(f"burstiness must exceed 1, got {burstiness!r}")
        total = quiet_duration + burst_duration
        # mean = (q·dq + b·q·db)/total with b = burstiness·q.
        quiet = mean_rate * total / (quiet_duration + burstiness * burst_duration)
        return cls(
            quiet_rate=quiet,
            burst_rate=burstiness * quiet,
            quiet_duration=quiet_duration,
            burst_duration=burst_duration,
            rng=rng,
            start=start,
        )

    def times(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        times = np.empty(count, dtype=np.float64)
        now = 0.0
        in_burst = False
        # Time remaining in the current modulation state.
        state_left = float(self.rng.exponential(self.quiet_duration))
        produced = 0
        while produced < count:
            rate = self.burst_rate if in_burst else self.quiet_rate
            gap = float(self.rng.exponential(1.0 / rate))
            if gap <= state_left:
                now += gap
                state_left -= gap
                times[produced] = now
                produced += 1
            else:
                # The state expires first; no arrival in the remainder
                # (memorylessness lets us just switch and redraw).
                now += state_left
                in_burst = not in_burst
                mean = self.burst_duration if in_burst else self.quiet_duration
                state_left = float(self.rng.exponential(mean))
        return self.start + times
