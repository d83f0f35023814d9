"""Network link model.

Tables 2 and 3 of the paper time file transfers over 100 Mbps and
1000 Mbps LANs.  We have no 2001-era testbed, so the link is modelled
analytically: a nominal line rate derated by a protocol-efficiency factor
(Ethernet + IP + TCP framing, ACK turnaround), yielding the effective
application-level throughput in MB/s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["NetworkLink", "FAST_ETHERNET", "GIGABIT_ETHERNET"]

_BITS_PER_MEGABYTE = 8.0 * 1.048576  # Mbit per MB (MiB-based, as file sizes)


@dataclass(frozen=True, slots=True)
class NetworkLink:
    """A point-to-point network link.

    Attributes:
        name: readable label, e.g. ``"100 Mbps"``.
        line_rate_mbps: nominal line rate in megabits per second.
        efficiency: fraction of the line rate available to the application
            after protocol overhead; early-2000s TCP over Fast Ethernet
            sustains roughly 80–85 %.
        latency_s: one-way latency (connection setup contributions).
    """

    name: str
    line_rate_mbps: float
    efficiency: float = 0.82
    latency_s: float = 0.0005

    def __post_init__(self) -> None:
        if self.line_rate_mbps <= 0:
            raise ConfigurationError(
                f"line_rate_mbps must be positive, got {self.line_rate_mbps!r}"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError(
                f"efficiency must lie in (0, 1], got {self.efficiency!r}"
            )
        if self.latency_s < 0:
            raise ConfigurationError(
                f"latency_s must be non-negative, got {self.latency_s!r}"
            )

    @property
    def throughput_mbs(self) -> float:
        """Effective application throughput in megabytes per second."""
        return self.line_rate_mbps * self.efficiency / _BITS_PER_MEGABYTE


#: The 100 Mbps LAN of Table 2.
FAST_ETHERNET = NetworkLink("100 Mbps", line_rate_mbps=100.0)
#: The 1000 Mbps LAN of Table 3.
GIGABIT_ETHERNET = NetworkLink("1000 Mbps", line_rate_mbps=1000.0)
