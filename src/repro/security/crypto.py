"""Cipher throughput model.

The scp measurements in the paper are dominated by the host CPU's bulk
encryption speed: a Pentium III at 866 MHz running ssh-1.x-era 3DES moves
roughly 6–7 MB/s no matter how fast the wire is — which is exactly why
Table 3 shows the security overhead "negating the benefits of the high
speed network".

A cipher is characterised by its cost in CPU cycles per byte (encryption
plus MAC); throughput follows from the host clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["CipherSuite", "HostCpu", "TRIPLE_DES_SHA1", "AES128_SHA1", "PIII_866"]


@dataclass(frozen=True, slots=True)
class HostCpu:
    """A host processor, reduced to its clock rate.

    Attributes:
        name: readable label.
        clock_mhz: clock frequency in MHz (cycles per microsecond).
    """

    name: str
    clock_mhz: float

    def __post_init__(self) -> None:
        if self.clock_mhz <= 0:
            raise ConfigurationError(
                f"clock_mhz must be positive, got {self.clock_mhz!r}"
            )


@dataclass(frozen=True, slots=True)
class CipherSuite:
    """A bulk cipher + MAC combination.

    Attributes:
        name: readable label, e.g. ``"3des-sha1"``.
        cycles_per_byte: combined encryption + integrity cost.
    """

    name: str
    cycles_per_byte: float

    def __post_init__(self) -> None:
        if self.cycles_per_byte <= 0:
            raise ConfigurationError(
                f"cycles_per_byte must be positive, got {self.cycles_per_byte!r}"
            )

    def throughput_mbs(self, cpu: HostCpu) -> float:
        """Sustained cipher throughput on ``cpu`` in MB/s."""
        bytes_per_second = cpu.clock_mhz * 1e6 / self.cycles_per_byte
        return bytes_per_second / (1024.0 * 1024.0)


#: The PIII 866 MHz host of the paper's testbed (Section 5.1).
PIII_866 = HostCpu("Pentium III 866 MHz", clock_mhz=866.0)

#: ssh-1.x default bulk cipher: 3DES with SHA-1 integrity.  The cycle count
#: is calibrated so a PIII-866 sustains ~6.3 MB/s, matching the large-file
#: scp rates of Tables 2–3.
TRIPLE_DES_SHA1 = CipherSuite("3des-sha1", cycles_per_byte=130.0)

#: AES-128 (post-2001): faster still; included for what-if sweeps.
AES128_SHA1 = CipherSuite("aes128-sha1", cycles_per_byte=32.0)
