"""File-transfer pipeline: rcp vs scp (Tables 2 and 3).

A transfer is modelled as a pipeline of three stages — disk, network, and
(for secure protocols) the cipher — preceded by a protocol handshake.  In a
fully pipelined stream the sustained rate is the *minimum* stage throughput,
so

    ``time = handshake + size / min(disk, network, cipher?)``

This reproduces the qualitative structure of the paper's measurements:

* small files are handshake-dominated, so scp's ssh key exchange makes the
  relative overhead huge (~70 % at 1 MB);
* on 100 Mbps, rcp is network-bound (~10 MB/s) while scp is cipher-bound
  (~6.3 MB/s), a steady ~37 % overhead;
* on 1000 Mbps, rcp becomes disk-bound (~22 MB/s) but scp stays
  cipher-bound, so the overhead *rises* to ~67 % — "the security overhead
  negates the benefits of using the high speed network".

Overhead is reported as the paper computes it: ``1 − rcp / scp``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.security.crypto import PIII_866, TRIPLE_DES_SHA1, CipherSuite, HostCpu
from repro.security.network import NetworkLink

__all__ = ["TransferEndpoint", "TransferProtocol", "RCP", "SCP", "simulate_transfer", "transfer_overhead"]


@dataclass(frozen=True, slots=True)
class TransferEndpoint:
    """The host at either end of the transfer (assumed symmetric).

    Attributes:
        cpu: the host processor (drives cipher throughput).
        disk_mbs: sustained sequential disk throughput in MB/s; ~22 MB/s for
            the 2001-era IDE disks of the paper's testbed.
    """

    cpu: HostCpu = PIII_866
    disk_mbs: float = 22.0

    def __post_init__(self) -> None:
        if self.disk_mbs <= 0:
            raise ConfigurationError(
                f"disk_mbs must be positive, got {self.disk_mbs!r}"
            )


@dataclass(frozen=True, slots=True)
class TransferProtocol:
    """A file-transfer protocol's cost profile.

    Attributes:
        name: e.g. ``"rcp"`` or ``"scp"``.
        handshake_s: fixed connection-setup time (rsh spawn vs ssh key
            exchange + cipher negotiation).
        cipher: bulk cipher applied to the stream, or ``None`` for
            plaintext protocols.
    """

    name: str
    handshake_s: float
    cipher: CipherSuite | None = None

    def __post_init__(self) -> None:
        if self.handshake_s < 0:
            raise ConfigurationError(
                f"handshake_s must be non-negative, got {self.handshake_s!r}"
            )


#: Plain remote copy over rsh: negligible setup, no crypto.
RCP = TransferProtocol("rcp", handshake_s=0.10)
#: Secure copy over ssh-1.x: key exchange plus 3DES bulk encryption.
SCP = TransferProtocol("scp", handshake_s=0.50, cipher=TRIPLE_DES_SHA1)


def simulate_transfer(
    size_mb: float,
    protocol: TransferProtocol,
    link: NetworkLink,
    endpoint: TransferEndpoint | None = None,
) -> float:
    """Predict the wall-clock seconds to move ``size_mb`` megabytes.

    Args:
        size_mb: payload size in MB (non-negative).
        protocol: transfer protocol (rcp/scp or custom).
        link: the network link.
        endpoint: host characteristics (defaults to the paper's PIII-866).

    Returns:
        Transfer time in seconds.
    """
    if size_mb < 0:
        raise ConfigurationError(f"size_mb must be non-negative, got {size_mb!r}")
    endpoint = endpoint if endpoint is not None else TransferEndpoint()
    stages = [endpoint.disk_mbs, link.throughput_mbs]
    if protocol.cipher is not None:
        stages.append(protocol.cipher.throughput_mbs(endpoint.cpu))
    rate = min(stages)
    return protocol.handshake_s + link.latency_s + size_mb / rate


def transfer_overhead(
    size_mb: float,
    link: NetworkLink,
    *,
    secure: TransferProtocol = SCP,
    plain: TransferProtocol = RCP,
    endpoint: TransferEndpoint | None = None,
) -> float:
    """Security overhead fraction, as the paper defines it: ``1 − rcp/scp``.

    Returns a value in ``[0, 1)`` whenever the secure protocol is slower.
    """
    t_plain = simulate_transfer(size_mb, plain, link, endpoint)
    t_secure = simulate_transfer(size_mb, secure, link, endpoint)
    if t_secure <= 0:
        raise ConfigurationError(
            f"secure protocol {secure.name!r} must take positive time, got "
            f"{t_secure!r} s for size_mb={size_mb!r}"
        )
    return 1.0 - t_plain / t_secure
