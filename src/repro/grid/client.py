"""Clients — the request originators inside client domains.

Like machines, clients inherit all trust attributes from their (client)
domain; the object itself is identity plus membership.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.grid.domain import ClientDomain

__all__ = ["Client"]


@dataclass(frozen=True, slots=True)
class Client:
    """One request-originating client.

    Attributes:
        index: dense client index.
        client_domain: the CD this client belongs to; trust attributes
            (RTL, ToAs sought) are inherited from it.
        name: optional readable name; defaults derived from the CD.
    """

    index: int
    client_domain: ClientDomain
    name: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError(
                f"client index must be non-negative, got {self.index!r}"
            )
        if not self.name:
            object.__setattr__(
                self, "name", f"{self.client_domain.name}/c{self.index}"
            )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name
