"""Grid domains and their virtual resource / client domains.

Section 3.1: the Grid is a collection of *Grid domains* (GDs) — autonomous
administrative entities.  Each GD projects two virtual domains:

* a **resource domain** (RD) for the resources it owns, and
* a **client domain** (CD) for the clients it hosts;

several RDs/CDs can map onto the same GD, and a GD may expose only one of
the two (a pure provider or pure consumer site).

Both virtual domains carry the attributes the TRMS consults: ownership, the
ToAs supported/sought, and a *required trust level* (RTL) — the minimum
trust the domain demands of a counterpart before no supplemental security is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.levels import TrustLevel
from repro.errors import ConfigurationError
from repro.grid.activities import ActivityType

__all__ = ["GridDomain", "ResourceDomain", "ClientDomain"]


@dataclass(frozen=True, slots=True)
class GridDomain:
    """An autonomous administrative entity of the Grid.

    Attributes:
        index: dense integer identifier.
        name: administrative name (e.g. an institution).
    """

    index: int
    name: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError(
                f"grid domain index must be non-negative, got {self.index!r}"
            )
        if not self.name:
            raise ConfigurationError(
                f"grid domain name must be non-empty, got {self.name!r}"
            )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True)
class ResourceDomain:
    """The virtual domain of resources owned by a Grid domain.

    Attributes:
        index: dense RD index (column of the grid trust-level table).
        grid_domain: the owning GD ("ownership" in the paper).
        supported_activities: the ToAs resources of this RD can host.
        required_level: the RD-side RTL — the trust level the RD requires of
            clients; raising it to ``F`` forces supplemental security on every
            interaction (Table 1, row F).
    """

    index: int
    grid_domain: GridDomain
    supported_activities: frozenset[ActivityType]
    required_level: TrustLevel

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError(
                f"resource domain index must be non-negative, got {self.index!r}"
            )
        if not self.supported_activities:
            raise ConfigurationError(
                "supported_activities must hold at least one ToA, got "
                f"{self.supported_activities!r}"
            )

    @property
    def name(self) -> str:
        """Readable identifier, derived from the owning GD."""
        return f"{self.grid_domain.name}/rd{self.index}"


@dataclass(frozen=True)
class ClientDomain:
    """The virtual domain of clients hosted by a Grid domain.

    Attributes:
        index: dense CD index (row of the grid trust-level table).
        grid_domain: the owning GD.
        required_level: the CD-side RTL — the trust the clients of this
            domain require of resources before tasks run without extra
            protection.
    """

    index: int
    grid_domain: GridDomain
    required_level: TrustLevel

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError(
                f"client domain index must be non-negative, got {self.index!r}"
            )

    @property
    def name(self) -> str:
        """Readable identifier, derived from the owning GD."""
        return f"{self.grid_domain.name}/cd{self.index}"
