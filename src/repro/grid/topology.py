"""Grid assembly: domains, machines, clients and the shared trust table.

:class:`Grid` is the container the scheduler and simulator operate on.  It
owns the activity catalog, the GD/RD/CD structure, the machine and client
populations, and the central trust-level table, and precomputes the dense
index arrays (machine → RD, client → CD, per-pair RTLs) the vectorised cost
computations need.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.ets import EtsTable
from repro.core.levels import TrustLevel
from repro.errors import ConfigurationError
from repro.grid.activities import ActivityCatalog
from repro.grid.client import Client
from repro.grid.domain import ClientDomain, GridDomain, ResourceDomain
from repro.grid.machine import Machine
from repro.grid.trust_table import GridTrustTable

__all__ = ["Grid", "GridBuilder"]


@dataclass
class Grid:
    """A fully assembled Grid system.

    Attributes:
        catalog: the activity types available in this Grid.
        grid_domains: the administrative domains.
        resource_domains: the virtual resource domains (dense indices).
        client_domains: the virtual client domains (dense indices).
        machines: all schedulable machines (dense indices).
        clients: all request-originating clients (dense indices).
        trust_table: the central (CD × RD × ToA) trust-level table.
    """

    catalog: ActivityCatalog
    grid_domains: tuple[GridDomain, ...]
    resource_domains: tuple[ResourceDomain, ...]
    client_domains: tuple[ClientDomain, ...]
    machines: tuple[Machine, ...]
    clients: tuple[Client, ...]
    trust_table: GridTrustTable

    machine_rd: np.ndarray = field(init=False, repr=False)
    client_cd: np.ndarray = field(init=False, repr=False)
    rd_required: np.ndarray = field(init=False, repr=False)
    cd_required: np.ndarray = field(init=False, repr=False)
    pair_required: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._validate()
        self.machine_rd = np.array(
            [m.resource_domain.index for m in self.machines], dtype=np.int64
        )
        self.client_cd = np.array(
            [c.client_domain.index for c in self.clients], dtype=np.int64
        )
        self.rd_required = np.array(
            [int(rd.required_level) for rd in self.resource_domains], dtype=np.int64
        )
        self.cd_required = np.array(
            [int(cd.required_level) for cd in self.client_domains], dtype=np.int64
        )
        self.pair_required = np.maximum(
            self.cd_required[:, None], self.rd_required[None, :]
        )
        self.pair_required.setflags(write=False)

    def _validate(self) -> None:
        if not self.machines:
            raise ConfigurationError("a Grid needs at least one machine")
        if not self.clients:
            raise ConfigurationError("a Grid needs at least one client")
        for seq, label in (
            (self.resource_domains, "resource domain"),
            (self.client_domains, "client domain"),
            (self.machines, "machine"),
            (self.clients, "client"),
        ):
            for pos, item in enumerate(seq):
                if item.index != pos:
                    raise ConfigurationError(
                        f"{label} at position {pos} has index {item.index}; "
                        "indices must be dense and ordered"
                    )
        expected = (len(self.client_domains), len(self.resource_domains), len(self.catalog))
        if self.trust_table.shape != expected:
            raise ConfigurationError(
                f"trust table shape {self.trust_table.shape} != {expected} "
                "(n_cd, n_rd, n_activities)"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def n_machines(self) -> int:
        """Number of machines."""
        return len(self.machines)

    def required_per_rd(self, cd_index: int) -> np.ndarray:
        """Effective RTL per resource domain for a client of ``cd_index``.

        The paper keeps two RTLs — one client-side, one resource-side — and
        an activity proceeds without supplement only when the offer meets
        *both*, i.e. the effective requirement is their maximum.
        """
        if not 0 <= cd_index < len(self.client_domains):
            raise ConfigurationError(f"client domain index {cd_index} out of range")
        return self.pair_required[cd_index].copy()

    def trust_cost_matrix(
        self, cd_indices: np.ndarray, activity_masks: np.ndarray
    ) -> np.ndarray:
        """Trust cost TC on every machine for many (CD, ToA-set) keys.

        Prices each key against the trust table as it stands (callers
        memoise) and expands the per-RD costs to per-machine via the
        machine→RD map.

        Args:
            cd_indices: client-domain index per key, shape ``(k,)``.
            activity_masks: boolean ``(k, n_activities)`` ToA membership per
                key (see :meth:`GridTrustTable.offered_rows`).

        Returns:
            Integer TC matrix of shape ``(k, n_machines)``.
        """
        per_rd = self.trust_table.trust_cost_rows(
            cd_indices, activity_masks, self.pair_required
        )
        return per_rd[:, self.machine_rd]


class GridBuilder:
    """Step-by-step constructor for :class:`Grid` objects.

    Handles the dense-index bookkeeping so user code (and the workload
    generators) can declare domains in any convenient order::

        builder = GridBuilder(ActivityCatalog.default(4))
        gd = builder.grid_domain("uni-a")
        rd = builder.resource_domain(gd, required_level="B")
        builder.machine(rd)
        cd = builder.client_domain(gd, required_level="C")
        builder.client(cd)
        grid = builder.build()
    """

    def __init__(self, catalog: ActivityCatalog) -> None:
        if len(catalog) == 0:
            raise ConfigurationError("activity catalog must not be empty")
        self.catalog = catalog
        self._grid_domains: list[GridDomain] = []
        self._resource_domains: list[ResourceDomain] = []
        self._client_domains: list[ClientDomain] = []
        self._machines: list[Machine] = []
        self._clients: list[Client] = []

    def grid_domain(self, name: str) -> GridDomain:
        """Declare a new Grid domain."""
        gd = GridDomain(index=len(self._grid_domains), name=name)
        self._grid_domains.append(gd)
        return gd

    def resource_domain(
        self,
        grid_domain: GridDomain,
        *,
        required_level: TrustLevel | int | str,
        supported_activities: Sequence | None = None,
    ) -> ResourceDomain:
        """Declare a resource domain under ``grid_domain``.

        By default the RD supports every activity in the catalog.
        """
        supported = (
            frozenset(supported_activities)
            if supported_activities is not None
            else frozenset(self.catalog)
        )
        rd = ResourceDomain(
            index=len(self._resource_domains),
            grid_domain=grid_domain,
            supported_activities=supported,
            required_level=TrustLevel.from_value(required_level),
        )
        self._resource_domains.append(rd)
        return rd

    def client_domain(
        self, grid_domain: GridDomain, *, required_level: TrustLevel | int | str
    ) -> ClientDomain:
        """Declare a client domain under ``grid_domain``."""
        cd = ClientDomain(
            index=len(self._client_domains),
            grid_domain=grid_domain,
            required_level=TrustLevel.from_value(required_level),
        )
        self._client_domains.append(cd)
        return cd

    def machine(self, resource_domain: ResourceDomain, name: str = "") -> Machine:
        """Declare a machine inside ``resource_domain``."""
        m = Machine(
            index=len(self._machines), resource_domain=resource_domain, name=name
        )
        self._machines.append(m)
        return m

    def client(self, client_domain: ClientDomain, name: str = "") -> Client:
        """Declare a client inside ``client_domain``."""
        c = Client(index=len(self._clients), client_domain=client_domain, name=name)
        self._clients.append(c)
        return c

    def build(
        self,
        *,
        initial_level: TrustLevel | int | str = TrustLevel.A,
        ets: "EtsTable | None" = None,
    ) -> Grid:
        """Assemble the :class:`Grid`; the trust table starts uniform.

        Args:
            initial_level: starting level of every trust-table entry.
            ets: ETS table variant used for trust-cost queries.

        Raises:
            ConfigurationError: if the declared structure is incomplete.
        """
        if not self._resource_domains or not self._client_domains:
            raise ConfigurationError(
                "a Grid needs at least one resource domain and one client domain"
            )
        table = GridTrustTable(
            len(self._client_domains),
            len(self._resource_domains),
            len(self.catalog),
            initial_level=initial_level,
            ets=ets,
        )
        return Grid(
            catalog=self.catalog,
            grid_domains=tuple(self._grid_domains),
            resource_domains=tuple(self._resource_domains),
            client_domains=tuple(self._client_domains),
            machines=tuple(self._machines),
            clients=tuple(self._clients),
            trust_table=table,
        )
