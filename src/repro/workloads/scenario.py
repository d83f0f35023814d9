"""Scenario specification and materialisation.

A :class:`ScenarioSpec` captures *all* the knobs of one simulated experiment
(the parameters listed in Section 5.3 plus the reproduction-specific ones),
and :func:`materialize` turns a spec plus a seed into a concrete
:class:`Scenario` — grid, EEC matrix and request stream — using independent
named random streams so trust-aware and trust-unaware runs see *identical*
workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ets import EtsTable
from repro.errors import ConfigurationError
from repro.grid.activities import ActivityCatalog
from repro.grid.request import Request
from repro.grid.topology import Grid, GridBuilder
from repro.sim.arrivals import BatchArrivalProcess, PoissonProcess
from repro.sim.rng import RngFactory
from repro.workloads.consistency import Consistency
from repro.workloads.eec import range_based_matrix
from repro.workloads.heterogeneity import LOLO, Heterogeneity
from repro.workloads.requests import generate_request_stream
from repro.workloads.trustgen import sample_offered_table, sample_required_levels

__all__ = ["ScenarioSpec", "Scenario", "materialize"]


@dataclass(frozen=True)
class ScenarioSpec:
    """All parameters of one simulated Grid scheduling experiment.

    Defaults reproduce the Section 5.3 setup: 5 machines, CD/RD counts drawn
    from ``[1, 4]``, four ToAs with per-request set sizes from ``[1, 4]``,
    RTLs from ``[1, 6]``, OTLs from ``[1, 5]``, Poisson arrivals, LoLo
    heterogeneity.

    Attributes:
        n_tasks: number of requests in the run.
        n_machines: machine count (the paper uses 5).
        heterogeneity: EEC heterogeneity class.
        consistency: EEC consistency structure.
        arrival_rate: Poisson intensity; ``None`` lets :func:`materialize`
            pick a rate that offers ~``target_load`` × aggregate capacity.
        target_load: offered load used when ``arrival_rate`` is ``None``;
            values above ~1 saturate the machines (the paper's high
            utilisation regime).
        batch_arrivals: if True, all requests arrive at time 0 (pure batch
            workload; used by the theorem checks).
        n_activities: catalog size.
        min_toas / max_toas: per-request ToA-set size bounds.
        cd_range / rd_range: inclusive bounds for the random CD / RD counts.
        clients_per_cd: clients created per client domain.
        otl_per_pair: if True (default), one offered level is drawn per
            (CD, RD) pair and shared by all activities — the direct reading
            of Section 5.3's "OTL values were randomly generated from
            [1, 5]"; if False, levels are drawn per (CD, RD, ToA) and a
            composed request's OTL is the minimum over its ToAs (the
            Section-3 model semantics; markedly harsher).
        ets_f_forces_max: whether the sampled trust costs honour Table 1's
            ``RTL = F → TC = 6`` override.  Disabled by default for
            simulation: with the override, a sixth of all domains force the
            maximum supplement on *every* machine, which makes the paper's
            reported improvements unreachable (see DESIGN.md).
        burstiness: when set (> 1), arrivals come from a load-equivalent
            two-state MMPP with this burst/quiet rate ratio instead of a
            plain Poisson process (burstiness extension; the long-run rate
            is unchanged).
    """

    n_tasks: int = 50
    n_machines: int = 5
    heterogeneity: Heterogeneity = LOLO
    consistency: Consistency = Consistency.INCONSISTENT
    arrival_rate: float | None = None
    target_load: float = 1.2
    batch_arrivals: bool = False
    n_activities: int = 4
    min_toas: int = 1
    max_toas: int = 4
    cd_range: tuple[int, int] = (1, 4)
    rd_range: tuple[int, int] = (1, 4)
    clients_per_cd: int = 2
    otl_per_pair: bool = True
    ets_f_forces_max: bool = False
    burstiness: float | None = None

    def __post_init__(self) -> None:
        if self.n_tasks < 1:
            raise ConfigurationError("n_tasks must be >= 1")
        if self.n_machines < 1:
            raise ConfigurationError("n_machines must be >= 1")
        if self.arrival_rate is not None and self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if self.target_load <= 0:
            raise ConfigurationError("target_load must be positive")
        for lo, hi, name in (
            (*self.cd_range, "cd_range"),
            (*self.rd_range, "rd_range"),
        ):
            if not 1 <= lo <= hi:
                raise ConfigurationError(f"{name} must satisfy 1 <= low <= high")
        if self.clients_per_cd < 1:
            raise ConfigurationError("clients_per_cd must be >= 1")
        if not 1 <= self.min_toas <= self.max_toas:
            raise ConfigurationError("need 1 <= min_toas <= max_toas")
        if self.n_activities < 1:
            raise ConfigurationError("n_activities must be >= 1")
        if self.burstiness is not None and self.burstiness <= 1.0:
            raise ConfigurationError("burstiness must exceed 1 (or be None)")


@dataclass(frozen=True)
class Scenario:
    """A materialised experiment instance.

    Attributes:
        spec: the specification this instance was drawn from.
        seed: the root seed used.
        grid: the assembled Grid (domains, machines, trust table).
        eec: the ``(n_tasks, n_machines)`` expected-execution-cost matrix.
        requests: the request stream, sorted by arrival time.
    """

    spec: ScenarioSpec
    seed: int
    grid: Grid
    eec: np.ndarray
    requests: tuple[Request, ...]

    @property
    def arrival_rate(self) -> float | None:
        """The realised arrival rate (``None`` for batch arrivals)."""
        if self.spec.batch_arrivals:
            return None
        if self.spec.arrival_rate is not None:
            return self.spec.arrival_rate
        return _default_rate(self.spec)


def _default_rate(spec: ScenarioSpec) -> float:
    """Arrival rate offering ``target_load`` × aggregate service capacity.

    The schedulers pick cheap machines, so the relevant mean service time is
    not the EEC-matrix mean but the mean of the per-task *minimum* over
    machines.  For the range-based generator the per-entry machine factor is
    ``U(1, R)``; the expected minimum over ``m`` machines is
    ``1 + (R − 1)/(m + 1)``.  Including the ~1.5× security multiplier of the
    unaware deployment, the rate loading ``m`` machines at factor ``ρ`` is
    ``ρ · m / (1.5 · mean_task · E[min machine factor])``.
    """
    h = spec.heterogeneity
    mean_task = (1.0 + h.task_range) / 2.0
    mean_min_factor = 1.0 + (h.machine_range - 1.0) / (spec.n_machines + 1.0)
    mean_cost = 1.5 * mean_task * mean_min_factor
    return spec.target_load * spec.n_machines / mean_cost


def materialize(spec: ScenarioSpec, seed: int) -> Scenario:
    """Draw a concrete :class:`Scenario` from ``spec`` using ``seed``.

    Separate named random streams drive structure, trust attributes, the
    EEC matrix, arrivals and request composition, so changing e.g. only the
    arrival process leaves the EEC matrix untouched.
    """
    rng = RngFactory(seed=seed)
    structure = rng.stream("structure")
    trust = rng.stream("trust")
    eec_rng = rng.stream("eec")
    arrival_rng = rng.stream("arrivals")
    request_rng = rng.stream("requests")

    n_cd = int(structure.integers(spec.cd_range[0], spec.cd_range[1] + 1))
    n_rd = int(structure.integers(spec.rd_range[0], spec.rd_range[1] + 1))

    catalog = ActivityCatalog.default(spec.n_activities)
    builder = GridBuilder(catalog)

    # One GD per virtual domain keeps ownership explicit; RDs and CDs of the
    # same index intentionally do NOT share a GD (distributed ownership).
    cd_rtls = sample_required_levels(n_cd, trust)
    rd_rtls = sample_required_levels(n_rd, trust)
    rds = []
    for j in range(n_rd):
        gd = builder.grid_domain(f"site-r{j}")
        rds.append(builder.resource_domain(gd, required_level=int(rd_rtls[j])))
    cds = []
    for i in range(n_cd):
        gd = builder.grid_domain(f"site-c{i}")
        cds.append(builder.client_domain(gd, required_level=int(cd_rtls[i])))

    # Machines are spread over the RDs round-robin so every RD owns at least
    # one machine whenever n_machines >= n_rd.
    for m in range(spec.n_machines):
        builder.machine(rds[m % n_rd])
    for cd in cds:
        for _ in range(spec.clients_per_cd):
            builder.client(cd)

    grid = builder.build(ets=EtsTable(f_forces_max=spec.ets_f_forces_max))
    if spec.otl_per_pair:
        pair_levels = sample_offered_table(n_cd, n_rd, 1, trust)
        levels = np.broadcast_to(
            pair_levels, (n_cd, n_rd, spec.n_activities)
        ).copy()
    else:
        levels = sample_offered_table(n_cd, n_rd, spec.n_activities, trust)
    grid.trust_table.fill_from(levels)

    eec = range_based_matrix(
        spec.n_tasks,
        spec.n_machines,
        spec.heterogeneity,
        eec_rng,
        consistency=spec.consistency,
    )

    if spec.batch_arrivals:
        arrivals = BatchArrivalProcess(at=0.0)
    else:
        rate = spec.arrival_rate if spec.arrival_rate is not None else _default_rate(spec)
        if spec.burstiness is not None:
            from repro.sim.mmpp import MmppProcess

            arrivals = MmppProcess.load_equivalent(
                rate, arrival_rng, burstiness=spec.burstiness
            )
        else:
            arrivals = PoissonProcess(rate=rate, rng=arrival_rng)

    requests = generate_request_stream(
        grid,
        spec.n_tasks,
        arrivals,
        request_rng,
        min_toas=spec.min_toas,
        max_toas=spec.max_toas,
    )
    requests.sort(key=lambda r: (r.arrival_time, r.index))
    return Scenario(
        spec=spec, seed=seed, grid=grid, eec=eec, requests=tuple(requests)
    )
