"""Experiment configurations for the paper's tables.

One place holds every reproduction-critical constant, so DESIGN.md,
the benchmarks and the CLI all agree.  The calibration choices (and why
they depart from a purely literal reading of the paper where they do) are
documented in DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.scheduling.policy import SecurityAccounting, TrustPolicy
from repro.workloads.consistency import Consistency
from repro.workloads.scenario import ScenarioSpec

__all__ = [
    "PAPER_TARGET_LOAD",
    "PAPER_BATCH_INTERVAL",
    "PAPER_UNAWARE_FRACTION",
    "PAPER_REPLICATIONS",
    "PAPER_TASK_COUNTS",
    "TableConfig",
    "SCHEDULING_TABLES",
    "table_config",
    "paper_spec",
    "paper_policies",
]

#: Offered load multiple driving the machines into the paper's >90 %
#: utilisation regime (arrivals are Poisson; the schedulers pick cheap
#: machines, so saturation needs a load multiple well above 1).
PAPER_TARGET_LOAD = 4.5
#: Meta-request formation period for the batch heuristics.
PAPER_BATCH_INTERVAL = 600.0
#: Blanket security surcharge paid by the trust-unaware deployment.  The
#: paper's formula says 50 %; its *results* are only reachable when blanket
#: security costs what the worst-case supplement costs (TC_MAX × 15 % =
#: 90 %).  See DESIGN.md §2; the 50 % reading is covered by an ablation.
PAPER_UNAWARE_FRACTION = 0.9
#: Replications averaged per table cell.
PAPER_REPLICATIONS = 30
#: The two task counts every scheduling table reports.
PAPER_TASK_COUNTS = (50, 100)


@dataclass(frozen=True)
class TableConfig:
    """Configuration of one scheduling table (Tables 4–9).

    Attributes:
        table_number: the paper's table number.
        heuristic: registry name of the mapping heuristic.
        consistency: EEC consistency class.
        paper_improvements: the paper's reported improvement per task count
            (for side-by-side display in reports).
    """

    table_number: int
    heuristic: str
    consistency: Consistency
    paper_improvements: dict[int, float] = field(default_factory=dict)

    @property
    def title(self) -> str:
        """Paper-style caption."""
        return (
            f"Table {self.table_number}. Average completion time, "
            f"{self.consistency.value} LoLo heterogeneity, "
            f"{self.heuristic} heuristic."
        )


SCHEDULING_TABLES: dict[int, TableConfig] = {
    4: TableConfig(4, "mct", Consistency.INCONSISTENT, {50: 0.3699, 100: 0.3759}),
    5: TableConfig(5, "mct", Consistency.CONSISTENT, {50: 0.3444, 100: 0.3426}),
    6: TableConfig(6, "min-min", Consistency.INCONSISTENT, {50: 0.2351, 100: 0.2334}),
    7: TableConfig(7, "min-min", Consistency.CONSISTENT, {50: 0.2528, 100: 0.2532}),
    8: TableConfig(8, "sufferage", Consistency.INCONSISTENT, {50: 0.3966, 100: 0.3840}),
    9: TableConfig(9, "sufferage", Consistency.CONSISTENT, {50: 0.3267, 100: 0.3319}),
}


def table_config(number: int) -> TableConfig:
    """The configuration of scheduling table ``number`` (4–9).

    Raises:
        ConfigurationError: for a number with no scheduling table, naming
            the number and the valid ones.
    """
    try:
        return SCHEDULING_TABLES[number]
    except KeyError:
        valid = ", ".join(str(k) for k in sorted(SCHEDULING_TABLES))
        raise ConfigurationError(
            f"no scheduling table {number!r}; expected one of {valid}"
        ) from None


def paper_spec(
    n_tasks: int,
    consistency: Consistency,
    **overrides,
) -> ScenarioSpec:
    """The Section-5.3 scenario spec with the frozen calibration."""
    base = dict(
        n_tasks=n_tasks,
        n_machines=5,
        consistency=consistency,
        target_load=PAPER_TARGET_LOAD,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def paper_policies(
    *,
    accounting: SecurityAccounting = SecurityAccounting.CONSERVATIVE_FLAT,
    unaware_fraction: float = PAPER_UNAWARE_FRACTION,
) -> tuple[TrustPolicy, TrustPolicy]:
    """The (aware, unaware) policy pair used by the table reproductions."""
    return (
        TrustPolicy(True, accounting=accounting, unaware_fraction=unaware_fraction),
        TrustPolicy(False, accounting=accounting, unaware_fraction=unaware_fraction),
    )
