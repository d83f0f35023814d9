"""Experiment harness: frozen paper configuration, the paired-replication
runner, and regeneration of every table and figure."""

from repro.experiments.config import (
    PAPER_BATCH_INTERVAL,
    PAPER_REPLICATIONS,
    PAPER_TARGET_LOAD,
    PAPER_TASK_COUNTS,
    PAPER_UNAWARE_FRACTION,
    SCHEDULING_TABLES,
    TableConfig,
    paper_policies,
    paper_spec,
    table_config,
)
from repro.experiments.faulttol import (
    FaultPolicyOutcome,
    FaultRecoveryStudy,
    run_fault_recovery,
)
from repro.experiments.trustfaults import (
    TrustFaultArmOutcome,
    TrustFaultStudy,
    run_trustfault_study,
    write_study_artifact,
)
from repro.experiments.figures import Figure1, reproduce_figure1
from repro.experiments.report import (
    ReproductionReport,
    generate_report,
    write_report,
)
from repro.experiments.parallel import run_paired_cell_parallel
from repro.experiments.runner import CellResult, run_paired_cell, run_single
from repro.experiments.series import (
    Series,
    SeriesPoint,
    ascii_chart,
    improvement_vs_batch_interval,
    improvement_vs_load,
    improvement_vs_machines,
)
from repro.experiments.validation import CheckResult, validate_reproduction
from repro.experiments.tables import (
    TableReproduction,
    TRANSFER_FILE_SIZES_MB,
    reproduce_scheduling_table,
    reproduce_sfi_overheads,
    reproduce_table1,
    reproduce_table2,
    reproduce_table3,
)

__all__ = [
    "PAPER_BATCH_INTERVAL",
    "PAPER_REPLICATIONS",
    "PAPER_TARGET_LOAD",
    "PAPER_TASK_COUNTS",
    "PAPER_UNAWARE_FRACTION",
    "SCHEDULING_TABLES",
    "TableConfig",
    "paper_policies",
    "paper_spec",
    "table_config",
    "FaultPolicyOutcome",
    "FaultRecoveryStudy",
    "run_fault_recovery",
    "TrustFaultArmOutcome",
    "TrustFaultStudy",
    "run_trustfault_study",
    "write_study_artifact",
    "Figure1",
    "reproduce_figure1",
    "CellResult",
    "run_paired_cell",
    "run_paired_cell_parallel",
    "run_single",
    "ReproductionReport",
    "generate_report",
    "write_report",
    "CheckResult",
    "validate_reproduction",
    "Series",
    "SeriesPoint",
    "ascii_chart",
    "improvement_vs_load",
    "improvement_vs_machines",
    "improvement_vs_batch_interval",
    "TableReproduction",
    "TRANSFER_FILE_SIZES_MB",
    "reproduce_scheduling_table",
    "reproduce_sfi_overheads",
    "reproduce_table1",
    "reproduce_table2",
    "reproduce_table3",
]
