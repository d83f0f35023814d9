"""Analysis utilities: theorem verification, parameter sweeps, and ablations
of the reproduction-critical design choices."""

from repro.analysis.ablation import (
    ablate_accounting,
    ablate_f_override,
    ablate_otl_granularity,
    ablate_tc_weight,
    ablate_unaware_fraction,
)
from repro.analysis.collusion import CollusionOutcome, run_collusion_study
from repro.analysis.gamma_weights import GammaWeightOutcome, ablate_gamma_weights
from repro.analysis.calibration import (
    aware_multiplier,
    improvement_cap,
    unaware_multiplier,
)
from repro.analysis.significance import PairedTestResult, paired_t_test
from repro.analysis.sweep import (
    SweepPoint,
    sweep_batch_interval,
    sweep_policy,
    sweep_scenario_field,
)
from repro.analysis.theorem import (
    DominanceReport,
    check_dominance,
    single_task_dominance_holds,
)

__all__ = [
    "ablate_accounting",
    "ablate_f_override",
    "ablate_otl_granularity",
    "ablate_tc_weight",
    "ablate_unaware_fraction",
    "CollusionOutcome",
    "GammaWeightOutcome",
    "ablate_gamma_weights",
    "run_collusion_study",
    "aware_multiplier",
    "unaware_multiplier",
    "improvement_cap",
    "PairedTestResult",
    "paired_t_test",
    "SweepPoint",
    "sweep_batch_interval",
    "sweep_policy",
    "sweep_scenario_field",
    "DominanceReport",
    "check_dominance",
    "single_task_dominance_holds",
]
