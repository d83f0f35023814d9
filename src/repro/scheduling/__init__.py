"""Trust-aware resource management algorithms (paper Section 4): the MCT /
Min-min / Sufferage heuristics and the [10] baselines, the trust policy and
cost model, and the event-driven TRM scheduler."""

from repro.scheduling.base import BatchHeuristic, ImmediateHeuristic, PlannedAssignment
from repro.scheduling.constraints import InfeasiblePolicy, TrustConstraint
from repro.scheduling.costs import DEFAULT_CHUNK_TASKS, CostProvider
from repro.scheduling.duplex import DuplexHeuristic
from repro.scheduling.esc_models import EscModel, LadderEsc, LinearEsc, TableEsc
from repro.scheduling.fast import (
    FastMaxMinHeuristic,
    FastMinMinHeuristic,
    FastSufferageHeuristic,
)
from repro.scheduling.kpb import KpbHeuristic, kpb_subset_size
from repro.scheduling.maxmin import MaxMinHeuristic
from repro.scheduling.mct import MctHeuristic
from repro.scheduling.met import MetHeuristic
from repro.scheduling.minmin import MinMinHeuristic
from repro.scheduling.olb import OlbHeuristic
from repro.scheduling.policy import (
    TRUST_WEIGHT,
    UNAWARE_FRACTION,
    SecurityAccounting,
    TrustPolicy,
)
from repro.scheduling.registry import (
    batch_names,
    heuristic_names,
    immediate_names,
    is_batch,
    make_heuristic,
    reference_names,
    register_heuristic,
)
from repro.scheduling.engine import SchedulingEngine
from repro.scheduling.result import CompletionRecord, ScheduleResult
from repro.scheduling.sa import SwitchingHeuristic
from repro.scheduling.scheduler import TRMScheduler
from repro.scheduling.sufferage import SufferageHeuristic

__all__ = [
    "BatchHeuristic",
    "ImmediateHeuristic",
    "PlannedAssignment",
    "CostProvider",
    "DEFAULT_CHUNK_TASKS",
    "TrustConstraint",
    "InfeasiblePolicy",
    "DuplexHeuristic",
    "EscModel",
    "LinearEsc",
    "LadderEsc",
    "TableEsc",
    "FastMaxMinHeuristic",
    "FastMinMinHeuristic",
    "FastSufferageHeuristic",
    "KpbHeuristic",
    "kpb_subset_size",
    "MaxMinHeuristic",
    "MctHeuristic",
    "MetHeuristic",
    "MinMinHeuristic",
    "OlbHeuristic",
    "SufferageHeuristic",
    "SwitchingHeuristic",
    "SecurityAccounting",
    "TrustPolicy",
    "TRUST_WEIGHT",
    "UNAWARE_FRACTION",
    "make_heuristic",
    "register_heuristic",
    "heuristic_names",
    "reference_names",
    "immediate_names",
    "batch_names",
    "is_batch",
    "CompletionRecord",
    "ScheduleResult",
    "SchedulingEngine",
    "TRMScheduler",
]
