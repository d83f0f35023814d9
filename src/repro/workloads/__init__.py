"""Workload generation: heterogeneous EEC matrices, trust-attribute sampling,
request streams and whole-experiment scenario materialisation."""

from repro.workloads.consistency import Consistency, apply_consistency
from repro.workloads.eec import range_based_matrix
from repro.workloads.heterogeneity import BY_NAME, HIHI, HILO, LOHI, LOLO, Heterogeneity
from repro.workloads.requests import build_requests, generate_request_stream
from repro.workloads.scenario import Scenario, ScenarioSpec, materialize
from repro.workloads.serialization import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.workloads.trustgen import (
    sample_activity_sets,
    sample_offered_table,
    sample_required_levels,
)

__all__ = [
    "Consistency",
    "apply_consistency",
    "range_based_matrix",
    "Heterogeneity",
    "LOLO",
    "LOHI",
    "HILO",
    "HIHI",
    "BY_NAME",
    "build_requests",
    "generate_request_stream",
    "Scenario",
    "ScenarioSpec",
    "materialize",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
    "sample_activity_sets",
    "sample_offered_table",
    "sample_required_levels",
]
