"""Metrics and reporting: schedule metrics, trust-aware vs trust-unaware
improvement computation, and paper-style table rendering."""

from repro.metrics.improvement import PairedComparison, improvement_fraction
from repro.metrics.report import Table, format_percent, format_seconds
from repro.metrics.schedule import (
    average_completion_time,
    domain_fairness,
    effective_makespan,
    goodput,
    jain_fairness,
    average_flow_time,
    makespan,
    wasted_work,
    wasted_work_fraction,
)

__all__ = [
    "PairedComparison",
    "improvement_fraction",
    "Table",
    "format_percent",
    "format_seconds",
    "average_completion_time",
    "jain_fairness",
    "domain_fairness",
    "average_flow_time",
    "makespan",
    "effective_makespan",
    "goodput",
    "wasted_work",
    "wasted_work_fraction",
]
