"""Observability subsystem: metrics, trace export, profiling.

The north-star system has to be *steerable*: you cannot make a hot path
measurably faster, or notice an instrumentation regression, without
measurement that is itself trustworthy.  ``repro.obs`` supplies that layer:

* :class:`MetricsRegistry` — counters and streaming histograms
  (p50/p95/p99 without sample retention) plus wall-clock timer contexts.
  A disabled registry hands out shared no-op instruments, matching the
  disabled-:class:`~repro.sim.trace.Tracer` discipline, so instrumentation
  is zero-cost when off — asserted by test, not by promise.
* Exporters — JSONL structured-trace dump, Chrome ``trace_event`` JSON for
  flame views, and a plain-text run report.
* :class:`ProfiledRun` — a context manager wrapping any experiment that
  emits a run manifest (config hash, seed, timings, metric snapshot).
* Trace lifecycle invariants — :func:`check_trace_lifecycle` verifies that
  every settled request follows arrival → assign → {complete | fail →
  retry | drop} in time order, the property the invariant tests pin down.

The hot layers (`sim.kernel`, `scheduling.scheduler`, `grid.session`,
`faults.injector`) accept an optional registry and stay silent without one.
"""

from repro.obs.export import (
    chrome_trace_events,
    render_run_report,
    trace_to_jsonl_lines,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.obs.invariants import LifecycleViolation, check_trace_lifecycle
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import ProfiledRun, config_hash

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "ProfiledRun",
    "config_hash",
    "trace_to_jsonl_lines",
    "write_trace_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "render_run_report",
    "LifecycleViolation",
    "check_trace_lifecycle",
]
