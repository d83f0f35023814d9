"""Profiled runs: wrap any experiment, emit a run manifest + artifacts.

:class:`ProfiledRun` bundles the observability plumbing one experiment
needs — an enabled :class:`~repro.obs.metrics.MetricsRegistry`, an enabled
:class:`~repro.sim.trace.Tracer`, a wall clock — and on exit produces a
**run manifest**: a JSON-serialisable record of what ran (config + hash +
seed), how long it took, and what the metrics saw.  The manifest plus the
JSONL and Chrome trace dumps make a run reproducible and diffable:
identical (config, seed) pairs hash identically, so regressions in either
behaviour or instrumentation show up as manifest diffs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.obs.export import render_run_report, write_chrome_trace, write_trace_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.sim.trace import Tracer

__all__ = ["ProfiledRun", "config_hash", "MANIFEST_SCHEMA"]

#: Version tag stamped into every manifest; bump on breaking layout change.
MANIFEST_SCHEMA = "repro.obs/manifest-v1"


def _jsonable(value: Any) -> Any:
    """Coerce ``value`` into something canonically JSON-serialisable."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "value") and isinstance(getattr(value, "value"), (str, int)):
        return value.value  # enums
    return repr(value)


def config_hash(config: Any) -> str:
    """Deterministic SHA-256 over a canonical JSON view of ``config``.

    Accepts dataclasses (e.g. :class:`~repro.workloads.scenario.ScenarioSpec`),
    dicts, or any nesting thereof; non-JSON leaves fall back to ``repr``.
    Equal configs hash equally across processes and platforms.
    """
    canonical = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ProfiledRun:
    """Context manager instrumenting one experiment end to end.

    Args:
        name: short label of the run (appears in the manifest and report).
        config: the run's configuration — a dataclass or dict; hashed into
            the manifest so runs are identity-checkable.
        seed: the run's root seed.

    Usage::

        with ProfiledRun(name="table6", config=spec, seed=3) as prof:
            result = TRMScheduler(
                ..., tracer=prof.tracer, metrics=prof.metrics
            ).run(requests)
            prof.record_result(result)
        prof.write_artifacts("profile-out/")

    Attributes:
        metrics: the enabled registry to pass into instrumented layers.
        tracer: the enabled tracer to pass into the scheduler.
    """

    def __init__(
        self,
        *,
        name: str,
        config: Any = None,
        seed: int | None = None,
    ) -> None:
        self.name = name
        self.config = config
        self.seed = seed
        self.metrics = MetricsRegistry(enabled=True)
        self.tracer = Tracer(enabled=True)
        self._started: float | None = None
        self._wall_time: float | None = None
        self._results: dict[str, Any] = {}

    # -- context protocol ----------------------------------------------------

    def __enter__(self) -> "ProfiledRun":
        if self._started is not None:
            raise ConfigurationError("a ProfiledRun cannot be entered twice")
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._started is not None
        self._wall_time = time.perf_counter() - self._started

    # -- recording -----------------------------------------------------------

    def record_result(self, result: Any) -> None:
        """Fold an experiment outcome into the manifest's results section.

        Knows :class:`~repro.scheduling.result.ScheduleResult` (summarised
        to its headline metrics); any dict is merged verbatim; anything
        else is stored under its class name.
        """
        from repro.scheduling.result import ScheduleResult

        if isinstance(result, ScheduleResult):
            self._results.update(
                {
                    "heuristic": result.heuristic,
                    "policy": result.policy_label,
                    "completed": result.n_completed,
                    "rejected": result.n_rejected,
                    "dropped": result.n_dropped,
                    "failures": len(result.failures),
                    "makespan": result.makespan,
                    "average_completion_time": result.average_completion_time,
                    "machine_utilization": result.machine_utilization,
                }
            )
        elif isinstance(result, dict):
            self._results.update(result)
        else:
            self._results[type(result).__name__] = repr(result)

    # -- output --------------------------------------------------------------

    @property
    def wall_time_s(self) -> float:
        """Wall-clock duration of the ``with`` block (0 before exit)."""
        return self._wall_time if self._wall_time is not None else 0.0

    def manifest(self) -> dict[str, Any]:
        """The run manifest (see :data:`MANIFEST_SCHEMA` for the version).

        Keys: ``schema``, ``name``, ``seed``, ``config``, ``config_hash``,
        ``wall_time_s``, ``metrics``, ``trace``, ``results``.  Everything
        except ``wall_time_s`` is deterministic for a fixed (config, seed).
        """
        return {
            "schema": MANIFEST_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "config": _jsonable(self.config),
            "config_hash": config_hash(self.config),
            "wall_time_s": self.wall_time_s,
            "metrics": self.metrics.snapshot(),
            "trace": {"entries": len(self.tracer), "dropped": self.tracer.dropped},
            "results": dict(self._results),
        }

    def report(self) -> str:
        """Human-readable summary of the manifest."""
        return render_run_report(self.manifest())

    def write_artifacts(self, directory: str | Path) -> dict[str, Path]:
        """Write manifest + JSONL trace + Chrome trace + report.

        Returns:
            Mapping of artifact kind to written path (``manifest``,
            ``trace_jsonl``, ``chrome_trace``, ``report``).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = self.manifest()
        paths = {
            "manifest": directory / "manifest.json",
            "trace_jsonl": directory / "trace.jsonl",
            "chrome_trace": directory / "trace.chrome.json",
            "report": directory / "report.txt",
        }
        paths["manifest"].write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        write_trace_jsonl(self.tracer, paths["trace_jsonl"])
        write_chrome_trace(
            self.tracer,
            paths["chrome_trace"],
            metadata={"name": self.name, "config_hash": manifest["config_hash"]},
        )
        paths["report"].write_text(self.report() + "\n", encoding="utf-8")
        return paths
