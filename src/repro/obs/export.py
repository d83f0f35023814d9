"""Trace and metric exporters: JSONL, Chrome ``trace_event``, text report.

Three views of the same run:

* **JSONL** — one :class:`~repro.sim.trace.TraceEntry` per line, the
  machine-readable structured trace (stable field order, so fixed-seed
  runs golden-test cleanly).
* **Chrome trace** — the ``trace_event`` format consumed by
  ``chrome://tracing`` / Perfetto: request lifecycles become duration
  events on per-machine tracks, everything else becomes instants.
* **Text report** — a human-readable summary of a run manifest, rendered
  with the shared :class:`~repro.metrics.report.Table`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any

from repro.sim.trace import TraceEntry

__all__ = [
    "trace_to_jsonl_lines",
    "write_trace_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "render_run_report",
]

#: Simulation seconds → trace_event microseconds.
_US = 1_000_000.0


def trace_to_jsonl_lines(entries: Iterable[TraceEntry]) -> Iterator[str]:
    """Serialise trace entries to JSON lines (``{"t", "kind", ...detail}``).

    Field order is fixed (time, kind, then detail keys in emission order)
    so equal traces serialise to equal bytes.
    """
    for entry in entries:
        yield json.dumps(
            {"t": entry.time, "kind": entry.kind, **entry.detail},
            separators=(",", ":"),
        )


def write_trace_jsonl(entries: Iterable[TraceEntry], path: str | Path) -> Path:
    """Write one JSON object per trace entry to ``path``; returns the path."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for line in trace_to_jsonl_lines(entries):
            fh.write(line + "\n")
    return path


def chrome_trace_events(
    entries: Iterable[TraceEntry],
    *,
    pid: int = 1,
) -> list[dict[str, Any]]:
    """Convert trace entries into Chrome ``trace_event`` dicts.

    ``assign`` entries (which carry a ``completion`` time) become complete
    duration events (``ph: "X"``) on the track of their machine, so a flame
    view shows per-machine occupancy; every other kind becomes an instant
    (``ph: "i"``).  All events carry the required keys ``name``, ``ph``,
    ``ts``, ``pid`` and ``tid``; timestamps are simulation time in
    microseconds (deterministic for a fixed seed).
    """
    events: list[dict[str, Any]] = []
    for entry in entries:
        detail = entry.detail
        if entry.kind == "assign" and "completion" in detail:
            machine = detail.get("machine", 0)
            events.append(
                {
                    "name": f"request {detail.get('request', '?')}",
                    "cat": "assign",
                    "ph": "X",
                    "ts": entry.time * _US,
                    "dur": max(0.0, (detail["completion"] - entry.time) * _US),
                    "pid": pid,
                    "tid": machine + 1,
                    "args": dict(detail),
                }
            )
        else:
            events.append(
                {
                    "name": entry.kind,
                    "cat": entry.kind,
                    "ph": "i",
                    "ts": entry.time * _US,
                    "pid": pid,
                    "tid": 0,
                    "s": "g",
                    "args": dict(detail),
                }
            )
    return events


def write_chrome_trace(
    entries: Iterable[TraceEntry],
    path: str | Path,
    *,
    metadata: dict[str, Any] | None = None,
) -> Path:
    """Write a Chrome-loadable ``{"traceEvents": [...]}`` JSON file."""
    path = Path(path)
    document: dict[str, Any] = {"traceEvents": chrome_trace_events(entries)}
    if metadata:
        document["otherData"] = metadata
    path.write_text(json.dumps(document, separators=(",", ":")), encoding="utf-8")
    return path


def render_run_report(manifest: dict[str, Any]) -> str:
    """Render a run manifest as a plain-text report.

    Accepts the dict produced by
    :meth:`~repro.obs.profile.ProfiledRun.manifest`.
    """
    from repro.metrics.report import Table

    lines = [
        f"run: {manifest.get('name', '?')}",
        f"seed: {manifest.get('seed')}   config hash: "
        f"{manifest.get('config_hash', '')[:12]}",
        f"wall time: {manifest.get('wall_time_s', 0.0):.3f} s",
    ]
    trace = manifest.get("trace") or {}
    if trace:
        lines.append(
            f"trace: {trace.get('entries', 0)} entries "
            f"({trace.get('dropped', 0)} dropped)"
        )
    metrics = manifest.get("metrics") or {}
    if metrics:
        table = Table(
            headers=["Metric", "Type", "Value", "p50", "p95", "p99"],
            title="Metrics:",
        )
        for name, data in metrics.items():
            if data["type"] == "counter":
                table.add_row(name, "counter", data["value"], "", "", "")
            else:
                table.add_row(
                    name, "histogram",
                    f"n={data['count']} mean={data['mean']:.3g}",
                    f"{data['p50']:.3g}", f"{data['p95']:.3g}",
                    f"{data['p99']:.3g}",
                )
        lines += ["", table.render()]
    results = manifest.get("results") or {}
    if results:
        lines.append("")
        for key, value in results.items():
            lines.append(f"{key}: {value:g}" if isinstance(value, float) else f"{key}: {value}")
    return "\n".join(lines)
