"""Simulation tracing.

A lightweight structured trace: simulation components emit
:class:`TraceEntry` records through a :class:`Tracer`, and tests / tools can
filter and assert on them.  Tracing is off by default (a disabled tracer
drops entries with near-zero overhead), following the guides' advice to keep
the hot path lean.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

__all__ = ["TraceEntry", "Tracer"]


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One traced occurrence.

    Attributes:
        time: simulation time of the occurrence.
        kind: short machine-readable tag, e.g. ``"assign"`` or ``"arrival"``.
        detail: free-form payload (kept small; avoid large arrays).
    """

    time: float
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects :class:`TraceEntry` records when enabled.

    Args:
        enabled: whether :meth:`emit` actually records anything.

    Attributes:
        dropped: entries discarded rather than retained; every entry is
            retained, so it reads 0 (profile exports report it).
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: list[TraceEntry] = []
        self.dropped = 0

    def emit(self, time: float, kind: str, **detail: Any) -> None:
        """Record one entry (no-op when disabled)."""
        if not self.enabled:
            return
        self._entries.append(TraceEntry(time=time, kind=kind, detail=detail))

    def entries(self, kind: str | None = None) -> list[TraceEntry]:
        """All retained entries, optionally filtered by ``kind``."""
        if kind is None:
            return list(self._entries)
        return [e for e in self._entries if e.kind == kind]

    def clear(self) -> None:
        """Discard all retained entries."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self._entries)

    @classmethod
    def disabled(cls) -> "Tracer":
        """A tracer that records nothing (the default for production runs)."""
        return cls(enabled=False)
