"""Heuristic registry: name → factory.

Lets experiment configs, the CLI and tests construct heuristics from their
short names.  Factories (rather than instances) are registered because some
heuristics carry per-run state (e.g. the switching algorithm's mode flag).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.scheduling.base import BatchHeuristic, ImmediateHeuristic
from repro.scheduling.duplex import DuplexHeuristic
from repro.scheduling.kpb import KpbHeuristic
from repro.scheduling.maxmin import MaxMinHeuristic
from repro.scheduling.mct import MctHeuristic
from repro.scheduling.met import MetHeuristic
from repro.scheduling.minmin import MinMinHeuristic
from repro.scheduling.olb import OlbHeuristic
from repro.scheduling.sa import SwitchingHeuristic
from repro.scheduling.sufferage import SufferageHeuristic

__all__ = [
    "make_heuristic",
    "heuristic_names",
    "register_heuristic",
    "is_batch",
]

HeuristicFactory = Callable[[], ImmediateHeuristic | BatchHeuristic]

_REGISTRY: dict[str, HeuristicFactory] = {
    "mct": MctHeuristic,
    "met": MetHeuristic,
    "olb": OlbHeuristic,
    "kpb": KpbHeuristic,
    "sa": SwitchingHeuristic,
    "min-min": MinMinHeuristic,
    "max-min": MaxMinHeuristic,
    "sufferage": SufferageHeuristic,
    "duplex": DuplexHeuristic,
}


def register_heuristic(name: str, factory: HeuristicFactory) -> None:
    """Register a custom heuristic factory under ``name``.

    Raises:
        ConfigurationError: if the name is already taken.
    """
    key = name.strip().lower()
    if key in _REGISTRY:
        raise ConfigurationError(f"heuristic {name!r} is already registered")
    _REGISTRY[key] = factory


def make_heuristic(name: str) -> ImmediateHeuristic | BatchHeuristic:
    """Instantiate the heuristic registered under ``name``.

    Raises:
        ConfigurationError: for unknown names (listing the valid ones).
    """
    key = name.strip().lower()
    factory = _REGISTRY.get(key)
    if factory is None:
        valid = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown heuristic {name!r}; expected one of: {valid}")
    return factory()


def heuristic_names() -> tuple[str, ...]:
    """All registered heuristic names, sorted."""
    return tuple(sorted(_REGISTRY))


def is_batch(name: str) -> bool:
    """Whether the named heuristic is batch-mode."""
    return isinstance(make_heuristic(name), BatchHeuristic)
