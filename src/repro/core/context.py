"""Trust contexts.

Section 2 of the paper stresses that trust "applies only within a specific
context at a given time": an entity may be trusted to store data but not to
execute code.  A :class:`TrustContext` names such a context; in the Grid
model of Section 3 the contexts are the *types of activity* (ToAs) a resource
domain supports, but the trust engine itself is context-agnostic, so the
abstraction lives here in :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TrustContext", "EXECUTION", "STORAGE", "PRINTING", "DISPLAY", "DEFAULT_CONTEXTS"]


@dataclass(frozen=True, slots=True)
class TrustContext:
    """A named context within which trust statements are scoped.

    Identity (equality, hashing) is by ``name`` alone: two contexts with
    the same name denote the same scope regardless of how they were
    described at construction, so trust recorded under one is visible
    under the other.

    Attributes:
        name: unique human-readable identifier, e.g. ``"execute"``.
        description: optional prose description of the activity class
            (not part of the context's identity).
    """

    name: str
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("trust context name must be non-empty")

    def __hash__(self) -> int:
        # The name's own (cached) hash: contexts key every trust-table
        # lookup, and the generated hash would build a tuple per call.
        return hash(self.name)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


#: The example activity contexts the paper mentions in Section 3.1.
EXECUTION = TrustContext("execute", "executing programs on the resource")
STORAGE = TrustContext("store", "storing data on the resource")
PRINTING = TrustContext("print", "using printing services")
DISPLAY = TrustContext("display", "using display services")

DEFAULT_CONTEXTS: tuple[TrustContext, ...] = (EXECUTION, STORAGE, PRINTING, DISPLAY)
