"""Types of activity (ToAs) and activity sets.

Section 3.1: a resource domain advertises a set of *types of activity* it
supports (printing, storing data, executing programs, ...), each with its own
trust level; a client's request names the ToAs it wants to engage in.  A
request's ToA set is *atomic* (one activity) or *composed* (several).

Each :class:`ActivityType` carries a dense integer ``index`` so trust-level
tables can be stored as NumPy arrays, plus a bridge to the generic
:class:`~repro.core.context.TrustContext` of the Section-2 trust engine.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.core.context import TrustContext
from repro.errors import ConfigurationError

__all__ = ["ActivityType", "ActivityCatalog", "ActivitySet"]


@dataclass(frozen=True, slots=True)
class ActivityType:
    """One type of activity a Grid resource can host.

    Attributes:
        index: dense, catalog-local integer index (row into TL tables).
        name: human-readable name, unique within a catalog.
    """

    index: int
    name: str
    #: The equivalent :class:`TrustContext` for the Section-2 engine, built
    #: once here: the trust loop reads it on every observed transaction.
    context: TrustContext = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError(
                f"activity index must be non-negative, got {self.index!r}"
            )
        if not self.name:
            raise ConfigurationError(
                f"activity name must be non-empty, got {self.name!r}"
            )
        object.__setattr__(self, "context", TrustContext(self.name))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class ActivityCatalog:
    """Ordered registry of the activity types available in a Grid.

    Indices are assigned densely in registration order, which is what lets
    trust-level tables use plain array indexing.
    """

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._activities: list[ActivityType] = []
        self._by_name: dict[str, ActivityType] = {}
        for name in names:
            self.register(name)

    def register(self, name: str) -> ActivityType:
        """Add an activity type; returns the existing one if already present."""
        existing = self._by_name.get(name)
        if existing is not None:
            return existing
        activity = ActivityType(index=len(self._activities), name=name)
        self._activities.append(activity)
        self._by_name[name] = activity
        return activity

    def by_index(self, index: int) -> ActivityType:
        """Look up an activity by dense index; raises ``IndexError`` if out of range."""
        return self._activities[index]

    def __len__(self) -> int:
        return len(self._activities)

    def __iter__(self) -> Iterator[ActivityType]:
        return iter(self._activities)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @classmethod
    def default(cls, n_activities: int = 4) -> "ActivityCatalog":
        """A catalog of ``n_activities`` generic ToAs (``toa-0`` .. ``toa-k``).

        The paper's simulations draw the number of ToAs per request from
        ``[1, 4]``, so four generic activities is the canonical setup.
        """
        if n_activities < 1:
            raise ConfigurationError(
                f"n_activities must be >= 1, got {n_activities!r}"
            )
        return cls(f"toa-{i}" for i in range(n_activities))


@dataclass(frozen=True)
class ActivitySet:
    """The (atomic or composed) set of ToAs one request engages in.

    Attributes:
        activities: the member activity types; at least one, no duplicates.
    """

    activities: tuple[ActivityType, ...]
    #: The member indices in ascending order, built once here: with the
    #: client domain it forms the set's trust-cost pricing key, read for
    #: every request a window prices.
    sorted_indices: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.activities:
            raise ConfigurationError(
                f"activities must hold at least one ToA, got {self.activities!r}"
            )
        indices = {a.index for a in self.activities}
        if len(indices) != len(self.activities):
            raise ConfigurationError(
                "activities must not repeat a ToA, got indices "
                f"{[a.index for a in self.activities]}"
            )
        object.__setattr__(self, "sorted_indices", tuple(sorted(indices)))

    def __getstate__(self) -> dict:
        # Pickle the field only; the sorted indices are derived from it.
        return {"activities": self.activities}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "activities", state["activities"])
        self.__post_init__()

    @classmethod
    def of(cls, activities: Sequence[ActivityType] | ActivityType) -> "ActivitySet":
        """Build from a single activity or a sequence of them."""
        if isinstance(activities, ActivityType):
            return cls((activities,))
        return cls(tuple(activities))

    @property
    def indices(self) -> tuple[int, ...]:
        """Dense catalog indices of the member activities."""
        return tuple(a.index for a in self.activities)

    def __len__(self) -> int:
        return len(self.activities)

    def __iter__(self) -> Iterator[ActivityType]:
        return iter(self.activities)
