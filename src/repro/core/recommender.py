"""Recommender trust factors and alliances (the paper's ``R(z, y)``).

Reputation aggregates what third parties *say*; a colluding clique could
inflate each other's reputation.  The paper counters this with a
*recommender trust factor* ``R(z, y) ∈ [0, 1]`` that down-weights a
recommendation about ``y`` coming from ``z`` when the two are allied
("R ... will have a higher value if the recommender does not have an alliance
with the target entity"), and notes that R "is an internal knowledge that
each entity has and is learned based on actual outcomes".

:class:`AllianceRegistry` tracks declared alliances (symmetric, transitive
within a named alliance group); :class:`RecommenderWeights` resolves
``R(z, y)`` by combining the alliance discount with learned per-recommender
accuracy.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field

__all__ = ["AllianceRegistry", "RecommenderWeights"]

EntityId = Hashable


class AllianceRegistry:
    """Named groups of entities that are considered allied.

    Alliance membership is symmetric and shared: every pair of entities in
    the same group is allied.  An entity may belong to several groups.
    """

    def __init__(self) -> None:
        self._groups: dict[str, set[EntityId]] = {}
        # Inverted index entity -> group names; alliance checks sit on the
        # reputation hot path (one per recommender per Γ evaluation), so
        # membership must resolve without scanning every declared group.
        self._membership: dict[EntityId, set[str]] = {}
        self._epoch = 0
        # Write-ahead journal sink (see repro.core.journal); when set,
        # declare/dissolve append a framed delta after applying.
        self._journal = None

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter bumped by :meth:`declare`/:meth:`dissolve`."""
        return self._epoch

    def declare(self, name: str, members: Iterable[EntityId]) -> None:
        """Create or extend the alliance ``name`` with ``members``."""
        group = self._groups.setdefault(name, set())
        members = list(members)
        for member in members:
            group.add(member)
            self._membership.setdefault(member, set()).add(name)
        self._epoch += 1
        if self._journal is not None:
            self._journal.append(
                {"op": "declare", "g": name, "m": members, "e": self._epoch}
            )

    def dissolve(self, name: str) -> None:
        """Remove an alliance group entirely; raises ``KeyError`` if absent."""
        group = self._groups.pop(name)
        for member in group:
            names = self._membership[member]
            names.discard(name)
            if not names:
                del self._membership[member]
        self._epoch += 1
        if self._journal is not None:
            self._journal.append({"op": "dissolve", "g": name, "e": self._epoch})

    def allied(self, a: EntityId, b: EntityId) -> bool:
        """Whether ``a`` and ``b`` share at least one alliance group."""
        if a == b:
            return True
        ga = self._membership.get(a)
        if ga is None:
            return False
        gb = self._membership.get(b)
        if gb is None:
            return False
        return not ga.isdisjoint(gb)

    def allies_of(self, entity: EntityId) -> frozenset[EntityId]:
        """Every entity allied with ``entity`` (excluding itself)."""
        allies: set[EntityId] = set()
        for name in self._membership.get(entity, ()):
            allies.update(self._groups[name])
        allies.discard(entity)
        return frozenset(allies)

    def groups(self) -> frozenset[str]:
        """Names of all declared alliance groups."""
        return frozenset(self._groups)


@dataclass
class RecommenderWeights:
    """Resolve the recommender trust factor ``R(z, y)``.

    ``R`` combines two ingredients:

    * an *alliance discount*: if recommender ``z`` is allied with target
      ``y``, the recommendation is scaled by ``ally_weight`` (< 1);
    * a learned per-recommender *accuracy* in ``[0, 1]``, updated from
      observed outcomes via an exponential moving average — the paper's
      "learned based on actual outcomes".

    Attributes:
        alliances: the alliance registry consulted for the discount.
        ally_weight: multiplier applied when recommender and target are
            allied; must be in ``[0, 1]``.
        default_accuracy: accuracy assumed for recommenders never evaluated.
        learning_rate: EMA step used by :meth:`observe_outcome`.
    """

    alliances: AllianceRegistry = field(default_factory=AllianceRegistry)
    ally_weight: float = 0.5
    default_accuracy: float = 1.0
    learning_rate: float = 0.1
    _accuracy: dict[EntityId, float] = field(default_factory=dict, repr=False)
    _epoch: int = field(default=0, repr=False, compare=False)
    # Write-ahead journal sink (see repro.core.journal); when set,
    # observe_outcome appends a framed delta after applying.
    _journal: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.ally_weight <= 1.0:
            raise ValueError("ally_weight must lie in [0, 1]")
        if not 0.0 <= self.default_accuracy <= 1.0:
            raise ValueError("default_accuracy must lie in [0, 1]")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")

    def factor(self, recommender: EntityId, target: EntityId) -> float:
        """Return ``R(recommender, target)`` in ``[0, 1]``."""
        r = self._accuracy.get(recommender, self.default_accuracy)
        alliances = self.alliances
        # Membership is looked up only once some alliance exists; an entity
        # is allied with itself either way.
        if recommender == target or (
            alliances._membership and alliances.allied(recommender, target)
        ):
            r *= self.ally_weight
        return r

    def accuracy(self, recommender: EntityId) -> float:
        """Current learned accuracy of ``recommender``."""
        return self._accuracy.get(recommender, self.default_accuracy)

    def observe_outcome(
        self, recommender: EntityId, predicted: float, actual: float
    ) -> float:
        """Fold one observed outcome into the recommender's accuracy.

        Args:
            recommender: the entity whose recommendation is being scored.
            predicted: the trust value the recommender reported, in [0, 1].
            actual: the trust value the transaction outcome supported.

        Returns:
            The updated accuracy.
        """
        for name, v in (("predicted", predicted), ("actual", actual)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        sample = 1.0 - abs(predicted - actual)
        old = self._accuracy.get(recommender, self.default_accuracy)
        new = (1.0 - self.learning_rate) * old + self.learning_rate * sample
        self._accuracy[recommender] = new
        self._epoch += 1
        if self._journal is not None:
            self._journal.append(
                {
                    "op": "observe",
                    "z": recommender,
                    "p": predicted,
                    "a": actual,
                    "e": self._epoch,
                }
            )
        return new
