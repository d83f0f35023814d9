"""Per-request security planning.

The scheduling model compresses security into one scalar (the ESC); this
module provides the micro-level view underneath it: given a request's
activity set and the trust cost of the chosen pairing, produce the concrete
:class:`SecurityPlan` — which mechanisms are engaged for which activity,
and what each contributes to the total overhead.

The plan makes the ESC auditable ("why is this task paying 37 %?") and
gives the examples and docs something concrete to show for the paper's
claim that trust-awareness "eliminat[es] redundant application of secure
operations".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ets import TC_MAX, TC_MIN
from repro.errors import ConfigurationError
from repro.grid.activities import ActivitySet
from repro.security.overhead import DEFAULT_LADDER, Mechanism, SupplementLadder

__all__ = ["ActivityPlan", "SecurityPlan", "plan_supplement"]


@dataclass(frozen=True)
class ActivityPlan:
    """Mechanisms engaged for one activity of the request.

    Attributes:
        activity_name: the ToA this plan covers.
        mechanisms: engaged mechanisms, in ladder order.
    """

    activity_name: str
    mechanisms: tuple[Mechanism, ...]

    @property
    def overhead_fraction(self) -> float:
        """Summed overhead contribution of this activity's mechanisms."""
        return sum(m.overhead_fraction for m in self.mechanisms)


@dataclass(frozen=True)
class SecurityPlan:
    """The full supplemental-security plan for one request/machine pairing.

    Attributes:
        trust_cost: the TC the plan supplements (0 = fully trusted, no
            mechanisms engaged).
        activities: per-activity mechanism assignments.
    """

    trust_cost: int
    activities: tuple[ActivityPlan, ...]

    @property
    def overhead_fraction(self) -> float:
        """Total overhead fraction — equals the ladder's overhead at TC."""
        return sum(a.overhead_fraction for a in self.activities)

    @property
    def is_trivial(self) -> bool:
        """True when no supplemental security is needed (TC = 0)."""
        return self.trust_cost == 0

    def describe(self) -> str:
        """Human-readable multi-line description of the plan."""
        if self.is_trivial:
            return "trust cost 0: no supplemental security required"
        lines = [f"trust cost {self.trust_cost}: supplemental security plan"]
        for plan in self.activities:
            if not plan.mechanisms:
                lines.append(f"  {plan.activity_name}: (covered by shared mechanisms)")
                continue
            for m in plan.mechanisms:
                lines.append(
                    f"  {plan.activity_name}: {m.name} (+{m.overhead_fraction:.0%})"
                )
        lines.append(f"  total overhead: {self.overhead_fraction:.0%} of execution cost")
        return "\n".join(lines)


def plan_supplement(
    activities: ActivitySet,
    trust_cost: int,
    *,
    ladder: SupplementLadder | None = None,
) -> SecurityPlan:
    """Build the mechanism plan supplementing ``trust_cost`` missing levels.

    The engaged ladder rungs (levels ``1..trust_cost``) are distributed over
    the request's activities round-robin: mechanism stacking is per-request,
    but each mechanism is anchored to the activity it primarily protects —
    matching the model where the OTL shortfall is a property of the
    *composite* activity.

    Raises:
        ConfigurationError: if ``trust_cost`` is outside ``[0, 6]``.
    """
    if not TC_MIN <= trust_cost <= TC_MAX:
        raise ConfigurationError(
            f"trust_cost must lie in [{TC_MIN}, {TC_MAX}], got {trust_cost!r}"
        )
    ladder = ladder if ladder is not None else DEFAULT_LADDER

    engaged: list[Mechanism] = [
        m for level in ladder.levels[:trust_cost] for m in level
    ]
    acts = list(activities)
    per_activity: dict[str, list[Mechanism]] = {a.name: [] for a in acts}
    for i, mechanism in enumerate(engaged):
        per_activity[acts[i % len(acts)].name].append(mechanism)

    return SecurityPlan(
        trust_cost=trust_cost,
        activities=tuple(
            ActivityPlan(activity_name=a.name, mechanisms=tuple(per_activity[a.name]))
            for a in acts
        ),
    )
