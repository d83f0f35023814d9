"""Adversarial recommendation streams (integrity faults).

An :class:`AdversaryFleet` materialises the recommender groups described by
an :class:`~repro.trustfaults.model.IntegrityFaultModel` and, once per
session round, writes their crafted opinions into the *shared* internal
trust table — the same RTT the honest domain agents evolve and the
reputation component ``Ω`` aggregates.  Nothing else in the pipeline is
touched: the attack works (or is defeated) purely through the Section-2
aggregation path, which is what makes credibility purging a meaningful
countermeasure.

Attack semantics per :class:`~repro.trustfaults.model.AttackKind`:

* ``BADMOUTH`` — report ``value_low`` about every target (starve honest
  domains of work by inflating their apparent trust cost);
* ``BALLOT_STUFF`` — report ``value_high`` about every target (keep a
  flaky or malicious domain attractive despite its realised behaviour);
* ``COLLUSION`` — ballot-stuff the targets *and* every clique member's own
  reputation (the colluding ring inflates itself, the case the paper's
  ``R(z, y)`` alliance discount is aimed at);
* ``OSCILLATE`` — two-faced: alternate, every ``period`` rounds, between a
  truthful-looking phase (``value_low`` about the genuinely bad targets)
  and a lying phase (``value_high``), building credibility then spending
  it.
"""

from __future__ import annotations

from repro.core.tables import TrustTable
from repro.grid.activities import ActivityCatalog
from repro.grid.agents import AgentSide, domain_entity_id
from repro.obs.metrics import MetricsRegistry
from repro.trustfaults.model import AdversarySpec, AttackKind, IntegrityFaultModel

__all__ = ["AdversaryFleet"]


class AdversaryFleet:
    """All adversarial recommenders of a run, bound to one shared RTT.

    Args:
        model: the integrity fault model (attack specs).
        table: the shared internal trust table opinions are written into.
        catalog: the activity catalog — opinions are recorded per activity
            context, matching how the honest agents record evidence.
        metrics: optional registry counting ``trustq.injected_opinions``.
    """

    def __init__(
        self,
        model: IntegrityFaultModel,
        table: TrustTable,
        catalog: ActivityCatalog,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.model = model
        self.table = table
        self.catalog = catalog
        self.metrics = metrics if metrics is not None else MetricsRegistry.disabled()
        self._members: dict[int, tuple[str, ...]] = {
            pos: tuple(
                f"adv:{spec.group_label}:{i}" for i in range(spec.n_recommenders)
            )
            for pos, spec in enumerate(model.adversaries)
        }

    def inject(self, now: float, round_index: int) -> int:
        """Write one wave of crafted opinions at time ``now``.

        Re-recording overwrites the previous wave (freshest opinion wins,
        exactly like an honest recommender updating its record), so the
        table stays bounded over long sessions.

        Returns:
            The number of opinion records written.
        """
        written = 0
        for pos, spec in enumerate(self.model.adversaries):
            members = self._members[pos]
            value = self._reported_value(spec, round_index)
            targets = [
                domain_entity_id(AgentSide.RESOURCE_DOMAIN, t) for t in spec.targets
            ]
            for member in members:
                for target in targets:
                    written += self._record_all_contexts(member, target, value, now)
                if spec.kind is AttackKind.COLLUSION:
                    for peer in members:
                        if peer == member:
                            continue
                        written += self._record_all_contexts(
                            member, peer, spec.value_high, now
                        )
        if written and self.metrics.enabled:
            self.metrics.counter("trustq.injected_opinions").add(written)
        return written

    # -- internals -----------------------------------------------------------

    def _reported_value(self, spec: AdversarySpec, round_index: int) -> float:
        if spec.kind is AttackKind.BADMOUTH:
            return spec.value_low
        if spec.kind in (AttackKind.BALLOT_STUFF, AttackKind.COLLUSION):
            return spec.value_high
        # OSCILLATE: even phases look truthful about the (bad) targets,
        # odd phases lie upwards.
        phase = (round_index // spec.period) % 2
        return spec.value_high if phase else spec.value_low

    def _record_all_contexts(
        self, truster: str, trustee: str, value: float, now: float
    ) -> int:
        for activity in self.catalog:
            self.table.record(truster, trustee, activity.context, value, now)
        return len(self.catalog)
