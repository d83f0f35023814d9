"""The Grid trust-level table (Section 3.1).

A single, centrally maintained table holds the trust level between every
client domain and resource domain, per type of activity:

    ``TL[cd, rd, activity]  ∈  {A .. E}``

The entry is the paper's symmetric quantifier ``TL_ij^k`` for ``CD_i`` and
``RD_j`` engaging in activity ``A_k``.  From it the *offered trust level*
(OTL) of a composed activity is the minimum over the member activities, and
the *trust cost* of a pairing is ``ETS(RTL, OTL)`` where the RTL is the
maximum of the client-side and resource-side requirements.

The table is stored as a dense ``(n_cd, n_rd, n_activities)`` NumPy array of
integer levels so the schedulers can compute whole cost rows with one
vectorised lookup.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat

import numpy as np

from repro.core.ets import EtsTable
from repro.core.levels import MAX_OFFERED_LEVEL, MIN_LEVEL, TrustLevel
from repro.errors import ConfigurationError

__all__ = ["GridTrustTable"]

#: The levels in value order: stored level ``v`` (always ``A..E``, since
#: every write is validated) is ``_LEVELS[v - 1]``.
_LEVELS = tuple(TrustLevel)
_AXES = ("client-domain", "resource-domain", "activity")
#: Initial value of the masked OTL min: above every storable level.
_ABOVE_OFFERED = np.int64(int(MAX_OFFERED_LEVEL) + 1)


class GridTrustTable:
    """Dense (CD × RD × ToA) table of offered trust levels.

    Args:
        n_client_domains: number of client domains (first axis).
        n_resource_domains: number of resource domains (second axis).
        n_activities: number of activity types (third axis).
        initial_level: level every entry starts at (default ``A`` — strangers
            offer the lowest trust).
        ets: the expected-trust-supplement table used by trust-cost queries
            (default: the canonical Table 1 with the F-row override).
    """

    def __init__(
        self,
        n_client_domains: int,
        n_resource_domains: int,
        n_activities: int,
        *,
        initial_level: TrustLevel | int | str = MIN_LEVEL,
        ets: EtsTable | None = None,
    ) -> None:
        if min(n_client_domains, n_resource_domains, n_activities) < 1:
            raise ConfigurationError(
                "table dimensions must all be >= 1, got "
                f"n_client_domains={n_client_domains!r} "
                f"n_resource_domains={n_resource_domains!r} "
                f"n_activities={n_activities!r}"
            )
        initial = TrustLevel.from_value(initial_level)
        if not initial.is_offerable:
            raise ConfigurationError(
                "offered levels span A..E; F cannot be stored, got "
                f"initial_level={initial_level!r}"
            )
        self._levels = np.full(
            (n_client_domains, n_resource_domains, n_activities),
            int(initial),
            dtype=np.int64,
        )
        self._ets = ets if ets is not None else EtsTable()
        self._epoch = 0
        self._cd_epochs: dict[int, int] = {}
        # Write-ahead journal sink (see repro.core.journal); when set,
        # set/fill_from append a delta op after applying.
        self._journal = None

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter, bumped by :meth:`set`/:meth:`fill_from`."""
        return self._epoch

    def cd_epoch(self, cd: int) -> int:
        """Mutation counter for one client domain's rows.

        Bumped whenever :meth:`set` touches an entry of client domain
        ``cd`` (and for every CD on :meth:`fill_from`).  Trust-cost rows
        depend only on their own CD's slice of the table, so
        :class:`~repro.scheduling.costs.CostProvider` checks its memoised
        rows against this counter: a row stays valid while its CD epoch
        does, even when publishes to *other* CDs advance :attr:`epoch`.
        """
        return self._cd_epochs.get(cd, 0)

    def cd_epochs(self) -> list[int]:
        """Every client domain's :meth:`cd_epoch`, indexed by CD.

        One read serves a whole window of trust-cost lookups: the list is
        a copy, valid until the next :meth:`set`/:meth:`fill_from`.
        """
        return list(map(self._cd_epochs.get, range(self._levels.shape[0]), repeat(0)))

    # -- shape ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(n_client_domains, n_resource_domains, n_activities)``."""
        return self._levels.shape  # type: ignore[return-value]

    @property
    def ets(self) -> EtsTable:
        """The ETS table consulted by trust-cost queries."""
        return self._ets

    @property
    def levels(self) -> np.ndarray:
        """Read-only view of the underlying level array."""
        view = self._levels.view()
        view.setflags(write=False)
        return view

    # -- access -----------------------------------------------------------

    def get(self, cd: int, rd: int, activity: int) -> TrustLevel:
        """The stored level for one (CD, RD, ToA) triple.

        Raises:
            ConfigurationError: if an index lies outside its axis.
        """
        self._check_cell(cd, rd, activity)
        return _LEVELS[self._levels.item(cd, rd, activity) - 1]

    def set(self, cd: int, rd: int, activity: int, level: TrustLevel | int | str) -> None:
        """Publish a new level for one (CD, RD, ToA) triple.

        Raises:
            ConfigurationError: if an index lies outside its axis, or the
                level is ``F`` (not an offerable level).
        """
        self._check_cell(cd, rd, activity)
        value = TrustLevel.from_value(level)
        if not value.is_offerable:
            raise ConfigurationError(
                f"offered levels span A..E; F cannot be stored, got level={level!r}"
            )
        self._levels[cd, rd, activity] = int(value)
        self._epoch += 1
        self._cd_epochs[cd] = self._cd_epochs.get(cd, 0) + 1
        if self._journal is not None:
            # The op in the flat form the journal holds it in (see
            # repro.core.journal.JournalWriter.append).
            self._journal.append(
                ("set", cd, rd, activity, int(value), self._cd_epochs[cd])
            )

    def fill_from(self, levels: np.ndarray) -> None:
        """Bulk-load the whole table from an integer array of levels.

        Used by workload generators; validates the range ``[A, E]``.
        """
        arr = np.asarray(levels, dtype=np.int64)
        if arr.shape != self._levels.shape:
            raise ConfigurationError(
                f"levels: array shape {arr.shape} != table shape {self._levels.shape}"
            )
        if arr.min() < int(MIN_LEVEL) or arr.max() > int(MAX_OFFERED_LEVEL):
            raise ConfigurationError(
                "levels: offered levels must lie in [A, E] = [1, 5], got "
                f"min {int(arr.min())} max {int(arr.max())}"
            )
        self._levels[...] = arr
        self._epoch += 1
        for cd in range(self._levels.shape[0]):
            self._cd_epochs[cd] = self._cd_epochs.get(cd, 0) + 1
        if self._journal is not None:
            self._journal.append(
                {
                    "op": "fill",
                    "levels": arr.ravel().tolist(),
                    "shape": list(arr.shape),
                    "e": self._epoch,
                }
            )

    # -- trust queries ------------------------------------------------------

    def offered_level(self, cd: int, rd: int, activities: Sequence[int]) -> TrustLevel:
        """OTL for a (possibly composed) activity set: the minimum entry.

        ``TL^o = min(TL for A_p, TL for A_q, ...)`` — Section 3.1.
        """
        acts = self._check_activities(activities)
        return TrustLevel(int(self._levels[cd, rd, acts].min()))

    def trust_cost(
        self,
        cd: int,
        rd: int,
        activities: Sequence[int],
        required: TrustLevel | int | str,
    ) -> int:
        """Trust cost ``TC = ETS(RTL, OTL)`` for one pairing."""
        otl = self.offered_level(cd, rd, activities)
        return self._ets.lookup(TrustLevel.from_value(required), otl)

    def offered_rows(
        self, cds: np.ndarray, activity_masks: np.ndarray
    ) -> np.ndarray:
        """OTL rows for many (CD, ToA-set) keys in one vectorised pass.

        Args:
            cds: integer array of client-domain indices, shape ``(k,)``.
            activity_masks: boolean matrix of shape ``(k, n_activities)``;
                row ``i`` marks the member ToAs of key ``i`` (each row must
                select at least one activity).

        Returns:
            Integer OTL matrix of shape ``(k, n_resource_domains)``; entry
            ``[i, rd]`` equals ``offered_level(cds[i], rd, <set of masks[i]>)``.

        Raises:
            ConfigurationError: if a client-domain index lies outside the
                table, the masks are misshapen or a mask is empty.
        """
        cds = np.asarray(cds, dtype=np.int64)
        masks = np.asarray(activity_masks, dtype=bool)
        n_cd, _, n_act = self._levels.shape
        if masks.ndim != 2 or masks.shape != (cds.shape[0], n_act):
            raise ConfigurationError(
                f"activity_masks shape {masks.shape} != ({cds.shape[0]}, {n_act})"
            )
        if cds.size and (cds.min() < 0 or cds.max() >= n_cd):
            raise ConfigurationError(
                f"client domain indices must lie in [0, {n_cd - 1}]"
            )
        if not masks.any(axis=1).all():
            empty = np.flatnonzero(~masks.any(axis=1)).tolist()
            raise ConfigurationError(
                "every activity mask must select at least one ToA, got empty "
                f"activity_masks rows {empty}"
            )
        # The min over the activity axis sees only the member ToAs.
        return self._levels[cds].min(
            axis=2, where=masks[:, None, :], initial=_ABOVE_OFFERED
        )

    def trust_cost_rows(
        self,
        cds: np.ndarray,
        activity_masks: np.ndarray,
        required_per_pair: np.ndarray,
    ) -> np.ndarray:
        """Trust-cost matrix ``TC = ETS(RTL, OTL)`` for many (CD, ToA-set) keys.

        Args:
            cds: client-domain indices, shape ``(k,)``.
            activity_masks: boolean ``(k, n_activities)`` ToA membership.
            required_per_pair: integer RTL matrix of shape
                ``(n_client_domains, n_resource_domains)`` — entry
                ``[cd, rd]`` is the effective requirement of that pairing
                (:attr:`~repro.grid.topology.Grid.pair_required`).

        Returns:
            Integer TC matrix of shape ``(k, n_resource_domains)``; entry
            ``[i, rd]`` equals ``trust_cost(cds[i], rd, <set of masks[i]>,
            required_per_pair[cds[i], rd])``.
        """
        otls = self.offered_rows(cds, activity_masks)
        if required_per_pair.shape != self._levels.shape[:2]:
            raise ConfigurationError(
                f"required_per_pair shape {required_per_pair.shape} != "
                f"{self._levels.shape[:2]}"
            )
        return self._ets.lookup_many(required_per_pair[cds], otls)

    def _check_cell(self, cd: int, rd: int, activity: int) -> None:
        # Refuse what numpy would wrap around: a negative CD would write
        # another CD's row while bumping the wrong CD epoch.
        n_cd, n_rd, n_act = self._levels.shape
        if not (0 <= cd < n_cd and 0 <= rd < n_rd and 0 <= activity < n_act):
            for axis, index, n in zip(_AXES, (cd, rd, activity), (n_cd, n_rd, n_act)):
                if not 0 <= index < n:
                    raise ConfigurationError(
                        f"{axis} index {index!r} lies outside [0, {n})"
                    )

    def _check_activities(self, activities: Sequence[int]) -> np.ndarray:
        acts = np.asarray(list(activities), dtype=np.int64)
        if acts.size == 0:
            raise ConfigurationError(
                f"activity set must be non-empty, got activities={acts.tolist()}"
            )
        n_act = self._levels.shape[2]
        if acts.min() < 0 or acts.max() >= n_act:
            raise ConfigurationError(
                f"activity indices must lie in [0, {n_act - 1}], got "
                f"activities={acts.tolist()}"
            )
        return acts
