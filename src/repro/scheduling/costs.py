"""Cost provider: EEC / TC / ECC rows for requests.

Bridges the workload (EEC matrix), the Grid trust model (trust costs) and
the :class:`~repro.scheduling.policy.TrustPolicy` into the per-request cost
rows the heuristics consume.

Two caching layers keep the hot path off the Python interpreter:

* trust-cost rows are cached per **pricing key** ``(client domain, ToA
  set)`` — TC depends only on those, so duplicate requests share one row —
  with per-request overrides layered on top for retry re-pricing;
* final mapping rows (policy + constraint + exclusions applied) are cached
  per request and invalidated whenever the inputs of that one request
  change (``exclude`` / ``clear_exclusions`` / ``invalidate_trust_cache``).

Batch heuristics should prefer :meth:`CostProvider.mapping_ecc_matrix`,
which assembles all believed-cost rows of a meta-request in one vectorised
pass (EEC gathered by task-index fancy indexing, TC computed once per
unique pricing key, constraint masking and exclusions as matrix ops).

With a :class:`~repro.trustfaults.query.ResilientTrustSource` installed,
*mapping* TC fetches route through its guarded query path and degrade
gracefully: a failed query prices the affected row with the trust-unaware
blanket formula (``EEC + ESC_unaware``) instead of raising, applies the
hard constraint against the locally-derivable *forced* TC row (``RTL = F``
still forces the maximum supplement under Table 1, so REJECT admission
control keeps holding), and skips the row cache so the next access retries
the plane — rows re-price to the exact fresh values the moment the source
recovers.  Ground-truth accessors (:meth:`CostProvider.trust_cost_row`)
never route through the source: completion accounting reads the table
directly, as the paper's RMS does once a machine is committed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.ets import TC_MAX
from repro.errors import ConfigurationError, TrustQueryError
from repro.grid.request import Request
from repro.grid.topology import Grid
from repro.obs.metrics import MetricsRegistry
from repro.scheduling.constraints import InfeasiblePolicy, TrustConstraint
from repro.scheduling.policy import TrustPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.trustfaults.query import ResilientTrustSource

__all__ = ["CostProvider", "DEFAULT_CHUNK_TASKS"]

#: Cache key of one trust-cost row: (client-domain index, sorted ToA indices).
TcKey = tuple[int, tuple[int, ...]]

#: Default task count per chunk of the streaming assembly: at 16 machines a
#: chunk is ~1 MiB of float64 — large enough to amortise the per-chunk numpy
#: dispatch, small enough that a million-task meta-request never allocates a
#: dense ``n × m`` intermediate.
DEFAULT_CHUNK_TASKS = 8192


@dataclass
class CostProvider:
    """Per-request cost rows over the machines of a Grid.

    Attributes:
        grid: the Grid (machines, trust table, RTLs).
        eec: the ``(n_tasks, n_machines)`` expected-execution-cost matrix;
            row indices are task indices.
        policy: the trust policy defining mapping and realised costs.
        constraint: optional hard trust constraint; infeasible machines are
            priced at ``+inf`` in *mapping* rows (realised rows are
            untouched — a relaxed assignment still pays its true cost).
        metrics: optional registry counting ``costs.ecc_rows`` (rows served),
            ``costs.tc_rows`` (rows actually computed) and
            ``costs.degraded_rows`` (rows priced without fresh trust data) —
            disabled by default.
        trust_source: optional resilient trust-plane front.  When set,
            mapping-path TC fetches go through its guarded query and failed
            queries degrade the affected rows to trust-unaware pricing
            instead of raising (see the module docstring).  ``None`` keeps
            the direct table reads (bit-identical results).
    """

    grid: Grid
    eec: np.ndarray
    policy: TrustPolicy
    constraint: TrustConstraint | None = None
    metrics: MetricsRegistry = field(
        default_factory=MetricsRegistry.disabled, repr=False
    )
    trust_source: "ResilientTrustSource | None" = None
    _tc_cache: dict[TcKey, np.ndarray] = field(default_factory=dict, repr=False)
    _key_cache: dict[int, TcKey] = field(default_factory=dict, repr=False)
    _tc_override: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _tc_dirty: set[int] = field(default_factory=set, repr=False)
    _row_cache: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _excluded: dict[int, set[int]] = field(default_factory=dict, repr=False)
    _degraded: set[int] = field(default_factory=set, repr=False)
    _forced_cache: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.eec = np.asarray(self.eec, dtype=np.float64)
        if self.eec.ndim != 2:
            raise ConfigurationError("EEC matrix must be 2-D")
        if self.eec.shape[1] != self.grid.n_machines:
            raise ConfigurationError(
                f"EEC matrix has {self.eec.shape[1]} columns but the grid has "
                f"{self.grid.n_machines} machines"
            )
        if np.any(self.eec <= 0):
            raise ConfigurationError("EEC entries must be strictly positive")

    # -- rows ---------------------------------------------------------------

    def eec_row(self, request: Request) -> np.ndarray:
        """EEC of the request's task on every machine."""
        task = request.task.index
        if not 0 <= task < self.eec.shape[0]:
            raise ConfigurationError(
                f"task index {task} outside the EEC matrix ({self.eec.shape[0]} rows)"
            )
        return self.eec[task]

    def _tc_key(self, request: Request) -> TcKey:
        # Memoised per request index: requests are immutable, and building
        # the key (sorting the ToA indices) shows up on the warm batch path.
        key = self._key_cache.get(request.index)
        if key is None:
            key = (
                request.client_domain_index,
                tuple(sorted(request.task.activities.indices)),
            )
            self._key_cache[request.index] = key
        return key

    def _compute_tc_row(self, request: Request) -> np.ndarray:
        if self.metrics.enabled:
            self.metrics.counter("costs.tc_rows").add()
        row = self.grid.trust_cost_per_machine(
            request.client_domain_index, request.task.activities.indices
        )
        row = np.asarray(row, dtype=np.float64)
        row.setflags(write=False)
        return row

    def _resilient_tc_fetch(self, request: Request) -> np.ndarray:
        """TC row via the guarded trust-plane query (may raise)."""
        assert self.trust_source is not None
        row = self.trust_source.trust_cost_per_machine(
            request.client_domain_index, request.task.activities.indices
        )
        if self.metrics.enabled:
            self.metrics.counter("costs.tc_rows").add()
        row = np.asarray(row, dtype=np.float64)
        row.setflags(write=False)
        return row

    def _tc_row(
        self, request: Request, fetch: Callable[[Request], np.ndarray]
    ) -> np.ndarray:
        """Dirty/override/key-cache resolution around one fetch function.

        Retry state is only consumed when the fetch succeeds: a dirty
        request whose resilient fetch raises stays dirty, so the next
        attempt still demands fresh data.
        """
        idx = request.index
        if idx in self._tc_dirty:
            row = fetch(request)
            self._tc_dirty.discard(idx)
            self._tc_override[idx] = row
            return row
        override = self._tc_override.get(idx)
        if override is not None:
            return override
        key = self._tc_key(request)
        cached = self._tc_cache.get(key)
        if cached is not None:
            return cached
        row = fetch(request)
        self._tc_cache[key] = row
        return row

    def trust_cost_row(self, request: Request) -> np.ndarray:
        """Trust cost TC of the request on every machine (cached).

        TC depends only on the originating CD, the task's ToA set and the
        machine's RD, so one row is computed per unique *pricing key* and
        shared by duplicate requests.  A request whose cache was invalidated
        (retry re-pricing) recomputes into a per-request override without
        disturbing the shared row its siblings keep using.

        Always reads the table directly (ground truth), even with a
        ``trust_source`` installed — completion accounting must not fail.
        """
        return self._tc_row(request, self._compute_tc_row)

    def _mapping_tc_row(self, request: Request) -> np.ndarray:
        """TC row for mapping decisions; resilient when a source is set.

        Raises:
            TrustQueryError: when the guarded query fails (caller degrades).
        """
        if self.trust_source is None:
            return self._tc_row(request, self._compute_tc_row)
        return self._tc_row(request, self._resilient_tc_fetch)

    def _forced_tc_row(self, cd_index: int) -> np.ndarray:
        """Per-machine TC floor derivable *without* the trust table.

        Table 1's ``RTL = F`` row forces the maximum supplement regardless
        of the offered level (when the ETS variant honours it), so machines
        whose effective requirement is ``F`` are known to cost ``TC_MAX``
        even when the table is unreachable; every other pairing is unknown
        and treated as feasible (TC 0) rather than rejected on no evidence.
        """
        row = self._forced_cache.get(cd_index)
        if row is None:
            required = self.grid.required_per_rd(cd_index)
            if self.grid.trust_table.ets.f_forces_max:
                per_rd = np.where(required >= TC_MAX, float(TC_MAX), 0.0)
            else:
                per_rd = np.zeros(required.shape, dtype=np.float64)
            row = per_rd[self.grid.machine_rd].astype(np.float64)
            row.setflags(write=False)
            self._forced_cache[cd_index] = row
        return row

    def _degraded_row(self, request: Request) -> np.ndarray:
        """Trust-unaware fallback mapping row for one plane-failed request.

        Never cached in the row cache: every access re-attempts the plane
        (a fast-fail against an open breaker is one counter bump and an
        exception), so rows re-price to exact fresh values on recovery.
        """
        self._degraded.add(request.index)
        if self.metrics.enabled:
            self.metrics.counter("costs.degraded_rows").add()
        eec = self.eec_row(request)
        row = eec + self.policy.esc_unaware(eec)
        if self.constraint is not None:
            row = self.constraint.apply(
                row, self._forced_tc_row(request.client_domain_index)
            )
        excluded = self._excluded.get(request.index)
        if excluded:
            row[list(excluded)] = np.inf
        row.setflags(write=False)
        return row

    def mapping_ecc_row(self, request: Request) -> np.ndarray:
        """Expected completion cost the *scheduler believes*, per machine.

        With a hard constraint installed, machines exceeding the trust-cost
        threshold are returned as ``+inf`` (an all-``inf`` row signals a
        rejected request under the ``REJECT`` infeasible policy).  The
        finished row — constraint and exclusions applied — is cached per
        request and returned read-only; repeated queries (every round of a
        batch heuristic) cost one dict lookup.

        With a ``trust_source`` installed a failed trust-plane query falls
        back to the degraded trust-unaware row instead of raising.
        """
        if self.metrics.enabled:
            self.metrics.counter("costs.ecc_rows").add()
        cached = self._row_cache.get(request.index)
        if cached is not None:
            return cached
        try:
            tc = self._mapping_tc_row(request)
        except TrustQueryError:
            return self._degraded_row(request)
        self._degraded.discard(request.index)
        row = self.policy.mapping_ecc(self.eec_row(request), tc)
        if self.constraint is not None:
            row = self.constraint.apply(row, tc)
        excluded = self._excluded.get(request.index)
        if excluded:
            row[list(excluded)] = np.inf
        row.setflags(write=False)
        self._row_cache[request.index] = row
        return row

    # -- batched assembly ----------------------------------------------------

    def mapping_ecc_matrix(self, requests: Sequence[Request]) -> np.ndarray:
        """Believed ECC rows of a whole meta-request, in one vectorised pass.

        Row ``i`` is bit-identical to ``mapping_ecc_row(requests[i])``: EEC
        rows are gathered by task-index fancy indexing, trust-cost rows are
        computed once per unique pricing key (honouring per-request retry
        overrides), and constraint masking plus retry exclusions are applied
        as whole-matrix operations.

        Returns:
            A writable float matrix of shape ``(len(requests), n_machines)``.
        """
        n = len(requests)
        m = self.grid.n_machines
        if n == 0:
            return np.zeros((0, m), dtype=np.float64)
        if self.metrics.enabled:
            self.metrics.counter("costs.ecc_rows").add(n)
        tasks = np.fromiter((r.task.index for r in requests), dtype=np.int64, count=n)
        if tasks.min() < 0 or tasks.max() >= self.eec.shape[0]:
            bad = int(tasks[(tasks < 0) | (tasks >= self.eec.shape[0])][0])
            raise ConfigurationError(
                f"task index {bad} outside the EEC matrix ({self.eec.shape[0]} rows)"
            )
        eec = self.eec[tasks]
        tc, degraded = self._tc_matrix(requests)
        ecc = self.policy.mapping_ecc(eec, tc)
        if degraded.any():
            # Plane-failed rows carry forced TC; their believed cost is the
            # blanket trust-unaware price, exactly as in the scalar path.
            ecc[degraded] = eec[degraded] + self.policy.esc_unaware(eec[degraded])
        if self.constraint is not None:
            mask = tc <= self.constraint.max_trust_cost
            constrained = np.where(mask, ecc, np.inf)
            infeasible = ~mask.any(axis=1)
            if infeasible.any() and (
                self.constraint.infeasible is InfeasiblePolicy.RELAX
            ):
                constrained[infeasible] = ecc[infeasible]
            ecc = constrained
        if self._excluded:
            for pos, request in enumerate(requests):
                excluded = self._excluded.get(request.index)
                if excluded:
                    ecc[pos, list(excluded)] = np.inf
        return ecc

    def mapping_ecc_chunks(
        self,
        requests: Sequence[Request],
        *,
        chunk_size: int | None = None,
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Stream the believed ECC rows of ``requests`` in bounded memory.

        Yields ``(start, chunk)`` pairs where ``chunk`` is the
        :meth:`mapping_ecc_matrix` of ``requests[start:start + len(chunk)]``;
        concatenating the chunks reproduces the dense matrix bit-for-bit,
        but no ``(n, n_machines)`` array — nor any of the same-shaped
        trust-cost / constraint-mask intermediates the dense assembly
        allocates — ever materialises.  Trust-cost rows are still computed
        once per unique pricing key: the key cache is shared across chunks,
        so a key priced in chunk 0 is a dict lookup in every later chunk.

        This is the assembly path of the claim-queue Min-min kernel
        (:class:`~repro.scheduling.fast.FastMinMinHeuristic`); anything
        consuming it must reduce each chunk (e.g. to per-machine columns)
        before requesting the next one for the memory bound to hold.

        Args:
            requests: the meta-request members.
            chunk_size: tasks per chunk; defaults to
                :data:`DEFAULT_CHUNK_TASKS`.
        """
        size = DEFAULT_CHUNK_TASKS if chunk_size is None else int(chunk_size)
        if size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        for start in range(0, len(requests), size):
            yield start, self.mapping_ecc_matrix(requests[start : start + size])

    def _tc_matrix(
        self, requests: Sequence[Request]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Float TC matrix for ``requests``; one computation per unique key.

        Requests carrying retry state (dirty or overridden) resolve through
        the scalar path; everything else shares rows via the key cache, with
        the missing keys computed in one batched trust-table pass.  With a
        ``trust_source`` installed, that batched pass is guarded by a single
        :meth:`~repro.trustfaults.query.ResilientTrustSource.check` (one
        plane round-trip per assembly) and dirty requests query per-row;
        failed positions receive the forced TC row and are flagged in the
        returned boolean ``degraded`` vector.

        Returns:
            ``(tc, degraded)`` of shapes ``(n, n_machines)`` and ``(n,)``.
        """
        n = len(requests)
        tc = np.empty((n, self.grid.n_machines), dtype=np.float64)
        degraded = np.zeros(n, dtype=bool)
        missing: dict[TcKey, list[int]] = {}
        retrying: list[int] = []
        for pos, request in enumerate(requests):
            idx = request.index
            if idx in self._tc_dirty:
                retrying.append(pos)
                continue
            override = self._tc_override.get(idx)
            if override is not None:
                tc[pos] = override
                continue
            key = self._tc_key(request)
            cached = self._tc_cache.get(key)
            if cached is not None:
                tc[pos] = cached
            else:
                missing.setdefault(key, []).append(pos)
        for pos in retrying:
            request = requests[pos]
            try:
                tc[pos] = self._mapping_tc_row(request)
            except TrustQueryError:
                tc[pos] = self._forced_tc_row(request.client_domain_index)
                degraded[pos] = True
        if missing:
            plane_ok = True
            if self.trust_source is not None:
                try:
                    self.trust_source.check()
                except TrustQueryError:
                    plane_ok = False
            if plane_ok:
                keys = list(missing)
                if self.metrics.enabled:
                    self.metrics.counter("costs.tc_rows").add(len(keys))
                cds = np.fromiter(
                    (cd for cd, _ in keys), dtype=np.int64, count=len(keys)
                )
                masks = np.zeros((len(keys), len(self.grid.catalog)), dtype=bool)
                for i, (_cd, activities) in enumerate(keys):
                    masks[i, list(activities)] = True
                rows = np.asarray(
                    self.grid.trust_cost_matrix(cds, masks), dtype=np.float64
                )
                for i, key in enumerate(keys):
                    row = rows[i].copy()
                    row.setflags(write=False)
                    self._tc_cache[key] = row
                    for pos in missing[key]:
                        tc[pos] = row
            else:
                for (cd, _activities), positions in missing.items():
                    row = self._forced_tc_row(cd)
                    for pos in positions:
                        tc[pos] = row
                        degraded[pos] = True
        if degraded.any():
            if self.metrics.enabled:
                self.metrics.counter("costs.degraded_rows").add(
                    int(degraded.sum())
                )
            for pos, request in enumerate(requests):
                if degraded[pos]:
                    self._degraded.add(request.index)
                else:
                    self._degraded.discard(request.index)
        elif self._degraded:
            for request in requests:
                self._degraded.discard(request.index)
        return tc, degraded

    # -- retry support -------------------------------------------------------

    def exclude(self, request_index: int, machine_index: int) -> None:
        """Price ``machine_index`` at ``+inf`` for this request's mapping.

        Used by the retry path: a machine that already failed a request is
        excluded from its re-mapping (for heuristics that read mapping
        costs; cost-blind heuristics like OLB see no difference).
        """
        if not 0 <= machine_index < self.grid.n_machines:
            raise ConfigurationError(f"machine index {machine_index} out of range")
        self._excluded.setdefault(request_index, set()).add(machine_index)
        self._row_cache.pop(request_index, None)

    def exclusions(self, request_index: int) -> frozenset[int]:
        """Machines currently excluded for ``request_index``."""
        return frozenset(self._excluded.get(request_index, ()))

    def clear_exclusions(self, request_index: int) -> None:
        """Drop all exclusions of one request (relaxation fallback)."""
        self._excluded.pop(request_index, None)
        self._row_cache.pop(request_index, None)

    def all_exclusions(self) -> dict[int, frozenset[int]]:
        """Every request's current machine exclusions (checkpoint view)."""
        return {
            idx: frozenset(machines)
            for idx, machines in self._excluded.items()
            if machines
        }

    def invalidate_trust_cache(self, request_index: int) -> None:
        """Forget the cached TC row of one request.

        Retried requests are re-priced so a re-mapping decision sees trust
        levels as evolved by the failures observed meanwhile.  Only the
        retried request recomputes — an identical sibling request keeps the
        shared row it was priced with.
        """
        self._tc_dirty.add(request_index)
        self._tc_override.pop(request_index, None)
        self._row_cache.pop(request_index, None)

    @property
    def degraded_requests(self) -> frozenset[int]:
        """Indices of requests whose latest pricing lacked fresh trust data."""
        return frozenset(self._degraded)

    def is_feasible(self, request: Request) -> bool:
        """Whether at least one machine may legally host ``request``.

        Always True without a constraint or under the RELAX policy.  With a
        ``trust_source`` installed, admission is judged against whatever TC
        data is obtainable: the real row when the plane answers, the forced
        row when it does not (unknown pairings are admitted — rejecting on
        absent evidence would turn every outage into mass rejection).
        """
        if self.constraint is None:
            return True
        if self.constraint.infeasible is InfeasiblePolicy.RELAX:
            return True
        if self.trust_source is not None:
            try:
                tc = self._mapping_tc_row(request)
            except TrustQueryError:
                tc = self._forced_tc_row(request.client_domain_index)
            return bool(self.constraint.feasible_mask(tc).any())
        return bool(self.constraint.feasible_mask(self.trust_cost_row(request)).any())

    def realized_ecc_row(self, request: Request) -> np.ndarray:
        """Completion cost the system *pays*, per machine.

        A request mapped under degraded pricing pays the blanket
        trust-unaware security cost: without trust data at commitment time
        the deployment applies conservative security on every element, the
        paper's fallback stance.
        """
        eec = self.eec_row(request)
        if request.index in self._degraded:
            return eec + self.policy.esc_unaware(eec)
        return self.policy.realized_ecc(eec, self.trust_cost_row(request))

    def with_policy(self, policy: TrustPolicy) -> "CostProvider":
        """A provider over the same workload under a different policy.

        The TC cache is shared structure-wise (same grid, same requests) but
        rebuilt lazily; rows are identical because TC is policy-independent.
        The installed hard constraint (and metrics registry, and resilient
        trust source) carry over — paired aware/unaware comparisons must
        price feasibility identically.
        """
        return CostProvider(
            grid=self.grid,
            eec=self.eec,
            policy=policy,
            constraint=self.constraint,
            metrics=self.metrics,
            trust_source=self.trust_source,
        )
