"""Cost provider: EEC / TC / ECC rows for requests.

Bridges the workload (EEC matrix), the Grid trust model (trust costs) and
the :class:`~repro.scheduling.policy.TrustPolicy` into the per-request cost
rows the heuristics consume.

Every trust-cost (TC) row comes from one resolver over one memo.  Rows are
cached per **pricing key** ``(client domain, ToA set)`` — TC depends only
on those, so duplicate requests share one read-only row — and each entry
records the :meth:`~repro.grid.trust_table.GridTrustTable.cd_epoch` it was
priced at.  The resolver serves an entry while its CD epoch is current and
prices every stale or missing key, plus the keys of retry-dirty requests
(:meth:`CostProvider.invalidate_trust_cache`), in one batched
:meth:`~repro.grid.topology.Grid.trust_cost_matrix` call, so every mapping
and every commit prices against the trust table as it stands at that
moment.  Publishes to other client domains leave an entry valid.

The resolver runs in one of two modes:

* **ground truth** — :meth:`CostProvider.trust_cost_row` and
  :meth:`CostProvider.realized_costs` read the table directly, even with a
  trust source installed, so completion accounting cannot fail on a plane
  outage;
* **guarded** — with a :class:`~repro.trustfaults.query.ResilientTrustSource`
  installed, the mapping accessors (:meth:`CostProvider.mapping_ecc_row`,
  :meth:`CostProvider.mapping_ecc_matrix`, :meth:`CostProvider.is_feasible`)
  precede each fetch with the source's guarded query: one per retry-dirty
  request, then one for the batch of missing keys, none for memo hits.  A
  failed query caches nothing and leaves the request dirty; its row gets
  the locally derivable *forced* TC row (``RTL = F`` still forces the
  maximum supplement under Table 1, so REJECT admission control keeps
  holding) and, in mapping rows, the trust-unaware blanket price
  ``EEC + ESC_unaware``.  The next access retries the plane, so rows
  re-price to the exact fresh values the moment the source recovers.

Batch heuristics should prefer :meth:`CostProvider.mapping_ecc_matrix`,
which assembles all believed-cost rows of a meta-request in one vectorised
pass (EEC gathered by task-index fancy indexing, constraint masking and
exclusions as matrix ops).  A window's plan is committed by
:meth:`CostProvider.realized_costs` in one vector pass: one EEC gather at
``(task, machine)`` and one
:meth:`~repro.scheduling.policy.TrustPolicy.realized_ecc` call over the
gathered vectors.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
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
            ``costs.tc_rows`` (rows actually computed: first pricings of a
            key, re-pricings after a publish to its CD, and retry fetches) and
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
    _tc_cache: dict[TcKey, tuple[int, np.ndarray]] = field(
        default_factory=dict, repr=False
    )
    _key_cache: dict[int, TcKey] = field(default_factory=dict, repr=False)
    _tc_dirty: set[int] = field(default_factory=set, repr=False)
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
        bad = ~(np.isfinite(self.eec) & (self.eec > 0))
        if bad.any():
            task, machine = (int(i) for i in np.argwhere(bad)[0])
            raise ConfigurationError(
                f"EEC entry (task {task}, machine {machine}) is "
                f"{self.eec[task, machine]}; entries must be finite and "
                "strictly positive"
            )

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

    def trust_cost_row(self, request: Request) -> np.ndarray:
        """Trust cost TC of the request on every machine (memoised).

        TC depends only on the originating CD, the task's ToA set and the
        machine's RD, so one read-only row is shared by every request with
        the same *pricing key* until a publish to that CD moves its epoch;
        the row always equals the table as it stands now.

        Always reads the table directly (ground truth), even with a
        ``trust_source`` installed — completion accounting must not fail.
        """
        return self._tc_rows((request,), guarded=False)[0][0]

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

    def _plane_answers(self) -> bool:
        """One guarded trust-plane query; False when it failed."""
        try:
            self.trust_source.check()
        except TrustQueryError:
            return False
        return True

    def _tc_rows(
        self, requests: Sequence[Request], *, guarded: bool
    ) -> tuple[list[np.ndarray], list[int]]:
        """The memo's read-only TC row for each request, and the degraded ones.

        Memo hits are served as they stand.  Every other key — missing,
        priced at an older CD epoch, or read by a retry-dirty request — is
        priced in one batched :meth:`Grid.trust_cost_matrix` call, and the
        memo entry refreshed.  With ``guarded`` set, each retry-dirty
        request (in position order) and then the batch of missing keys is
        preceded by one :meth:`ResilientTrustSource.check`; a failed check
        writes no entry, leaves the request dirty and hands its position
        the forced TC row.  A successful fetch consumes the dirty flag.

        Returns:
            ``(rows, degraded)``: one row per request, and the positions
            whose row is forced because the plane failed.
        """
        rows: list[np.ndarray] = [None] * len(requests)  # type: ignore[list-item]
        cache = self._tc_cache
        dirty = self._tc_dirty
        cd_epoch = self.grid.trust_table.cd_epoch
        tc_key = self._tc_key
        # Positions whose key is stale or missing; ``fetch_slot`` will hold
        # the row of the priced batch that serves each of them.
        fetch_pos: list[int] = []
        retrying: list[int] = []
        for pos, request in enumerate(requests):
            if dirty and request.index in dirty:
                retrying.append(pos)
                continue
            key = tc_key(request)
            entry = cache.get(key)
            if entry is not None and entry[0] == cd_epoch(key[0]):
                rows[pos] = entry[1]
            else:
                fetch_pos.append(pos)
        if not (fetch_pos or retrying):
            return rows, []
        # The stale or missing keys, numbered in discovery order.
        missing: dict[TcKey, int] = {}
        fetch_slot = [
            missing.setdefault(tc_key(requests[pos]), len(missing))
            for pos in fetch_pos
        ]
        degraded: list[int] = []
        retried: list[int] = []
        for pos in retrying:
            if guarded and not self._plane_answers():
                degraded.append(pos)
            else:
                retried.append(pos)
        if missing and guarded and not self._plane_answers():
            degraded += fetch_pos
            fetch_pos, fetch_slot, missing = [], [], {}
        keys = list(missing)
        for pos in retried:
            fetch_pos.append(pos)
            fetch_slot.append(len(keys))
            keys.append(tc_key(requests[pos]))
        if keys:
            priced = self._price(keys)
            for key, row in zip(keys, priced):
                cache[key] = (cd_epoch(key[0]), row)
            for pos, slot in zip(fetch_pos, fetch_slot):
                rows[pos] = priced[slot]
            dirty.difference_update(requests[pos].index for pos in retried)
        for pos in degraded:
            rows[pos] = self._forced_tc_row(requests[pos].client_domain_index)
        return rows, degraded

    def _price(self, keys: list[TcKey]) -> list[np.ndarray]:
        """Read-only float TC rows of ``keys``, priced in one table pass."""
        if self.metrics.enabled:
            self.metrics.counter("costs.tc_rows").add(len(keys))
        n_act = len(self.grid.catalog)
        masks = np.zeros(len(keys) * n_act, dtype=bool)
        masks[[i * n_act + a for i, (_cd, acts) in enumerate(keys) for a in acts]] = True
        rows = self.grid.trust_cost_matrix(
            np.array([cd for cd, _ in keys], dtype=np.int64),
            masks.reshape(len(keys), n_act),
        ).astype(np.float64)
        rows.setflags(write=False)
        return list(rows)

    def _mark_degraded(self, requests: Sequence[Request], degraded: list[int]) -> None:
        """Record which of ``requests`` the latest mapping priced degraded."""
        if degraded and self.metrics.enabled:
            self.metrics.counter("costs.degraded_rows").add(len(degraded))
        if degraded or self._degraded:
            flagged = set(degraded)
            for pos, request in enumerate(requests):
                if pos in flagged:
                    self._degraded.add(request.index)
                else:
                    self._degraded.discard(request.index)

    def mapping_ecc_row(self, request: Request) -> np.ndarray:
        """Expected completion cost the *scheduler believes*, per machine.

        With a hard constraint installed, machines exceeding the trust-cost
        threshold are returned as ``+inf`` (an all-``inf`` row signals a
        rejected request under the ``REJECT`` infeasible policy).  The row
        is assembled on every call from the memoised TC row and returned
        read-only.

        With a ``trust_source`` installed a failed trust-plane query prices
        the row trust-unaware (``EEC + ESC_unaware``) and applies the
        constraint against the forced TC row, instead of raising.
        """
        if self.metrics.enabled:
            self.metrics.counter("costs.ecc_rows").add()
        (tc,), degraded = self._tc_rows(
            (request,), guarded=self.trust_source is not None
        )
        self._mark_degraded((request,), degraded)
        eec = self.eec_row(request)
        if degraded:
            row = eec + self.policy.esc_unaware(eec)
        else:
            row = self.policy.mapping_ecc(eec, tc)
        if self.constraint is not None:
            row = self.constraint.apply(row, tc)
        excluded = self._excluded.get(request.index)
        if excluded:
            row[list(excluded)] = np.inf
        row.setflags(write=False)
        return row

    def _task_indices(self, requests: Sequence[Request]) -> np.ndarray:
        """Task indices of ``requests``, bound-checked against the EEC rows."""
        n = len(requests)
        tasks = np.fromiter((r.task.index for r in requests), dtype=np.int64, count=n)
        if n and (tasks.min() < 0 or tasks.max() >= self.eec.shape[0]):
            bad = int(tasks[(tasks < 0) | (tasks >= self.eec.shape[0])][0])
            raise ConfigurationError(
                f"task index {bad} outside the EEC matrix ({self.eec.shape[0]} rows)"
            )
        return tasks

    # -- batched assembly ----------------------------------------------------

    def mapping_ecc_matrix(self, requests: Sequence[Request]) -> np.ndarray:
        """Believed ECC rows of a whole meta-request, in one vectorised pass.

        Row ``i`` is bit-identical to ``mapping_ecc_row(requests[i])``: EEC
        rows are gathered by task-index fancy indexing, trust-cost rows come
        from the epoch-checked memo (stale and missing keys re-priced in one
        batch), and constraint masking plus retry exclusions are applied as
        whole-matrix operations.

        Returns:
            A writable float matrix of shape ``(len(requests), n_machines)``.
        """
        n = len(requests)
        m = self.grid.n_machines
        if n == 0:
            return np.zeros((0, m), dtype=np.float64)
        if self.metrics.enabled:
            self.metrics.counter("costs.ecc_rows").add(n)
        eec = self.eec[self._task_indices(requests)]
        rows, degraded = self._tc_rows(
            requests, guarded=self.trust_source is not None
        )
        self._mark_degraded(requests, degraded)
        tc = np.array(rows)
        ecc = self.policy.mapping_ecc(eec, tc)
        if degraded:
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
        (:class:`~repro.scheduling.minmin.MinMinHeuristic`); anything
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

    def exclusions(self, request_index: int) -> frozenset[int]:
        """Machines currently excluded for ``request_index``."""
        return frozenset(self._excluded.get(request_index, ()))

    def clear_exclusions(self, request_index: int) -> None:
        """Drop all exclusions of one request (relaxation fallback)."""
        self._excluded.pop(request_index, None)

    def all_exclusions(self) -> dict[int, frozenset[int]]:
        """Every request's current machine exclusions (checkpoint view)."""
        return {
            idx: frozenset(machines)
            for idx, machines in self._excluded.items()
            if machines
        }

    def invalidate_trust_cache(self, request_index: int) -> None:
        """Make the next pricing of one request fetch its TC row afresh.

        Retried requests are re-priced so a re-mapping decision sees trust
        levels as evolved by the failures observed meanwhile.  With a
        ``trust_source`` installed the fetch is a guarded query (which may
        degrade the row); the fetched row refreshes the shared memo entry
        of the request's pricing key.
        """
        self._tc_dirty.add(request_index)

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
        (tc,), _degraded = self._tc_rows(
            (request,), guarded=self.trust_source is not None
        )
        return bool(self.constraint.feasible_mask(tc).any())

    def realized_costs(
        self, requests: Sequence[Request], machines: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What each committed assignment ``requests[i] → machines[i]`` pays.

        One EEC gather at ``(task, machine)`` and one
        :meth:`TrustPolicy.realized_ecc` call over the gathered vectors
        commit a whole plan; element ``i`` is bit-identical to element
        ``machines[i]`` of the per-row realised cost.  TC resolves through
        the same epoch-checked memo as :meth:`trust_cost_row` (ground
        truth, never the ``trust_source``).

        A request mapped under degraded pricing pays the blanket
        trust-unaware security cost: without trust data at commitment time
        the deployment applies conservative security on every element, the
        paper's fallback stance.

        Returns:
            ``(eec, cost, tc)`` float vectors of length ``len(requests)``.
        """
        n = len(requests)
        tasks = self._task_indices(requests)
        eec = self.eec[tasks, np.asarray(machines, dtype=np.int64)]
        rows, _degraded = self._tc_rows(requests, guarded=False)
        tc = np.fromiter(
            (row[m] for row, m in zip(rows, machines)), dtype=np.float64, count=n
        )
        cost = self.policy.realized_ecc(eec, tc)
        if self._degraded:
            degraded = np.fromiter(
                (r.index in self._degraded for r in requests), dtype=bool, count=n
            )
            if degraded.any():
                blanket = eec[degraded]
                cost[degraded] = blanket + self.policy.esc_unaware(blanket)
        return eec, cost, tc

    def with_policy(self, policy: TrustPolicy) -> "CostProvider":
        """A provider over the same workload under a different policy.

        The TC memo is rebuilt lazily; rows are identical because TC is
        policy-independent.  The installed hard constraint (and metrics
        registry, and resilient trust source) carry over — paired
        aware/unaware comparisons must price feasibility identically.
        """
        return CostProvider(
            grid=self.grid,
            eec=self.eec,
            policy=policy,
            constraint=self.constraint,
            metrics=self.metrics,
            trust_source=self.trust_source,
        )
