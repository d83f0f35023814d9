"""Layer spans recorded from the benchmark's own code.

No span lives inside ``src/``.  Instead, for the duration of one
repetition, :func:`instrument` replaces each layer's public entry points
(methods on the classes listed in :data:`LAYER_TARGETS`) with a thin
wrapper that records a span around the original call, and puts the
originals back afterwards.  Spans nest on one stack: a span's *self time*
is its duration minus the time of the spans it directly contains, so the
self times of all layers plus the root's self time add up to the root
span's wall time exactly.

The root span is the timed call itself (``GridService.serve`` /
``replay_scenario`` / ``TRMScheduler.run``); its self time is the part of
the run no layer claims (``trace.unattributed_frac``).  The benchmark's
own hook code runs under a ``bench`` span so no layer is charged for it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass

__all__ = [
    "Target", "SpanTracer", "LAYER_TARGETS", "KERNEL_TARGET", "WINDOW_TARGETS",
    "instrument", "resolve",
]


@dataclass(frozen=True)
class Target:
    """One public function whose calls are charged to ``layer``.

    Attributes:
        layer: the span name (``"costs.ecc"``, ``"kernel"``, ...).
        module: module defining ``owner``.
        owner: class name; empty for targets whose class is given
            directly through :func:`resolve`'s ``extra`` argument.
        attr: method name on the owner.
        fold: a call made while a span of a layer starting with this
            prefix is open is charged to that open span instead of opening
            its own (``eec_row`` inside ``mapping_ecc_row`` is ECC
            assembly, ``eec_row`` at dispatch is realised-cost lookup).
        work: optional ``(args, kwargs) -> number`` summed per layer
            (e.g. tasks handed to the kernel).
        span: False for count-only targets, which add ``work`` but open
            no span.
    """

    layer: str
    module: str
    owner: str
    attr: str
    fold: str | None = None
    work: Callable[[tuple, dict], float] | None = None
    span: bool = True


def _journal_pending(args: tuple, kwargs: dict) -> float:
    return float(args[0].pending_bytes)


def _kernel_tasks(args: tuple, kwargs: dict) -> float:
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    return float(len(requests))


#: Layer → the public functions whose calls the layer is charged for.
#: The kernel target is resolved per run from the heuristic class the
#: registry name ``min-min`` builds (see :func:`resolve`).
LAYER_TARGETS: tuple[Target, ...] = (
    Target("admission", "repro.service.admission", "AdmissionController", "decide"),
    Target("engine.submit", "repro.scheduling.engine", "SchedulingEngine", "submit"),
    Target("engine.dispatch", "repro.scheduling.engine", "SchedulingEngine", "form_batch"),
    Target("costs.ecc", "repro.scheduling.costs", "CostProvider", "mapping_ecc_row", fold="costs."),
    Target("costs.ecc", "repro.scheduling.costs", "CostProvider", "mapping_ecc_matrix", fold="costs."),
    Target("costs.ecc", "repro.scheduling.base", "BatchHeuristic", "mapping_matrix", fold="costs."),
    Target("costs.realized", "repro.scheduling.costs", "CostProvider", "realized_ecc_row", fold="costs."),
    Target("costs.realized", "repro.scheduling.costs", "CostProvider", "trust_cost_row", fold="costs."),
    Target("costs.realized", "repro.scheduling.costs", "CostProvider", "eec_row", fold="costs."),
    Target("sim", "repro.sim.kernel", "Simulator", "run"),
    Target("trust.observe", "repro.grid.agents", "DomainTrustAgent", "observe_transaction"),
    Target("trust.evolve", "repro.core.evolution", "TrustEvolver", "observe"),
    Target("trust.gamma", "repro.core.engine", "TrustEngine", "gamma"),
    Target("journal.append", "repro.core.journal", "DurableTrustPlane", "append"),
    Target("journal.checkpoint", "repro.core.journal", "DurableTrustPlane", "checkpoint"),
    Target("journal.compact", "repro.core.journal", "DurableTrustPlane", "compact"),
    Target(
        "journal.bytes", "repro.core.journal", "JournalWriter", "sync",
        work=_journal_pending, span=False,
    ),
    Target("checkpoint", "repro.service.service", "GridService", "checkpoint"),
)

#: The kernel layer: ``plan`` of the heuristic class the registry name
#: ``min-min`` builds, resolved per run through :func:`resolve`'s ``extra``.
KERNEL_TARGET = Target("kernel", "", "", "plan", work=_kernel_tasks)

#: Window timing is the one span the untraced runs keep: one clock pair per
#: meta-request mapping, which is the measurement behind ``window_p50_s``.
WINDOW_TARGETS: tuple[Target, ...] = tuple(
    t for t in LAYER_TARGETS if t.layer == "engine.dispatch"
)


class SpanTracer:
    """In-memory span stack with per-layer self time, entries and work.

    Attributes:
        self_s: layer → summed self time in seconds.
        entries: layer → calls entering the layer from outside it (a
            nested call of the same layer is not a new entry).
        work: layer → summed ``Target.work`` values.
        intervals: layer → ``(start, end)`` clock readings of every span,
            for the layers named in ``keep``.
    """

    def __init__(self, keep: tuple[str, ...] = ()) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.entries: defaultdict[str, int] = defaultdict(int)
        self.work: defaultdict[str, float] = defaultdict(float)
        self.intervals: dict[str, list[tuple[float, float]]] = {k: [] for k in keep}
        self._stack: list[list] = []

    def wrap(self, func: Callable, target: Target) -> Callable:
        """``func`` recording a ``target.layer`` span per call."""
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        entries = self.entries
        work_sums = self.work
        layer = target.layer
        fold = target.fold
        work = target.work
        intervals = self.intervals.get(layer)

        if not target.span:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                work_sums[layer] += work(args, kwargs)
                return func(*args, **kwargs)

            return counted

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if fold is not None and parent is not None and parent[1].startswith(fold):
                return func(*args, **kwargs)
            if work is not None:
                work_sums[layer] += work(args, kwargs)
            if parent is None or parent[1] != layer:
                entries[layer] += 1
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if intervals is not None:
                    intervals.append((start, end))

        return traced

    def call(self, layer: str, func: Callable, *args, **kwargs):
        """Run ``func`` under one ``layer`` span (used for the root)."""
        return self.wrap(func, Target(layer, "", "", ""))(*args, **kwargs)


def resolve(
    targets: tuple[Target, ...], extra: tuple[tuple[Target, type], ...] = ()
) -> tuple[list[tuple[type, str, Target]], list[str]]:
    """Turn targets into ``(defining class, attr, target)`` triples.

    A target whose module, class or method no longer exists is skipped and
    named in the second return value, so a later refactor that removes an
    entry point makes its layer read zero instead of breaking the run.
    """
    found: list[tuple[type, str, Target]] = []
    missing: list[str] = []
    pairs = [(t, None) for t in targets] + [(t, cls) for t, cls in extra]
    for target, cls in pairs:
        if cls is None:
            try:
                cls = getattr(importlib.import_module(target.module), target.owner)
            except (ImportError, AttributeError):
                missing.append(f"{target.module}.{target.owner}.{target.attr}")
                continue
        owner = next((k for k in cls.__mro__ if target.attr in vars(k)), None)
        if owner is None:
            missing.append(f"{cls.__module__}.{cls.__name__}.{target.attr}")
            continue
        found.append((owner, target.attr, target))
    return found, missing


@contextlib.contextmanager
def instrument(
    tracer: SpanTracer, resolved: list[tuple[type, str, Target]]
) -> Iterator[SpanTracer]:
    """Install ``tracer``'s wrappers on every resolved target, then restore."""
    saved: list[tuple[type, str, object]] = []
    try:
        for owner, attr, target in resolved:
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):  # BatchHeuristic.mapping_matrix
                new = staticmethod(tracer.wrap(raw.__func__, target))
            else:
                new = tracer.wrap(raw, target)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
