"""Run-metrics registry: counters, streaming histograms, timers.

Design constraints, in order:

1. **Zero cost when disabled.**  A disabled registry hands out shared
   no-op instruments whose mutation methods are empty; hot loops may
   additionally branch on ``registry.enabled`` to skip even the call.
   This mirrors the disabled-:class:`~repro.sim.trace.Tracer` discipline.
2. **No sample retention.**  Histograms keep log-spaced bucket counts,
   never the samples, so quantile queries (p50/p95/p99) stay O(buckets)
   and memory stays O(1) per metric over million-event runs.
3. **Deterministic snapshots.**  ``snapshot()`` orders metrics by name and
   reports only derived values, so fixed-seed runs produce stable output
   (timers, which read the wall clock, are the one documented exception).
"""

from __future__ import annotations

import math
import time
from typing import Any

from repro.errors import ConfigurationError

__all__ = ["Counter", "Histogram", "Timer", "MetricsRegistry"]

#: Geometric bucket growth factor: ~5% relative quantile error, ~420
#: buckets to span 1e-9 .. 1e9 (held sparsely, so typically a few dozen).
_GROWTH = 1.1
_LOG_GROWTH = math.log(_GROWTH)
#: Lower edge of bucket 0; values at or below it land in bucket 0.
_FLOOR = 1e-9


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Increment by ``n`` (must be non-negative)."""
        if n < 0:
            raise ConfigurationError("counters only move forward")
        self.value += n


class Histogram:
    """Streaming distribution sketch with log-spaced buckets.

    Supports non-negative samples; quantiles are estimated at the
    geometric midpoint of the containing bucket (relative error bounded
    by the bucket growth factor, ~5%).  No samples are retained.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Fold one sample into the sketch."""
        if value < 0:
            raise ConfigurationError("histogram samples must be non-negative")
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        index = (
            0 if value <= _FLOOR else int(math.log(value / _FLOOR) / _LOG_GROWTH) + 1
        )
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``); 0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must lie in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * (self.count - 1)
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen > rank:
                if index == 0:
                    return min(_FLOOR, self.maximum)
                lo = _FLOOR * _GROWTH ** (index - 1)
                hi = lo * _GROWTH
                mid = math.sqrt(lo * hi)
                # Clamp to the observed range so estimates never exceed it.
                return min(max(mid, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - rank < count always hits

    @property
    def p50(self) -> float:
        """Estimated median."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """Estimated 95th percentile."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """Estimated 99th percentile."""
        return self.quantile(0.99)


class Timer:
    """Context manager observing wall-clock durations into a histogram."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


class _NoopInstrument:
    """One object serving as disabled counter, histogram and timer.

    Every mutator is empty and every reading is a neutral constant, so a
    disabled registry can hand out a single shared instance for any
    instrument kind without allocating per metric name.
    """

    __slots__ = ()

    name = ""
    value = 0
    count = 0
    total = 0.0
    mean = 0.0
    p50 = p95 = p99 = 0.0
    minimum = math.inf
    maximum = -math.inf

    def add(self, n: float = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def __enter__(self) -> "_NoopInstrument":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NOOP = _NoopInstrument()


class MetricsRegistry:
    """Named metric instruments for one run (or one session).

    Args:
        enabled: when False, every accessor returns the shared no-op
            instrument and :meth:`snapshot` is empty — the zero-cost path.

    Metric names are dot-separated (``"sched.retries"``); instruments are
    created on first access and accumulate for the registry's lifetime.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    @classmethod
    def disabled(cls) -> "MetricsRegistry":
        """A registry that records nothing (the default everywhere)."""
        return cls(enabled=False)

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name``."""
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def timer(self, name: str) -> Timer:
        """A fresh timer context feeding ``histogram(name)``."""
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        return Timer(self.histogram(name))

    # -- output --------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All metrics as one JSON-serialisable dict, ordered by name.

        Counters report ``value``; histograms
        ``count/mean/p50/p95/p99/min/max``.  Empty when the
        registry is disabled.
        """
        out: dict[str, dict[str, Any]] = {}
        for name in sorted(self._counters):
            out[name] = {"type": "counter", "value": self._counters[name].value}
        for name in sorted(self._histograms):
            h = self._histograms[name]
            out[name] = {
                "type": "histogram",
                "count": h.count,
                "mean": h.mean,
                "p50": h.p50,
                "p95": h.p95,
                "p99": h.p99,
                "min": h.minimum if h.count else 0.0,
                "max": h.maximum if h.count else 0.0,
            }
        return dict(sorted(out.items()))
