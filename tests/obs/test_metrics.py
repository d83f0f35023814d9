"""Tests for the metrics registry: instruments, quantiles, no-op path."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.metrics import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.add()
        c.add(4)
        assert c.value == 5

    def test_rejects_negative_increments(self):
        with pytest.raises(ConfigurationError):
            Counter("x").add(-1)


class TestHistogram:
    def test_mean_and_extrema_are_exact(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(4.0)
        assert h.minimum == 1.0
        assert h.maximum == 10.0

    def test_rejects_negative_samples(self):
        with pytest.raises(ConfigurationError):
            Histogram("lat").observe(-0.1)

    def test_quantile_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            Histogram("lat").quantile(1.5)

    def test_empty_quantiles_are_zero(self):
        h = Histogram("lat")
        assert h.p50 == 0.0
        assert h.p99 == 0.0

    def test_single_sample_quantiles_hit_it(self):
        h = Histogram("lat")
        h.observe(5.0)
        assert h.p50 == pytest.approx(5.0, rel=0.1)
        assert h.p99 == pytest.approx(5.0, rel=0.1)

    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    def test_quantiles_within_bucket_error(self, samples):
        """Streaming quantiles track the exact ones within the ~10%
        relative error budget of the log-bucket sketch, with no sample
        retention."""
        h = Histogram("lat")
        for v in samples:
            h.observe(v)
        ordered = sorted(samples)
        for q in (0.5, 0.95, 0.99):
            exact = ordered[int(q * (len(ordered) - 1))]
            estimate = h.quantile(q)
            assert h.minimum <= estimate <= h.maximum
            assert estimate == pytest.approx(exact, rel=0.11)

    def test_no_sample_retention(self):
        h = Histogram("lat")
        for i in range(100_000):
            h.observe(1.0 + (i % 7))
        # Bucket map stays tiny regardless of sample count.
        assert len(h._buckets) < 50


class TestRegistry:
    def test_instruments_are_created_once(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("c") is reg.histogram("c")

    def test_timer_observes_wall_time(self):
        reg = MetricsRegistry()
        with reg.timer("t"):
            pass
        h = reg.histogram("t")
        assert h.count == 1
        assert h.maximum >= 0.0

    def test_snapshot_is_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("z.count").add(2)
        reg.histogram("m.lat").observe(0.25)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["z.count"] == {"type": "counter", "value": 2}
        assert snap["m.lat"]["type"] == "histogram"
        assert snap["m.lat"]["count"] == 1

    def test_empty_gauge_histogram_snapshot_is_finite(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        snap = reg.snapshot()
        for data in snap.values():
            for value in data.values():
                if isinstance(value, float):
                    assert math.isfinite(value)


class TestDisabledRegistry:
    def test_disabled_hands_out_shared_noop(self):
        reg = MetricsRegistry.disabled()
        assert not reg.enabled
        c = reg.counter("a")
        assert c is reg.histogram("b")

    def test_noop_mutations_record_nothing(self):
        reg = MetricsRegistry.disabled()
        reg.counter("a").add(5)
        reg.histogram("c").observe(2.0)
        with reg.timer("d"):
            pass
        assert reg.snapshot() == {}
        assert reg.counter("a").value == 0
        assert reg.histogram("c").quantile(0.5) == 0.0
