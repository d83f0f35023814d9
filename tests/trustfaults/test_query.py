"""Tests for the resilient trust-query path (timeout/backoff/breaker)."""

import numpy as np
import pytest

from repro.errors import (
    StaleTrustData,
    TrustQueryTimeout,
    TrustSourceUnavailable,
)
from repro.obs.metrics import MetricsRegistry
from repro.trustfaults.breaker import BreakerState
from repro.trustfaults.model import (
    TrustFaultModel,
    TrustQueryConfig,
    TrustSourceFault,
)
from repro.trustfaults.query import (
    ResilientTrustSource,
    SourcePath,
)


class TestSourcePath:
    def test_blackout_is_always_down(self):
        path = SourcePath(
            TrustSourceFault(blackout=True), np.random.default_rng(0)
        )
        assert path.is_down(0.0) and path.is_down(1e9)

    def test_outage_windows_are_half_open(self):
        path = SourcePath(
            TrustSourceFault(outages=((10.0, 20.0),)), np.random.default_rng(0)
        )
        assert not path.is_down(9.9)
        assert path.is_down(10.0)
        assert path.is_down(19.9)
        assert not path.is_down(20.0)

    def test_random_process_deterministic_in_seed(self):
        fault = TrustSourceFault(outage_mtbf=100.0, outage_mttr=20.0)
        a = SourcePath(fault, np.random.default_rng(3))
        b = SourcePath(fault, np.random.default_rng(3))
        ts = np.linspace(0.0, 2000.0, 400)
        assert [a.is_down(t) for t in ts] == [b.is_down(t) for t in ts]

    def test_age_zero_without_refresh_interval(self):
        path = SourcePath(TrustSourceFault(), np.random.default_rng(0))
        assert path.age(123.0) == 0.0

    def test_age_measures_from_last_refresh(self):
        path = SourcePath(
            TrustSourceFault(refresh_interval=10.0), np.random.default_rng(0)
        )
        assert path.age(7.0) == pytest.approx(7.0)
        assert path.age(13.0) == pytest.approx(3.0)

    def test_outage_skips_refresh_ticks(self):
        # Ticks at 10 and 20 fall in the outage; the last refresh is t=0.
        path = SourcePath(
            TrustSourceFault(refresh_interval=10.0, outages=((5.0, 25.0),)),
            np.random.default_rng(0),
        )
        assert path.age(24.0) == pytest.approx(24.0)
        assert path.age(30.0) == pytest.approx(0.0)


class TestResilientQueryLadder:
    def test_healthy_source_answers(self, small_grid):
        source = ResilientTrustSource(small_grid)
        source.check()  # no exception
        assert source.state is BreakerState.CLOSED
        source.check()  # a healthy source keeps answering
        assert source.state is BreakerState.CLOSED

    def test_down_source_times_out_then_fast_fails(self, small_grid):
        metrics = MetricsRegistry(enabled=True)
        source = ResilientTrustSource(
            small_grid,
            fault=TrustSourceFault(blackout=True),
            config=TrustQueryConfig(failure_threshold=3),
            metrics=metrics,
        )
        for _ in range(3):
            with pytest.raises(TrustQueryTimeout):
                source.check()
        assert source.state is BreakerState.OPEN
        with pytest.raises(TrustSourceUnavailable):
            source.check()
        snap = metrics.snapshot()
        assert snap["trustq.queries"]["value"] == 4
        assert snap["trustq.fast_fails"]["value"] == 1
        # 3 queries x (1 attempt + 2 retries) all timed out.
        assert snap["trustq.timeouts"]["value"] == 9

    def test_fast_fail_consumes_no_rng(self, small_grid):
        rng = np.random.default_rng(5)
        source = ResilientTrustSource(
            small_grid,
            fault=TrustSourceFault(blackout=True, latency_mean=0.1),
            config=TrustQueryConfig(failure_threshold=1),
            rng=rng,
        )
        with pytest.raises(TrustQueryTimeout):
            source.check()
        state_before = rng.bit_generator.state
        with pytest.raises(TrustSourceUnavailable):
            source.check()
        assert rng.bit_generator.state == state_before

    def test_slow_source_times_out(self, small_grid):
        # Mean latency far beyond the per-attempt budget: effectively
        # every attempt is too slow under any draw sequence.
        source = ResilientTrustSource(
            small_grid,
            fault=TrustSourceFault(latency_mean=1e9),
            config=TrustQueryConfig(timeout=1e-6, failure_threshold=100),
            rng=0,
        )
        with pytest.raises(TrustQueryTimeout):
            source.check()

    def test_outage_recovery_closes_breaker(self, small_grid):
        source = ResilientTrustSource(
            small_grid,
            fault=TrustSourceFault(outages=((0.0, 100.0),)),
            config=TrustQueryConfig(failure_threshold=1, cooldown=50.0),
        )
        source.advance(5.0)
        with pytest.raises(TrustQueryTimeout):
            source.check()
        assert source.state is BreakerState.OPEN
        source.advance(200.0)  # past the outage and the cooldown
        assert source.state is BreakerState.HALF_OPEN
        source.check()  # probe succeeds
        assert source.state is BreakerState.CLOSED

    def test_stale_data_raises_but_counts_as_success(self, small_grid):
        metrics = MetricsRegistry(enabled=True)
        source = ResilientTrustSource(
            small_grid,
            fault=TrustSourceFault(
                refresh_interval=10.0, outages=((5.0, 98.0),)
            ),
            config=TrustQueryConfig(staleness_bound=20.0, failure_threshold=1),
            metrics=metrics,
        )
        # Past the outage the source answers again, but its data is stale:
        # every refresh tick since t=0 fell inside the outage.
        source.advance(98.0)
        with pytest.raises(StaleTrustData):
            source.check()
        assert source.state is BreakerState.CLOSED
        assert metrics.snapshot()["trustq.stale"]["value"] == 1

    def test_advance_never_moves_backwards(self, small_grid):
        source = ResilientTrustSource(small_grid)
        source.advance(10.0)
        source.advance(3.0)
        assert source.now == 10.0

    def test_from_model(self, small_grid):
        model = TrustFaultModel(
            table=TrustSourceFault(blackout=True),
            query=TrustQueryConfig(failure_threshold=7),
        )
        source = ResilientTrustSource.from_model(small_grid, model)
        assert source.fault is model.table
        assert source.breaker.failure_threshold == 7

    def test_bind_metrics_reaches_the_breaker(self, small_grid):
        source = ResilientTrustSource(
            small_grid,
            fault=TrustSourceFault(blackout=True),
            config=TrustQueryConfig(failure_threshold=1),
        )
        metrics = MetricsRegistry(enabled=True)
        source.bind_metrics(metrics)
        with pytest.raises(TrustQueryTimeout):
            source.check()
        assert "trustq.breaker.table.closed->open" in metrics.snapshot()
