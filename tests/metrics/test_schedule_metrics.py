"""Tests for standalone schedule metrics."""

import pytest

from repro.metrics.schedule import (
    average_completion_time,
    average_flow_time,
    makespan,
)
from repro.scheduling.result import CompletionRecord


def rec(idx, machine, arrival, start, cost) -> CompletionRecord:
    return CompletionRecord(
        request_index=idx,
        machine_index=machine,
        arrival_time=arrival,
        mapped_time=arrival,
        start_time=start,
        completion_time=start + cost,
        eec=cost / 1.5,
        realized_cost=cost,
        trust_cost=0.0,
    )


@pytest.fixture
def records():
    return [
        rec(0, 0, arrival=0.0, start=0.0, cost=10.0),
        rec(1, 1, arrival=0.0, start=0.0, cost=20.0),
        rec(2, 0, arrival=5.0, start=10.0, cost=10.0),
    ]


class TestBasicMetrics:
    def test_makespan(self, records):
        assert makespan(records) == 20.0
        assert makespan([]) == 0.0

    def test_average_completion(self, records):
        assert average_completion_time(records) == pytest.approx((10 + 20 + 20) / 3)
        assert average_completion_time([]) == 0.0

    def test_average_flow(self, records):
        # Flows: 10, 20, 15.
        assert average_flow_time(records) == pytest.approx(15.0)


class TestFairness:
    def test_jain_equal_is_one(self):
        from repro.metrics.schedule import jain_fairness

        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_jain_single_winner(self):
        from repro.metrics.schedule import jain_fairness

        assert jain_fairness([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_jain_edge_cases(self):
        from repro.metrics.schedule import jain_fairness

        assert jain_fairness([]) == 1.0
        assert jain_fairness([0.0, 0.0]) == 1.0
        with pytest.raises(ValueError):
            jain_fairness([-1.0, 2.0])

    def test_domain_fairness(self, records):
        from repro.metrics.schedule import domain_fairness

        domain_of = {0: 0, 1: 1, 2: 0}
        value = domain_fairness(records, domain_of)
        assert 0.0 < value <= 1.0
