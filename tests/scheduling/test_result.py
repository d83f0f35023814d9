"""Tests for CompletionRecord and ScheduleResult."""

import pickle

import pytest

from repro.grid.machine import MachineState
from repro.scheduling.result import CompletionRecord, ScheduleResult


def record(
    idx=0, machine=0, arrival=0.0, start=None, completion=None, eec=10.0, cost=15.0, tc=2.0
) -> CompletionRecord:
    start = arrival if start is None else start
    completion = start + cost if completion is None else completion
    return CompletionRecord(
        request_index=idx,
        machine_index=machine,
        arrival_time=arrival,
        mapped_time=arrival,
        start_time=start,
        completion_time=completion,
        eec=eec,
        realized_cost=cost,
        trust_cost=tc,
    )


class TestCompletionRecord:
    def test_derived_quantities(self):
        rec = record(arrival=5.0, start=8.0, completion=23.0)
        assert rec.flow_time == 18.0
        assert rec.security_cost == pytest.approx(5.0)

    def test_time_ordering_validated(self):
        with pytest.raises(ValueError):
            record(arrival=5.0, start=4.0)
        with pytest.raises(ValueError):
            record(start=10.0, completion=9.0)

    def test_attempt_validated(self):
        with pytest.raises(ValueError, match="1-based"):
            CompletionRecord(*record()[:-1], attempt=0)

    def test_replace_and_make_validate(self):
        rec = record(arrival=5.0, start=8.0, completion=23.0)
        assert rec._replace(attempt=2).attempt == 2
        with pytest.raises(ValueError):
            rec._replace(start_time=4.0)
        with pytest.raises(ValueError):
            CompletionRecord._make([*rec[:-1], 0])

    def test_fields_are_read_only(self):
        rec = record()
        with pytest.raises(AttributeError):
            rec.start_time = 99.0
        with pytest.raises(AttributeError):
            rec.note = "extra"

    def test_pickle_round_trip(self):
        rec = record(arrival=5.0, start=8.0, completion=23.0)
        clone = pickle.loads(pickle.dumps(rec))
        assert clone == rec
        assert type(clone) is CompletionRecord


def make_result(records, n_machines=2) -> ScheduleResult:
    from repro.core.levels import TrustLevel
    from repro.grid.activities import ActivityType
    from repro.grid.domain import GridDomain, ResourceDomain
    from repro.grid.machine import Machine

    gd = GridDomain(0, "x")
    rd = ResourceDomain(
        index=0,
        grid_domain=gd,
        supported_activities=frozenset({ActivityType(0, "a")}),
        required_level=TrustLevel.A,
    )
    states = []
    for m in range(n_machines):
        state = MachineState(machine=Machine(m, rd))
        for rec in records:
            if rec.machine_index == m:
                begin = max(state.available_time, rec.start_time)
                state.book_attempt(rec.realized_cost, begin + rec.realized_cost)
        states.append(state)
    return ScheduleResult(
        heuristic="mct",
        policy_label="trust-aware",
        records=tuple(records),
        machine_states=tuple(states),
    )


class TestScheduleResult:
    def test_empty_result(self):
        result = make_result([])
        assert result.makespan == 0.0
        assert result.average_completion_time == 0.0
        assert result.machine_utilization == 0.0
        assert len(result) == 0

    def test_aggregates(self):
        records = [
            record(idx=0, machine=0, arrival=0.0, cost=10.0, eec=8.0),
            record(idx=1, machine=1, arrival=0.0, cost=20.0, eec=16.0),
        ]
        result = make_result(records)
        assert result.makespan == 20.0
        assert result.average_completion_time == 15.0
        assert result.total_eec == 24.0
        assert result.total_security_cost == pytest.approx(6.0)
        assert result.security_overhead_share == pytest.approx(0.25)

    def test_utilization_against_makespan(self):
        records = [
            record(idx=0, machine=0, cost=10.0),
            record(idx=1, machine=1, cost=20.0),
        ]
        result = make_result(records)
        # machine 0 busy 10/20, machine 1 busy 20/20.
        assert result.machine_utilization == pytest.approx(0.75)

    def test_flow_time(self):
        records = [record(idx=0, arrival=2.0, start=5.0, completion=10.0)]
        result = make_result(records)
        assert result.average_flow_time == pytest.approx(8.0)
