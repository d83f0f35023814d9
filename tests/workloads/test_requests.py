"""Tests for request-stream assembly."""

import pytest

from repro.errors import WorkloadError
from repro.sim.arrivals import BatchArrivalProcess
from repro.workloads.requests import build_requests, generate_request_stream


class TestBuildRequests:
    def test_assembles_fields(self, small_grid):
        reqs = build_requests(
            small_grid,
            activity_sets=[(0,), (1, 2)],
            arrival_times=[1.0, 2.0],
            client_indices=[0, 1],
        )
        assert len(reqs) == 2
        assert reqs[0].client is small_grid.clients[0]
        assert reqs[1].task.activities.indices == (1, 2)
        assert reqs[1].arrival_time == 2.0
        assert reqs[0].client_domain_index == 0

    def test_equal_toa_lists_share_one_activity_set(self, small_grid):
        reqs = build_requests(
            small_grid,
            activity_sets=[(0, 2), [0, 2], (2, 0), (0, 2)],
            arrival_times=[0.0] * 4,
            client_indices=[0, 1, 0, 1],
        )
        first = reqs[0].task.activities
        assert reqs[1].task.activities is first
        assert reqs[3].task.activities is first
        # Member order is part of a set's identity, so it is not shared.
        assert reqs[2].task.activities.indices == (2, 0)
        assert reqs[2].task.activities != first
        assert [r.task.index for r in reqs] == [0, 1, 2, 3]

    def test_length_mismatch_rejected(self, small_grid):
        with pytest.raises(WorkloadError):
            build_requests(small_grid, [(0,)], [1.0, 2.0], [0])

    def test_client_out_of_range(self, small_grid):
        with pytest.raises(WorkloadError):
            build_requests(small_grid, [(0,)], [1.0], [99])


class TestGenerateRequestStream:
    def test_generates_n_requests(self, small_grid, rng):
        reqs = generate_request_stream(
            small_grid, 25, BatchArrivalProcess(at=0.0), rng
        )
        assert len(reqs) == 25
        assert [r.index for r in reqs] == list(range(25))

    def test_respects_toa_bounds(self, small_grid, rng):
        reqs = generate_request_stream(
            small_grid, 100, BatchArrivalProcess(at=0.0), rng,
            min_toas=2, max_toas=3,
        )
        sizes = {len(r.task.activities) for r in reqs}
        assert sizes <= {2, 3}

    def test_clients_drawn_from_grid(self, small_grid, rng):
        reqs = generate_request_stream(
            small_grid, 200, BatchArrivalProcess(at=0.0), rng
        )
        used = {r.client.index for r in reqs}
        assert used == {0, 1}

    def test_negative_count_rejected(self, small_grid, rng):
        with pytest.raises(WorkloadError):
            generate_request_stream(
                small_grid, -1, BatchArrivalProcess(at=0.0), rng
            )
