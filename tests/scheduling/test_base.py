"""Tests for the heuristic base helpers."""

import pickle

import numpy as np
import pytest

from repro.errors import NoFeasibleMachineError
from repro.grid.activities import ActivitySet
from repro.grid.request import Request, Task
from repro.scheduling.base import BatchHeuristic, PlannedAssignment, check_avail
from repro.scheduling.costs import CostProvider
from repro.scheduling.policy import TrustPolicy


class TestCheckAvail:
    def test_valid_vector_passes_through(self):
        out = check_avail(np.array([1.0, 2.0]), 2)
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_wrong_shape_rejected(self):
        with pytest.raises(NoFeasibleMachineError):
            check_avail(np.zeros(3), 2)
        with pytest.raises(NoFeasibleMachineError):
            check_avail(np.zeros((2, 2)), 2)

    def test_negative_times_rejected(self):
        with pytest.raises(NoFeasibleMachineError):
            check_avail(np.array([1.0, -0.1]), 2)

    @pytest.mark.parametrize(
        "values",
        [
            [np.nan, -1.0],
            [np.nan, 2.0, -np.inf],
            [3.0, np.nan, -0.5],
            [np.nan, np.nan],
            [np.nan, 1.0],
            [-0.0, 0.0],
            [np.inf, 0.0],
        ],
    )
    def test_refusals_match_the_elementwise_sign_test(self, values):
        # The refusal set of the numpy reduction ``(avail < 0).any()``,
        # NaN entries included: a NaN is not refused and hides no negative.
        if (np.array(values) < 0).any():
            with pytest.raises(NoFeasibleMachineError, match="non-negative"):
                check_avail(np.array(values), len(values))
        else:
            check_avail(np.array(values), len(values))

    def test_zero_machines_rejected(self):
        with pytest.raises(NoFeasibleMachineError):
            check_avail(np.zeros(0), 0)

    def test_list_input_coerced(self):
        out = check_avail([0.0, 5.0], 2)
        assert isinstance(out, np.ndarray)


class TestMappingMatrix:
    def test_rows_follow_request_order(self, small_grid):
        small_grid.trust_table.fill_from(np.full((2, 2, 3), 5, dtype=np.int64))
        small_grid.cd_required[:] = 1
        small_grid.rd_required[:] = 1
        eec = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        costs = CostProvider(small_grid, eec, TrustPolicy.aware())
        reqs = []
        for i in range(2):
            task = Task(index=i, activities=ActivitySet.of(small_grid.catalog.by_index(0)))
            reqs.append(
                Request(index=i, client=small_grid.clients[0], task=task, arrival_time=0.0)
            )
        matrix = BatchHeuristic.mapping_matrix(list(reversed(reqs)), costs)
        np.testing.assert_allclose(matrix[0], [4.0, 5.0, 6.0])
        np.testing.assert_allclose(matrix[1], [1.0, 2.0, 3.0])

    def test_empty_batch_shape(self, small_grid):
        costs = CostProvider(small_grid, np.ones((1, 3)), TrustPolicy.aware())
        matrix = BatchHeuristic.mapping_matrix([], costs)
        assert matrix.shape == (0, 3)


class TestPlannedAssignment:
    def request(self, grid):
        task = Task(index=0, activities=ActivitySet.of(grid.catalog.by_index(0)))
        return Request(index=0, client=grid.clients[0], task=task, arrival_time=0.0)

    def test_fields(self, small_grid):
        req = self.request(small_grid)
        pa = PlannedAssignment(request=req, machine_index=1, order=0)
        assert pa.machine_index == 1
        assert pa.request is req

    def test_field_order(self):
        assert PlannedAssignment._fields == ("request", "machine_index", "order")

    def test_keyword_and_positional_construction_agree(self, small_grid):
        req = self.request(small_grid)
        by_keyword = PlannedAssignment(request=req, machine_index=2, order=5)
        by_position = PlannedAssignment(req, 2, 5)
        assert by_keyword == by_position
        assert tuple(by_position) == (req, 2, 5)
        # The kernels' unchecked construction builds the same item.
        assert tuple.__new__(PlannedAssignment, (req, 2, 5)) == by_keyword

    def test_fields_are_read_only(self, small_grid):
        pa = PlannedAssignment(self.request(small_grid), 1, 0)
        for name in PlannedAssignment._fields:
            with pytest.raises(AttributeError):
                setattr(pa, name, None)
        with pytest.raises(AttributeError):
            pa.extra = 1  # no instance dict

    def test_pickle_round_trip(self, small_grid):
        pa = PlannedAssignment(self.request(small_grid), 1, 3)
        back = pickle.loads(pickle.dumps(pa))
        assert type(back) is PlannedAssignment
        assert back == pa
        assert (back.request.index, back.machine_index, back.order) == (0, 1, 3)
