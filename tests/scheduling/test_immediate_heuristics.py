"""Tests for the immediate-mode heuristics: MCT, MET, OLB, KPB, SA."""

import numpy as np
import pytest

from repro.errors import NoFeasibleMachineError
from repro.grid.activities import ActivitySet
from repro.grid.request import Request, Task
from repro.scheduling.costs import CostProvider
from repro.scheduling.kpb import KpbHeuristic
from repro.scheduling.mct import MctHeuristic
from repro.scheduling.met import MetHeuristic
from repro.scheduling.olb import OlbHeuristic
from repro.scheduling.policy import TrustPolicy
from repro.scheduling.sa import SwitchingHeuristic


def request(grid, index=0) -> Request:
    task = Task(index=index, activities=ActivitySet.of(grid.catalog.by_index(0)))
    return Request(index=index, client=grid.clients[0], task=task, arrival_time=0.0)


@pytest.fixture
def costs(small_grid):
    """Uniform trust (TC equal across machines) so EEC drives decisions."""
    small_grid.trust_table.fill_from(np.full((2, 2, 3), 5, dtype=np.int64))
    # cd0 RTL C(3), rd RTLs B(2)/D(4) -> effective [3,4]; OTL 5 -> TC 0 everywhere.
    eec = np.array([[10.0, 4.0, 8.0]])
    return CostProvider(grid=small_grid, eec=eec, policy=TrustPolicy.aware())


class TestMct:
    def test_picks_earliest_completion(self, small_grid, costs):
        req = request(small_grid)
        # avail + eec: [0+10, 9+4, 0+8] -> machine 2.
        avail = np.array([0.0, 9.0, 0.0])
        assert MctHeuristic().choose(req, costs, avail) == 2

    def test_accounts_for_availability(self, small_grid, costs):
        req = request(small_grid)
        avail = np.zeros(3)
        assert MctHeuristic().choose(req, costs, avail) == 1

    def test_trust_shifts_choice(self, small_grid):
        # Machine 2 (rd1) becomes untrusted: RTL D(4) vs OTL A(1) -> TC 3.
        small_grid.trust_table.fill_from(np.full((2, 2, 3), 5, dtype=np.int64))
        levels = small_grid.trust_table.levels.copy()
        levels[:, 1, :] = 1
        small_grid.trust_table.fill_from(levels)
        eec = np.array([[10.0, 10.0, 8.0]])
        aware = CostProvider(small_grid, eec, TrustPolicy.aware())
        unaware = CostProvider(small_grid, eec, TrustPolicy.unaware())
        req = request(small_grid)
        avail = np.zeros(3)
        # Unaware sees 1.5x everywhere -> machine 2 cheapest.
        assert MctHeuristic().choose(req, unaware, avail) == 2
        # Aware sees 8 * 1.45 = 11.6 > 10 -> avoids machine 2.
        assert MctHeuristic().choose(req, aware, avail) in (0, 1)

    def test_bad_avail_shape(self, small_grid, costs):
        with pytest.raises(NoFeasibleMachineError):
            MctHeuristic().choose(request(small_grid), costs, np.zeros(2))


class TestMet:
    def test_ignores_availability(self, small_grid, costs):
        req = request(small_grid)
        avail = np.array([0.0, 1e9, 0.0])
        assert MetHeuristic().choose(req, costs, avail) == 1


class TestOlb:
    def test_picks_earliest_available(self, small_grid, costs):
        req = request(small_grid)
        avail = np.array([5.0, 3.0, 9.0])
        assert OlbHeuristic().choose(req, costs, avail) == 1


class TestKpb:
    def test_subset_restricts_candidates(self, small_grid, costs):
        req = request(small_grid)
        # Top 40% of 3 machines by EEC = machines {1, 2}; machine 1 heavily
        # loaded, and machine 0 (idle) is outside the subset.
        avail = np.array([0.0, 100.0, 0.0])
        assert KpbHeuristic().choose(req, costs, avail) == 2


class TestSwitching:
    def test_starts_in_mct_mode(self, small_grid, costs):
        req = request(small_grid)
        avail = np.array([0.0, 9.0, 0.0])  # imbalanced: ratio 0
        assert SwitchingHeuristic().choose(req, costs, avail) == 2

    def test_switches_to_met_when_balanced(self, small_grid, costs):
        req = request(small_grid)
        sa = SwitchingHeuristic()
        balanced = np.array([10.0, 9.5, 9.8])  # ratio 0.95 > high (0.9)
        # MET would pick 1 even if loaded.
        assert sa.choose(req, costs, balanced) == 1

    def test_all_idle_counts_as_balanced(self, small_grid, costs):
        req = request(small_grid)
        sa = SwitchingHeuristic()
        assert sa.choose(req, costs, np.zeros(3)) == 1  # ratio treated as 1.0 -> MET

    def test_switches_back_under_imbalance(self, small_grid, costs):
        req = request(small_grid)
        sa = SwitchingHeuristic()
        sa.choose(req, costs, np.array([10.0, 10.0, 10.0]))  # -> MET mode
        choice = sa.choose(req, costs, np.array([1.0, 100.0, 1.0]))  # ratio 0.01 < 0.6 -> MCT
        assert choice in (0, 2)
