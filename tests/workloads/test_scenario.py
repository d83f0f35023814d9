"""Tests for scenario specification and materialisation."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.consistency import Consistency
from repro.workloads.heterogeneity import HIHI
from repro.workloads.scenario import ScenarioSpec, materialize


class TestScenarioSpec:
    def test_defaults_match_paper(self):
        spec = ScenarioSpec()
        assert spec.n_machines == 5
        assert spec.cd_range == (1, 4)
        assert spec.rd_range == (1, 4)
        assert spec.min_toas == 1 and spec.max_toas == 4
        assert spec.n_activities == 4

    @pytest.mark.parametrize("kwargs", [
        {"n_tasks": 0},
        {"n_machines": 0},
        {"arrival_rate": 0.0},
        {"target_load": -1.0},
        {"cd_range": (0, 4)},
        {"rd_range": (3, 2)},
        {"clients_per_cd": 0},
        {"min_toas": 2, "max_toas": 1},
        {"n_activities": 0},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(**kwargs)

    def test_with_returns_modified_copy(self):
        spec = ScenarioSpec(n_tasks=50)
        other = dataclasses.replace(spec, n_tasks=100)
        assert other.n_tasks == 100
        assert spec.n_tasks == 50


class TestMaterialize:
    def test_deterministic_per_seed(self):
        spec = ScenarioSpec(n_tasks=10)
        a = materialize(spec, seed=3)
        b = materialize(spec, seed=3)
        np.testing.assert_array_equal(a.eec, b.eec)
        assert [r.arrival_time for r in a.requests] == [r.arrival_time for r in b.requests]
        np.testing.assert_array_equal(
            a.grid.trust_table.levels, b.grid.trust_table.levels
        )

    def test_different_seeds_differ(self):
        spec = ScenarioSpec(n_tasks=10)
        a = materialize(spec, seed=1)
        b = materialize(spec, seed=2)
        assert not np.array_equal(a.eec, b.eec)

    def test_domain_counts_within_paper_ranges(self):
        for seed in range(20):
            sc = materialize(ScenarioSpec(n_tasks=2), seed=seed)
            assert 1 <= len(sc.grid.client_domains) <= 4
            assert 1 <= len(sc.grid.resource_domains) <= 4

    def test_every_rd_gets_a_machine_when_possible(self):
        sc = materialize(ScenarioSpec(n_tasks=2, n_machines=5), seed=4)
        rds_with_machines = set(sc.grid.machine_rd.tolist())
        assert rds_with_machines == set(range(len(sc.grid.resource_domains)))

    def test_eec_shape(self):
        sc = materialize(ScenarioSpec(n_tasks=17, n_machines=3), seed=0)
        assert sc.eec.shape == (17, 3)

    def test_requests_sorted_by_arrival(self):
        sc = materialize(ScenarioSpec(n_tasks=30), seed=5)
        arrivals = [r.arrival_time for r in sc.requests]
        assert arrivals == sorted(arrivals)

    def test_batch_arrivals_all_at_zero(self):
        sc = materialize(ScenarioSpec(n_tasks=10, batch_arrivals=True), seed=0)
        assert all(r.arrival_time == 0.0 for r in sc.requests)
        assert sc.arrival_rate is None

    def test_explicit_arrival_rate_respected(self):
        spec = ScenarioSpec(n_tasks=10, arrival_rate=0.01)
        assert materialize(spec, seed=0).arrival_rate == 0.01

    def test_otl_per_pair_broadcasts_across_activities(self):
        sc = materialize(ScenarioSpec(n_tasks=2, otl_per_pair=True), seed=6)
        levels = sc.grid.trust_table.levels
        assert np.all(levels == levels[:, :, :1])

    def test_otl_per_activity_varies(self):
        # With per-activity sampling some (cd, rd) pair should show variation
        # across activities (probabilistically certain over seeds).
        varied = False
        for seed in range(10):
            sc = materialize(ScenarioSpec(n_tasks=2, otl_per_pair=False), seed=seed)
            levels = sc.grid.trust_table.levels
            if not np.all(levels == levels[:, :, :1]):
                varied = True
                break
        assert varied

    def test_f_override_flag_reaches_ets(self):
        on = materialize(ScenarioSpec(n_tasks=2, ets_f_forces_max=True), seed=0)
        off = materialize(ScenarioSpec(n_tasks=2, ets_f_forces_max=False), seed=0)
        assert on.grid.trust_table.ets.f_forces_max is True
        assert off.grid.trust_table.ets.f_forces_max is False

    def test_heterogeneity_flows_through(self):
        lo = materialize(ScenarioSpec(n_tasks=200), seed=0)
        hi = materialize(ScenarioSpec(n_tasks=200, heterogeneity=HIHI), seed=0)
        assert hi.eec.mean() > lo.eec.mean() * 10

    def test_consistent_eec_rows_sorted(self):
        sc = materialize(
            ScenarioSpec(n_tasks=20, consistency=Consistency.CONSISTENT), seed=0
        )
        assert np.all(np.diff(sc.eec, axis=1) >= 0)

    def test_task_indices_match_request_indices(self):
        sc = materialize(ScenarioSpec(n_tasks=15), seed=0)
        for r in sc.requests:
            assert r.task.index == r.index


class TestBurstiness:
    def test_bursty_arrivals_have_higher_cov(self):
        import numpy as np

        smooth = materialize(ScenarioSpec(n_tasks=300, arrival_rate=0.05), seed=4)
        bursty = materialize(
            ScenarioSpec(n_tasks=300, arrival_rate=0.05, burstiness=6.0), seed=4
        )
        def cov(scenario):
            gaps = np.diff([r.arrival_time for r in scenario.requests])
            return gaps.std() / gaps.mean()
        assert cov(bursty) > cov(smooth) * 1.2

    def test_burstiness_validated(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(burstiness=1.0)

    def test_burstiness_round_trips(self):
        from repro.workloads.serialization import scenario_from_dict, scenario_to_dict

        sc = materialize(ScenarioSpec(n_tasks=5, burstiness=3.0), seed=1)
        rebuilt = scenario_from_dict(scenario_to_dict(sc))
        assert rebuilt.spec.burstiness == 3.0
