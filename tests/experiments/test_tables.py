"""Tests for the table reproductions (shape checks against the paper)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import (
    SCHEDULING_TABLES,
    paper_policies,
    paper_spec,
    table_config,
)
from repro.experiments.tables import (
    TRANSFER_FILE_SIZES_MB,
    reproduce_scheduling_table,
    reproduce_sfi_overheads,
    reproduce_table1,
    reproduce_table2,
    reproduce_table3,
)
from repro.workloads.consistency import Consistency


class TestConfig:
    def test_all_six_scheduling_tables_defined(self):
        assert sorted(SCHEDULING_TABLES) == [4, 5, 6, 7, 8, 9]

    def test_table_config_lookup(self):
        cfg = table_config(8)
        assert cfg.heuristic == "sufferage"
        assert cfg.consistency is Consistency.INCONSISTENT
        with pytest.raises(
            ConfigurationError, match=r"no scheduling table 10; expected one of 4, 5, 6, 7, 8, 9"
        ):
            table_config(10)

    def test_paper_spec_defaults(self):
        spec = paper_spec(50, Consistency.CONSISTENT)
        assert spec.n_machines == 5
        assert spec.consistency is Consistency.CONSISTENT

    def test_paper_policies_pair(self):
        aware, unaware = paper_policies()
        assert aware.trust_aware and not unaware.trust_aware
        assert aware.accounting is unaware.accounting


class TestStaticTables:
    def test_table1_mean_and_layout(self):
        repro = reproduce_table1()
        assert "requested TL" in repro.rendering
        assert repro.data["matrix"].shape == (6, 5)

    def test_table2_rows_cover_paper_sizes(self):
        repro = reproduce_table2()
        assert set(repro.data["rows"]) == set(TRANSFER_FILE_SIZES_MB)
        for size in TRANSFER_FILE_SIZES_MB:
            row = repro.data["rows"][size]
            assert row["scp"] > row["rcp"]

    def test_table3_overheads_exceed_table2_for_large_files(self):
        t2 = reproduce_table2().data["rows"]
        t3 = reproduce_table3().data["rows"]
        for size in (100, 500, 1000):
            assert t3[size]["overhead"] > t2[size]["overhead"]

    def test_sfi_table_matches_paper_shape(self):
        repro = reproduce_sfi_overheads()
        rows = repro.data["rows"]
        assert rows["page-eviction hotlist"]["sasi"] > rows["page-eviction hotlist"]["misfit"]
        assert rows["MD5"]["misfit"] == pytest.approx(0.33, rel=0.1)


class TestSchedulingTables:
    """Small-replication smoke reproductions of Tables 4-9.

    The full-replication runs live in benchmarks/; here we assert the
    qualitative shape with a handful of replications to keep tests fast.
    """

    @pytest.mark.parametrize("number", [4, 6, 8])
    def test_trust_aware_wins(self, number):
        repro = reproduce_scheduling_table(
            number, replications=4, task_counts=(20,), base_seed=0
        )
        cell = repro.data["cells"][20]
        assert cell.mean_improvement > 0.05
        assert cell.aware_completion.mean < cell.unaware_completion.mean

    def test_rendering_contains_paper_columns(self):
        repro = reproduce_scheduling_table(4, replications=2, task_counts=(50,))
        assert "Using trust" in repro.rendering
        assert "Improvement" in repro.rendering
        assert "36.99%" in repro.rendering  # the paper's value shown alongside

    def test_task_counts_configurable(self):
        repro = reproduce_scheduling_table(5, replications=2, task_counts=(10, 15))
        assert sorted(repro.data["cells"]) == [10, 15]
