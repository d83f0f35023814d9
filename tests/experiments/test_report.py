"""Tests for the full-report generator."""

import pytest

from repro.experiments.report import generate_report, write_report


@pytest.fixture(scope="module")
def report():
    # Tiny replication count: this exercises structure, not statistics.
    return generate_report(replications=2)


class TestGenerateReport:
    def test_contains_every_table(self, report):
        for name in ["table1", "table2", "table3", "sfi"] + [
            f"table{n}" for n in range(4, 10)
        ]:
            assert name in report.tables
            assert f"## {name}" in report.markdown

    def test_scheduling_sections_have_significance_lines(self, report):
        assert "paired t(" in report.markdown
        assert "p = " in report.markdown

    def test_markdown_is_str_of_report(self, report):
        assert str(report) == report.markdown

    def test_write_report(self, tmp_path):
        path = write_report(tmp_path / "report.md", replications=2)
        text = path.read_text()
        assert text.startswith("# Reproduction report")
        assert "table9" in text


class TestCliCommands:
    def test_report_command(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.md"
        assert main(["report", "--output", str(out), "--replications", "2"]) == 0
        assert out.exists()
        assert "report written" in capsys.readouterr().out

    def test_families_command(self, capsys):
        from repro.cli import main

        assert main(["families", "--replications", "2", "--tasks", "15"]) == 0
        out = capsys.readouterr().out
        assert "sufferage" in out and "duplex" in out
        # Title, header and rule, then one row per heuristic: production
        # kernels plan identically to their reference and are not listed.
        rows = out.strip().splitlines()[3:]
        assert len(rows) == 9
        assert not [row for row in rows if "-fast" in row]

    def test_ablations_command(self, capsys):
        from repro.cli import main

        assert main(["ablations", "--replications", "2"]) == 0
        out = capsys.readouterr().out
        assert "unaware_fraction" in out

    def test_session_command(self, capsys):
        from repro.cli import main

        assert main(["session", "--rounds", "2", "--requests", "10"]) == 0
        out = capsys.readouterr().out
        assert "trust evolution" in out
