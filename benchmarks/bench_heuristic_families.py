"""Extension bench — trust-aware gains across the full [10] heuristic family.

The paper modifies three of the nine heuristics of [10]; this bench runs
the whole family (MCT, MET, OLB, KPB, SA, Min-min, Max-min, Sufferage,
Duplex) under the frozen configuration and reports each one's trust gain —
the wider comparison the paper's framework implies.
"""

from conftest import save_and_echo

from repro.experiments.config import (
    PAPER_BATCH_INTERVAL,
    paper_policies,
    paper_spec,
)
from repro.experiments.runner import run_paired_cell
from repro.metrics.report import Table, format_percent
from repro.scheduling.registry import heuristic_names
from repro.workloads.consistency import Consistency

REPS = 10


def test_heuristic_families(benchmark, results_dir):
    aware, unaware = paper_policies()
    spec = paper_spec(50, Consistency.INCONSISTENT)

    def run_all():
        return {
            name: run_paired_cell(
                spec,
                name,
                aware,
                unaware,
                replications=REPS,
                batch_interval=PAPER_BATCH_INTERVAL,
            )
            for name in heuristic_names()
        }

    cells = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        headers=["Heuristic", "Unaware CT", "Aware CT", "Improvement"],
        title="Trust gains across the full [10] heuristic family (50 tasks).",
    )
    for name, cell in sorted(cells.items()):
        table.add_row(
            name,
            f"{cell.unaware_completion.mean:,.0f}",
            f"{cell.aware_completion.mean:,.0f}",
            format_percent(cell.mean_improvement),
        )
    save_and_echo(results_dir, "heuristic_families", table.render())

    # Every heuristic benefits from trust awareness under the frozen config.
    for name, cell in cells.items():
        assert cell.mean_improvement > 0.0, f"{name} did not benefit"
    # The paper's ordering: the strong batch packer gains least because its
    # unaware baseline is already good.
    assert cells["min-min"].mean_improvement < cells["mct"].mean_improvement
    # OLB's unaware baseline (cost-blind) is the worst absolute performer.
    assert cells["olb"].unaware_completion.mean > cells["mct"].unaware_completion.mean
