#!/usr/bin/env python
"""Compare the full [10] heuristic family, with and without trust.

The paper modifies three heuristics (MCT, Min-min, Sufferage); this example
runs all nine registered heuristics over the same replicated workloads,
across both consistency classes, and prints a league table: absolute
average completion time, trust-aware improvement, and utilisation.

Run:
    python examples/heuristic_comparison.py [replications]
"""

import sys

from repro.experiments import (
    PAPER_BATCH_INTERVAL,
    paper_policies,
    paper_spec,
    run_paired_cell,
)
from repro.metrics import Table, format_percent, format_seconds
from repro.scheduling import heuristic_names, is_batch
from repro.workloads import Consistency


def main(replications: int = 8) -> None:
    aware, unaware = paper_policies()
    for consistency in (Consistency.INCONSISTENT, Consistency.CONSISTENT):
        spec = paper_spec(50, consistency)
        table = Table(
            headers=[
                "Heuristic",
                "Mode",
                "Unaware CT",
                "Aware CT",
                "Improvement",
                "Utilization",
            ],
            title=f"{consistency.value} LoLo, 50 tasks, {replications} replications:",
        )
        cells = {}
        for name in heuristic_names():
            cell = run_paired_cell(
                spec,
                name,
                aware,
                unaware,
                replications=replications,
                batch_interval=PAPER_BATCH_INTERVAL,
            )
            cells[name] = cell
            table.add_row(
                name,
                "batch" if is_batch(name) else "online",
                format_seconds(cell.unaware_completion.mean),
                format_seconds(cell.aware_completion.mean),
                format_percent(cell.mean_improvement),
                format_percent(cell.aware_utilization.mean),
            )
        print(table.render())
        best = min(cells, key=lambda n: cells[n].aware_completion.mean)
        print(f"best trust-aware heuristic: {best}\n")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
