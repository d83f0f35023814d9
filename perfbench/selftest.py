#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload scaled down to seconds.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every metric ``BENCHMARK.json`` names prints with its unit
in the matching mode, that the output checks pass, that a tampered
schedule digest makes the command fail, that ``trace.unattributed_frac``
stays within the benchmark's bound, and that the command fails without
printing a result in a directory holding only the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

#: Workload size multiplier and seconds per invocation for the self-test.
SCALE = "0.03"
SECONDS = "1"


def invoke(workload: str, trace: int, seed: int = 7) -> tuple[int, list[str]]:
    """Run the benchmark in-process; returns (exit code, stdout lines)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main([
            "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
            "--trace", str(trace), "--scale", SCALE,
        ])
    return code, out.getvalue().splitlines()


class BenchmarkSelfTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def expected(self, trace: int) -> dict[str, str]:
        key = "per_layer" if trace else "end_to_end"
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_every_metric_prints_with_its_unit_and_checks_pass(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = invoke(workload, trace)
                    result = json.loads(lines[-1])
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    self.assertEqual(
                        {k: v["unit"] for k, v in metrics.items()}, self.expected(trace)
                    )
                    for name, unit in self.expected(trace).items():
                        self.assertTrue(math.isfinite(metrics[name]["value"]), name)
                        self.assertTrue(
                            any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                                for line in lines),
                            f"{name} is not printed with its unit {unit}",
                        )
                    if trace:
                        self.assertLessEqual(
                            metrics["trace.unattributed_frac"]["value"], run.UNATTRIBUTED_BOUND
                        )
                    else:
                        for name in ("throughput_rps", "window_p50_s", "setup_s"):
                            self.assertGreater(metrics[name]["value"], 0.0, name)

    def test_tampered_digest_fails_the_command(self):
        import workloads

        original = workloads.schedule_digest
        calls = []

        def tampered(schedule):
            calls.append(None)
            digest = original(schedule)
            return digest if len(calls) == 1 else digest[::-1]

        workloads.schedule_digest = tampered
        try:
            code, lines = invoke("batch-scale", 0)
        finally:
            workloads.schedule_digest = original
        self.assertNotEqual(code, 0)
        self.assertFalse(json.loads(lines[-1])["correct"])

    def test_fails_without_the_program_source(self):
        bare = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
        try:
            shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = subprocess.run(
                [sys.executable, *self.spec["command"][1:], "--workload", "batch-scale",
                 "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            with contextlib.suppress(OSError):
                bare.parent.rmdir()
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
