"""Command-line interface: ``repro-trms`` / ``python -m repro``.

Subcommands::

    repro-trms table 4              # regenerate one paper table (1-9)
    repro-trms tables               # regenerate all of them
    repro-trms sfi                  # the Section-5.1 sandboxing overheads
    repro-trms figure1              # the architecture diagram
    repro-trms theorem mct          # empirical makespan-dominance check
    repro-trms run --heuristic mct --tasks 50 --seed 1   # one simulation
    repro-trms faults               # fault-injection resilience comparison
    repro-trms trustfaults          # adversarial recommenders vs purging
    repro-trms profile paper        # instrumented run: manifest + traces
    repro-trms bench trust          # regenerate the trust-kernel perf artifact

Experiment subcommands accept ``--workers N`` to spread independent
replications or study arms over a process pool (default: every core);
parallel runs are bit-identical to sequential ones.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """Argparse type for flags that only make sense strictly positive."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-trms",
        description=(
            "Trust-aware Grid resource management — reproduction of "
            "Azzedin & Maheswaran, ICPP 2002."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="regenerate one paper table (1-9)")
    p_table.add_argument("number", type=int, choices=range(1, 10))
    p_table.add_argument(
        "--replications", type=int, default=10,
        help="paired runs per cell for scheduling tables (default 10)",
    )
    p_table.add_argument("--seed", type=int, default=0, help="base seed")
    p_table.add_argument(
        "--workers", type=_positive_int, default=None,
        help="replication-pool width for scheduling tables (default: every core)",
    )

    p_tables = sub.add_parser("tables", help="regenerate every paper table")
    p_tables.add_argument("--replications", type=int, default=10)
    p_tables.add_argument("--seed", type=int, default=0)
    p_tables.add_argument("--workers", type=_positive_int, default=None)

    sub.add_parser("sfi", help="Section-5.1 SFI sandboxing overheads")
    sub.add_parser("figure1", help="Figure-1 architecture diagram")

    p_thm = sub.add_parser("theorem", help="empirical makespan-dominance check")
    p_thm.add_argument("heuristic", help="heuristic name, e.g. mct")
    p_thm.add_argument("--trials", type=int, default=20)
    p_thm.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="run one paired simulation")
    p_run.add_argument("--heuristic", default="mct")
    p_run.add_argument("--tasks", type=int, default=50)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--consistency", default="inconsistent",
        choices=["consistent", "inconsistent", "semi-consistent"],
    )

    p_report = sub.add_parser(
        "report", help="regenerate every experiment into a Markdown report"
    )
    p_report.add_argument("--output", default="reproduction_report.md")
    p_report.add_argument("--replications", type=int, default=10)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--workers", type=_positive_int, default=None)

    p_fam = sub.add_parser(
        "families", help="trust gains across the full heuristic family"
    )
    p_fam.add_argument("--replications", type=int, default=8)
    p_fam.add_argument("--tasks", type=int, default=50)
    p_fam.add_argument("--workers", type=_positive_int, default=None)

    p_abl = sub.add_parser(
        "ablations", help="ablate the reproduction-critical design choices"
    )
    p_abl.add_argument("--replications", type=int, default=8)

    p_sess = sub.add_parser(
        "session", help="run the closed Figure-1 loop (trust evolution)"
    )
    p_sess.add_argument("--rounds", type=int, default=6)
    p_sess.add_argument("--requests", type=int, default=40)
    p_sess.add_argument("--seed", type=int, default=0)

    p_faults = sub.add_parser(
        "faults", help="fault injection: trust-aware vs unaware resilience"
    )
    p_faults.add_argument("--rounds", type=int, default=8)
    p_faults.add_argument("--requests", type=int, default=30)
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument("--heuristic", default="mct")
    p_faults.add_argument(
        "--crash-prob", type=float, default=0.6,
        help="per-attempt crash probability on the flaky domain (default 0.6)",
    )
    p_faults.add_argument(
        "--mtbf", type=float, default=None,
        help="also fail whole machines with this mean time between failures",
    )
    p_faults.add_argument(
        "--max-attempts", type=int, default=3,
        help="execution attempts before a request is dropped (default 3)",
    )
    p_faults.add_argument(
        "--workers", type=_positive_int, default=None,
        help="run the policy arms in parallel processes (default: every core)",
    )

    p_tf = sub.add_parser(
        "trustfaults",
        help="trust-plane attack: honest vs attacked vs defended",
    )
    p_tf.add_argument("--rounds", type=int, default=8)
    p_tf.add_argument("--requests", type=int, default=30)
    p_tf.add_argument("--seed", type=int, default=0)
    p_tf.add_argument("--heuristic", default="mct")
    p_tf.add_argument(
        "--target-rd", type=int, default=0,
        help="the flaky resource domain the attack props up (default 0)",
    )
    p_tf.add_argument(
        "--recommenders", type=int, default=4,
        help="adversarial recommenders per attack group (default 4)",
    )
    p_tf.add_argument(
        "--purge-threshold", type=float, default=0.3,
        help="accuracy below which the defended arm purges (default 0.3)",
    )
    p_tf.add_argument(
        "--artifact", default=None,
        help="also write the machine-readable study JSON to this path",
    )
    p_tf.add_argument(
        "--workers", type=_positive_int, default=None,
        help="run the study arms in parallel processes (default: every core)",
    )

    p_bench = sub.add_parser(
        "bench", help="regenerate a perf-trajectory artifact (JSON)"
    )
    p_bench.add_argument("target", choices=["trust"])
    p_bench.add_argument(
        "--output", default=None,
        help="artifact path (default: BENCH_trust.json at the repo root)",
    )
    p_bench.add_argument("--repeats", type=int, default=3)

    p_val = sub.add_parser(
        "validate", help="run the codified acceptance checks of DESIGN.md"
    )
    p_val.add_argument("--replications", type=int, default=10)
    p_val.add_argument("--seed", type=int, default=0)

    p_ser = sub.add_parser(
        "series", help="sweep a knob and render an ASCII improvement chart"
    )
    p_ser.add_argument(
        "knob", choices=["load", "machines", "batch-interval"],
        help="which knob to sweep",
    )
    p_ser.add_argument("--replications", type=int, default=6)
    p_ser.add_argument("--heuristic", default=None)

    sub.add_parser("heuristics", help="list the registered mapping heuristics")

    p_save = sub.add_parser(
        "save-scenario", help="materialise a scenario and write it to JSON"
    )
    p_save.add_argument("output", help="path of the scenario JSON to write")
    p_save.add_argument("--tasks", type=int, default=50)
    p_save.add_argument("--seed", type=int, default=0)
    p_save.add_argument(
        "--consistency", default="inconsistent",
        choices=["consistent", "inconsistent", "semi-consistent"],
    )

    p_replay = sub.add_parser(
        "replay", help="run a paired simulation on a saved scenario JSON"
    )
    p_replay.add_argument("scenario", help="path of a saved scenario JSON")
    p_replay.add_argument("--heuristic", default="mct")

    p_prof = sub.add_parser(
        "profile",
        help="run one instrumented simulation and emit manifest + traces",
    )
    p_prof.add_argument(
        "scenario",
        help=(
            "a saved scenario JSON path, or 'paper' for the stock "
            "Section-5.3 scenario"
        ),
    )
    p_prof.add_argument("--heuristic", default="mct")
    p_prof.add_argument("--tasks", type=int, default=50)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument(
        "--consistency", default="inconsistent",
        choices=["consistent", "inconsistent", "semi-consistent"],
    )
    p_prof.add_argument(
        "--policy", default="aware", choices=["aware", "unaware"],
        help="trust policy of the profiled run (default aware)",
    )
    p_prof.add_argument(
        "--output-dir", default=None,
        help="artifact directory (default profile-<scenario name>)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the always-on scheduling service over a scenario",
    )
    p_serve.add_argument(
        "scenario",
        nargs="?",
        default="paper",
        help=(
            "a saved scenario JSON path, or 'paper' for the stock "
            "Section-5.3 scenario (default)"
        ),
    )
    p_serve.add_argument("--heuristic", default="min-min")
    p_serve.add_argument("--tasks", type=_positive_int, default=200)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--consistency", default="inconsistent",
        choices=["consistent", "inconsistent", "semi-consistent"],
    )
    p_serve.add_argument(
        "--policy", default="aware", choices=["aware", "unaware"],
    )
    p_serve.add_argument(
        "--queue-capacity", type=_positive_int, default=None,
        help="bound on the pending queue; overflowing arrivals are shed",
    )
    p_serve.add_argument(
        "--rate", type=float, default=None,
        help="token-bucket admission rate (requests per simulated second)",
    )
    p_serve.add_argument(
        "--burst", type=float, default=1.0,
        help="token-bucket burst capacity (default 1)",
    )
    p_serve.add_argument(
        "--deadline", type=float, default=None,
        help="shed queued requests waiting longer than this (simulated s)",
    )
    p_serve.add_argument(
        "--backpressure-high", type=_positive_int, default=None,
        help="backlog size that engages backpressure on ingestion",
    )
    p_serve.add_argument(
        "--crash-prob", type=float, default=None,
        help="inject per-attempt task crashes with this probability",
    )
    p_serve.add_argument(
        "--mtbf", type=float, default=None,
        help="inject machine failures with this mean time between failures",
    )
    p_serve.add_argument(
        "--mttr", type=float, default=300.0,
        help="mean repair time for injected machine failures (default 300)",
    )
    p_serve.add_argument(
        "--trust-blackout", action="store_true",
        help="run with the trust source dark (degraded trust-unaware pricing)",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=_positive_int, default=None,
        help="take a boundary checkpoint every N windows",
    )
    p_serve.add_argument(
        "--checkpoint-out", default=None,
        help="write the final boundary checkpoint JSON to this path",
    )
    return parser


def _cmd_table(
    number: int, replications: int, seed: int, workers: int | None = None
) -> str:
    from repro.experiments import (
        reproduce_scheduling_table,
        reproduce_table1,
        reproduce_table2,
        reproduce_table3,
    )

    if number == 1:
        return reproduce_table1().rendering
    if number == 2:
        return reproduce_table2().rendering
    if number == 3:
        return reproduce_table3().rendering
    return reproduce_scheduling_table(
        number, replications=replications, base_seed=seed, workers=workers
    ).rendering


def _cmd_run(heuristic: str, tasks: int, seed: int, consistency: str) -> str:
    from repro.experiments import PAPER_BATCH_INTERVAL, paper_policies, paper_spec
    from repro.experiments.runner import run_single
    from repro.metrics import PairedComparison, format_percent, format_seconds
    from repro.workloads import Consistency

    spec = paper_spec(tasks, Consistency.from_name(consistency))
    aware, unaware = paper_policies()
    r_aware = run_single(
        spec, heuristic, aware, seed, batch_interval=PAPER_BATCH_INTERVAL
    )
    r_unaware = run_single(
        spec, heuristic, unaware, seed, batch_interval=PAPER_BATCH_INTERVAL
    )
    pair = PairedComparison(aware=r_aware, unaware=r_unaware)
    lines = [
        f"heuristic={heuristic} tasks={tasks} seed={seed} ({consistency} LoLo)",
        f"  trust-unaware: avg completion {format_seconds(r_unaware.average_completion_time)}"
        f"  makespan {format_seconds(r_unaware.makespan)}"
        f"  utilization {format_percent(r_unaware.machine_utilization)}",
        f"  trust-aware:   avg completion {format_seconds(r_aware.average_completion_time)}"
        f"  makespan {format_seconds(r_aware.makespan)}"
        f"  utilization {format_percent(r_aware.machine_utilization)}",
        f"  improvement:   {format_percent(pair.completion_improvement)}",
    ]
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # Output was piped into a consumer (head, less) that closed early;
        # exit quietly like a well-behaved Unix tool.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(args) -> int:
    """Execute the parsed subcommand."""
    if args.command == "table":
        print(_cmd_table(args.number, args.replications, args.seed, args.workers))
    elif args.command == "tables":
        for number in range(1, 10):
            print(_cmd_table(number, args.replications, args.seed, args.workers))
            print()
    elif args.command == "sfi":
        from repro.experiments import reproduce_sfi_overheads

        print(reproduce_sfi_overheads().rendering)
    elif args.command == "figure1":
        from repro.experiments import reproduce_figure1

        print(reproduce_figure1().rendering)
    elif args.command == "theorem":
        from repro.analysis import check_dominance

        report = check_dominance(args.heuristic, trials=args.trials, base_seed=args.seed)
        status = "HOLDS" if report.holds else f"{report.violations} violation(s)"
        print(
            f"makespan dominance for {args.heuristic}: {status} over "
            f"{report.trials} trials (mean margin {report.mean_margin:.2%})"
        )
    elif args.command == "run":
        print(_cmd_run(args.heuristic, args.tasks, args.seed, args.consistency))
    elif args.command == "report":
        from repro.experiments import write_report

        path = write_report(
            args.output, replications=args.replications, base_seed=args.seed,
            workers=args.workers,
        )
        print(f"report written to {path}")
    elif args.command == "families":
        print(_cmd_families(args.replications, args.tasks, args.workers))
    elif args.command == "ablations":
        print(_cmd_ablations(args.replications))
    elif args.command == "session":
        print(_cmd_session(args.rounds, args.requests, args.seed))
    elif args.command == "faults":
        print(
            _cmd_faults(
                args.rounds, args.requests, args.seed, args.heuristic,
                args.crash_prob, args.mtbf, args.max_attempts, args.workers,
            )
        )
    elif args.command == "trustfaults":
        print(
            _cmd_trustfaults(
                args.rounds, args.requests, args.seed, args.heuristic,
                args.target_rd, args.recommenders, args.purge_threshold,
                args.artifact, args.workers,
            )
        )
    elif args.command == "bench":
        print(_cmd_bench(args.target, args.output, args.repeats))
    elif args.command == "validate":
        from repro.experiments import validate_reproduction

        checks = validate_reproduction(
            replications=args.replications, base_seed=args.seed
        )
        for check in checks:
            print(check)
        if not all(c.passed for c in checks):
            return 1
    elif args.command == "series":
        from repro.experiments.series import (
            ascii_chart,
            improvement_vs_batch_interval,
            improvement_vs_load,
            improvement_vs_machines,
        )

        generators = {
            "load": (improvement_vs_load, "mct"),
            "machines": (improvement_vs_machines, "mct"),
            "batch-interval": (improvement_vs_batch_interval, "min-min"),
        }
        generator, default_heuristic = generators[args.knob]
        series = generator(
            heuristic=args.heuristic or default_heuristic,
            replications=args.replications,
        )
        print(ascii_chart(series))
    elif args.command == "heuristics":
        from repro.scheduling.registry import heuristic_names, is_batch, make_heuristic

        for name in heuristic_names():
            mode = "batch " if is_batch(name) else "online"
            doc = (make_heuristic(name).__doc__ or "").strip().splitlines()[0]
            print(f"{name:<15} [{mode}] {doc}")
    elif args.command == "save-scenario":
        from repro.experiments import paper_spec
        from repro.workloads import Consistency, materialize, save_scenario

        spec = paper_spec(args.tasks, Consistency.from_name(args.consistency))
        scenario = materialize(spec, seed=args.seed)
        path = save_scenario(scenario, args.output)
        print(
            f"scenario written to {path} ({len(scenario.requests)} requests, "
            f"{scenario.grid.n_machines} machines, seed {args.seed})"
        )
    elif args.command == "replay":
        from repro.experiments import PAPER_BATCH_INTERVAL, paper_policies
        from repro.metrics import PairedComparison, format_percent, format_seconds
        from repro.scheduling import TRMScheduler, is_batch, make_heuristic
        from repro.workloads import load_scenario

        scenario = load_scenario(args.scenario)
        aware, unaware = paper_policies()
        results = {}
        for policy in (aware, unaware):
            heuristic = make_heuristic(args.heuristic)
            interval = PAPER_BATCH_INTERVAL if is_batch(args.heuristic) else None
            results[policy.label] = TRMScheduler(
                scenario.grid, scenario.eec, policy, heuristic,
                batch_interval=interval,
            ).run(scenario.requests)
        pair = PairedComparison(
            aware=results["trust-aware"], unaware=results["trust-unaware"]
        )
        for label, result in results.items():
            print(
                f"{label:>14}: avg completion "
                f"{format_seconds(result.average_completion_time)}"
            )
        print(f"{'improvement':>14}: {format_percent(pair.completion_improvement)}")
    elif args.command == "profile":
        print(
            _cmd_profile(
                args.scenario, args.heuristic, args.tasks, args.seed,
                args.consistency, args.policy, args.output_dir,
            )
        )
    elif args.command == "serve":
        print(_cmd_serve(args))
    else:  # pragma: no cover - argparse guards
        return 2
    return 0


def _cmd_profile(
    scenario_arg: str,
    heuristic_name: str,
    tasks: int,
    seed: int,
    consistency: str,
    policy_name: str,
    output_dir: str | None,
) -> str:
    from pathlib import Path

    from repro.experiments import PAPER_BATCH_INTERVAL, paper_spec
    from repro.obs import ProfiledRun
    from repro.scheduling import TRMScheduler, TrustPolicy, is_batch, make_heuristic
    from repro.workloads import Consistency, load_scenario, materialize

    if Path(scenario_arg).exists():
        scenario = load_scenario(scenario_arg)
        name = Path(scenario_arg).stem
        config = scenario.spec
        seed = scenario.seed
    elif scenario_arg == "paper":
        spec = paper_spec(tasks, Consistency.from_name(consistency))
        scenario = materialize(spec, seed=seed)
        name = f"paper-{heuristic_name}"
        config = spec
    else:
        raise SystemExit(
            f"unknown scenario {scenario_arg!r}: pass a scenario JSON path "
            "or 'paper'"
        )

    policy = (
        TrustPolicy.aware() if policy_name == "aware" else TrustPolicy.unaware()
    )
    heuristic = make_heuristic(heuristic_name)
    interval = PAPER_BATCH_INTERVAL if is_batch(heuristic_name) else None
    with ProfiledRun(name=name, config=config, seed=seed) as prof:
        result = TRMScheduler(
            scenario.grid,
            scenario.eec,
            policy,
            heuristic,
            batch_interval=interval,
            tracer=prof.tracer,
            metrics=prof.metrics,
        ).run(scenario.requests)
        prof.record_result(result)
    paths = prof.write_artifacts(output_dir or f"profile-{name}")
    lines = [prof.report(), ""]
    lines += [f"{kind}: {path}" for kind, path in sorted(paths.items())]
    return "\n".join(lines)


def _cmd_serve(args) -> str:
    from pathlib import Path

    from repro.experiments import paper_policies, paper_spec
    from repro.faults import FaultModel, MachineFailureModel, TaskFailureModel
    from repro.metrics import format_percent, format_seconds
    from repro.service import AdmissionPolicy, ServiceConfig, replay_scenario
    from repro.service.checkpoint import save_checkpoint
    from repro.trustfaults import TrustFaultModel, TrustSourceFault
    from repro.workloads import Consistency, load_scenario, materialize

    if args.scenario == "paper":
        spec = paper_spec(args.tasks, Consistency.from_name(args.consistency))
        scenario = materialize(spec, seed=args.seed)
    elif Path(args.scenario).exists():
        scenario = load_scenario(args.scenario)
    else:
        raise SystemExit(
            f"unknown scenario {args.scenario!r}: pass a scenario JSON path "
            "or 'paper'"
        )

    aware, unaware = paper_policies()
    policy = aware if args.policy == "aware" else unaware
    admission = AdmissionPolicy(
        queue_capacity=args.queue_capacity,
        rate=args.rate,
        burst=args.burst,
        deadline=args.deadline,
    )
    config = ServiceConfig(
        admission=admission, backpressure_high=args.backpressure_high
    )
    faults = None
    if args.crash_prob is not None or args.mtbf is not None:
        faults = FaultModel(
            tasks=(
                TaskFailureModel(default_crash_prob=args.crash_prob)
                if args.crash_prob is not None
                else None
            ),
            machines=(
                MachineFailureModel(mtbf=args.mtbf, mttr=args.mttr)
                if args.mtbf is not None
                else None
            ),
        )
    trust_faults = (
        TrustFaultModel(table=TrustSourceFault(blackout=True))
        if args.trust_blackout
        else None
    )
    result = replay_scenario(
        scenario,
        args.heuristic,
        policy,
        config=config,
        faults=faults,
        fault_seed=args.seed,
        trust_faults=trust_faults,
        checkpoint_every=args.checkpoint_every,
    )
    schedule = result.schedule
    lines = [
        f"service drained: {result.submitted} submitted, "
        f"{result.admitted} admitted, {result.shed_total} shed over "
        f"{result.windows} windows",
        f"  completed {schedule.n_completed}  dropped {schedule.n_dropped}  "
        f"failures {len(schedule.failures)}",
        f"  makespan {format_seconds(schedule.effective_makespan)}  "
        f"utilization {format_percent(schedule.machine_utilization)}",
    ]
    if result.shed:
        shed = "  ".join(f"{k}={v}" for k, v in sorted(result.shed.items()))
        lines.append(f"  shed breakdown: {shed}")
    if result.backpressure_engagements:
        lines.append(
            f"  backpressure engaged {result.backpressure_engagements}x, "
            f"released {result.backpressure_releases}x"
        )
    if result.watchdog_trips:
        lines.append(f"  watchdog trips: {result.watchdog_trips}")
    if args.checkpoint_out is not None:
        if not result.checkpoint_payloads:
            lines.append("  no checkpoints taken (see --checkpoint-every)")
        else:
            path = save_checkpoint(
                result.checkpoint_payloads[-1], args.checkpoint_out
            )
            lines.append(f"  checkpoint written to {path}")
    return "\n".join(lines)


def _cmd_families(replications: int, tasks: int, workers: int | None = None) -> str:
    from repro.experiments import PAPER_BATCH_INTERVAL, paper_policies, paper_spec
    from repro.experiments.parallel import run_paired_cell_parallel
    from repro.metrics import Table, format_percent, format_seconds
    from repro.scheduling import is_batch, reference_names
    from repro.workloads import Consistency

    aware, unaware = paper_policies()
    spec = paper_spec(tasks, Consistency.INCONSISTENT)
    table = Table(
        headers=["Heuristic", "Mode", "Unaware CT", "Aware CT", "Improvement"],
        title=f"Trust gains, inconsistent LoLo, {tasks} tasks:",
    )
    for name in reference_names():
        cell = run_paired_cell_parallel(
            spec, name, aware, unaware,
            replications=replications, batch_interval=PAPER_BATCH_INTERVAL,
            workers=workers,
        )
        table.add_row(
            name,
            "batch" if is_batch(name) else "online",
            format_seconds(cell.unaware_completion.mean),
            format_seconds(cell.aware_completion.mean),
            format_percent(cell.mean_improvement),
        )
    return table.render()


def _cmd_ablations(replications: int) -> str:
    from repro.analysis import (
        ablate_accounting,
        ablate_f_override,
        ablate_otl_granularity,
        ablate_unaware_fraction,
    )
    from repro.metrics import Table, format_percent

    table = Table(
        headers=["Knob", "Value", "MCT improvement"],
        title="Ablations of the reproduction-critical choices:",
    )
    for knob, points in (
        ("accounting", ablate_accounting(replications=replications)),
        ("unaware_fraction", ablate_unaware_fraction(replications=replications)),
        ("otl_per_pair", ablate_otl_granularity(replications=replications)),
        ("ets_f_forces_max", ablate_f_override(replications=replications)),
    ):
        for p in points:
            value = getattr(p.value, "value", p.value)
            table.add_row(knob, str(value), format_percent(p.improvement))
    return table.render()


def _cmd_faults(
    rounds: int,
    requests: int,
    seed: int,
    heuristic: str,
    crash_prob: float,
    mtbf: float | None,
    max_attempts: int,
    workers: int | None = None,
) -> str:
    from repro.experiments import PAPER_BATCH_INTERVAL, run_fault_recovery
    from repro.faults import RetryPolicy
    from repro.metrics import Table, format_percent
    from repro.scheduling import is_batch

    study = run_fault_recovery(
        seed=seed,
        rounds=rounds,
        requests_per_round=requests,
        heuristic=heuristic,
        batch_interval=PAPER_BATCH_INTERVAL if is_batch(heuristic) else None,
        flaky_crash_prob=crash_prob,
        mtbf=mtbf,
        retry=RetryPolicy(max_attempts=max_attempts),
        workers=workers,
    )
    table = Table(
        headers=[
            "Policy", "Completed", "Dropped", "Failures",
            "Goodput", "Wasted work",
        ],
        title=(
            f"Fault recovery under a flaky domain ({heuristic}, "
            f"crash prob {crash_prob:g}, {rounds} rounds):"
        ),
    )
    for o in (study.unaware, study.aware):
        table.add_row(
            o.label,
            f"{o.completed}/{o.submitted}",
            o.dropped,
            o.failures,
            f"{o.goodput:.5f}",
            format_percent(o.wasted_work_fraction),
        )
    lines = [
        table.render(),
        "",
        f"goodput gain: {format_percent(study.goodput_gain)}   "
        f"wasted-work reduction: {study.waste_reduction:+.1%}",
    ]
    return "\n".join(lines)


def _cmd_trustfaults(
    rounds: int,
    requests: int,
    seed: int,
    heuristic: str,
    target_rd: int,
    recommenders: int,
    purge_threshold: float,
    artifact: str | None,
    workers: int | None = None,
) -> str:
    from repro.experiments import (
        PAPER_BATCH_INTERVAL,
        run_trustfault_study,
        write_study_artifact,
    )
    from repro.metrics import Table, format_percent, format_seconds
    from repro.scheduling import is_batch

    study = run_trustfault_study(
        seed=seed,
        rounds=rounds,
        requests_per_round=requests,
        heuristic=heuristic,
        batch_interval=PAPER_BATCH_INTERVAL if is_batch(heuristic) else None,
        target_rd=target_rd,
        n_recommenders=recommenders,
        purge_threshold=purge_threshold,
        workers=workers,
    )
    table = Table(
        headers=[
            "Arm", "Completed", "Dropped", "Injected",
            "Purged", "Rep. error", "Makespan",
        ],
        title=(
            f"Trust-plane attack ({heuristic}, {recommenders} adversaries "
            f"per group, {rounds} rounds):"
        ),
    )
    for o in (study.honest, study.attacked, study.defended):
        table.add_row(
            o.label,
            o.completed,
            o.dropped,
            o.injected_opinions,
            len(o.purged),
            f"{study.reputation_error(o):.4f}",
            format_seconds(o.makespan),
        )
    lines = [
        table.render(),
        "",
        f"reputation-error recovery: {format_percent(study.error_recovery)}   "
        f"makespan recovery: {format_percent(study.makespan_recovery)}",
    ]
    if artifact is not None:
        path = write_study_artifact(study, artifact)
        lines += ["", f"artifact written to {path}"]
    return "\n".join(lines)


def _cmd_bench(target: str, output: str | None, repeats: int) -> str:
    from repro.experiments.trustbench import (
        DEFAULT_ARTIFACT,
        render_sweep,
        run_sweep,
        write_artifact,
    )

    assert target == "trust"  # argparse choices guard
    payload = run_sweep(repeats=repeats)
    path = write_artifact(payload, output if output is not None else DEFAULT_ARTIFACT)
    return "\n".join([render_sweep(payload), "", f"perf trajectory written to {path}"])


def _cmd_session(rounds: int, requests: int, seed: int) -> str:
    from repro.grid import (
        BehaviorModel,
        DegradingBehavior,
        GridSession,
        StationaryBehavior,
    )
    from repro.metrics import Table, format_seconds
    from repro.scheduling import TrustPolicy
    from repro.workloads import ScenarioSpec, materialize

    grid = materialize(
        ScenarioSpec(cd_range=(2, 2), rd_range=(3, 3)), seed=seed
    ).grid
    behavior = BehaviorModel(
        profiles={
            0: StationaryBehavior(0.9),
            1: StationaryBehavior(0.8),
            2: DegradingBehavior(start=0.9, floor=0.1, horizon=3000.0),
        }
    )
    session = GridSession(
        grid=grid,
        behavior=behavior,
        policy=TrustPolicy.aware(unaware_fraction=0.9),
        seed=seed,
    )
    result = session.run(rounds=rounds, requests_per_round=requests)
    table = Table(
        headers=["Round", "Avg flow time", "Mean TC", "Table updates", "RD levels (act 0)"],
        title="Closed-loop trust evolution (RD 2 degrades over time):",
    )
    for r in result.rounds:
        levels = "".join(
            chr(ord("A") + int(r.table_levels[0, j, 0]) - 1)
            for j in range(r.table_levels.shape[1])
        )
        table.add_row(
            r.index,
            format_seconds(r.schedule.average_flow_time),
            f"{r.mean_trust_cost:.2f}",
            r.published_updates,
            levels,
        )
    return table.render()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
