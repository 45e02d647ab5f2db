"""Command-line interface: regenerate any figure or table of the paper.

Usage::

    mecrepro table1
    mecrepro figure fig2a --seeds 0 1 2
    mecrepro all-figures --seeds 0
    mecrepro demo --tasks 200 --seed 1
    mecrepro report --figure fig2a

Algorithm and policy choices come from :mod:`repro.registry`, so the CLI
always lists exactly what is registered.  ``--stats`` prints the run's
telemetry (LP solves, wall time, result-store, LP-cache and
scenario-memo hit rates, faults, retries, fallbacks) collected on the active
:class:`~repro.context.RunContext`.  ``--trace PATH`` / ``--log-json
PATH`` enable span tracing and export it (Chrome ``trace_event`` JSON /
JSONL); ``report`` runs one figure and prints the per-stage latency
breakdown (see :mod:`repro.obs`).

Sweeps are crash-safe: ``--journal PATH`` checkpoints every completed
cell's results and ``--resume`` replays them byte-identically after a
crash or kill; ``--cell-timeout`` / ``--max-attempts`` bound each cell's
wall-clock and retries before quarantine (see :mod:`repro.runtime`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.context import RunContext, current_context, use_context
from repro.experiments.figures import ALL_FIGURES, DEFAULT_SEEDS, run_figure
from repro.experiments.parallel import pool_scope
from repro.experiments.tables import table1_text
from repro.policies import ONLINE_POLICIES, RECOVERY_POLICIES

__all__ = ["main"]


def _jobs(value: str) -> int:
    """Argparse type for ``--jobs``: non-negative int (0 = all CPUs)."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"jobs must be an integer, got {value!r}")
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _add_jobs_and_stats(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--jobs", type=_jobs, default=1,
        help=f"worker processes for the {what} (0 = all CPUs, 1 = in-process)",
    )
    _add_stats(parser)


def _add_stats(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stats", action="store_true",
        help="print run telemetry (LP solves, wall time, result-store, "
        "LP-cache and scenario-memo hit rates) at the end",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable span tracing and write a Chrome trace_event JSON "
        "here (loadable in chrome://tracing and ui.perfetto.dev)",
    )
    parser.add_argument(
        "--log-json", default=None, metavar="PATH",
        help="enable span tracing and write a JSONL event log here "
        "(one span/counter/histogram per line)",
    )


def _add_start_method(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--start-method", choices=("fork", "spawn"), default=None,
        help="multiprocessing start method for --jobs > 1",
    )


def _add_reference(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--reference", action="store_true",
        help="run the seed-era reference implementations (scalar cost "
        "tables, dense LP assembly, naive greedy DTA; all caches off) — "
        "output is bit-identical to the optimised default, only slower",
    )


def _positive_attempts(value: str) -> int:
    """Argparse type for ``--max-attempts``: positive int."""
    try:
        attempts = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"max-attempts must be an integer, got {value!r}"
        )
    if attempts < 1:
        raise argparse.ArgumentTypeError(f"max-attempts must be >= 1, got {attempts}")
    return attempts


def _timeout(value: str) -> float:
    """Argparse type for ``--cell-timeout``: non-negative seconds."""
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cell-timeout must be a number of seconds, got {value!r}"
        )
    if seconds < 0:
        raise argparse.ArgumentTypeError(f"cell-timeout must be >= 0, got {seconds}")
    return seconds


def _add_runtime(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="checkpoint completed sweep cells to this append-only "
        "journal; a later run with --resume replays them byte-identically "
        "instead of recomputing",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay cells already recorded in --journal and compute "
        "only the rest (requires --journal)",
    )
    parser.add_argument(
        "--cell-timeout", type=_timeout, default=0.0, metavar="SECONDS",
        help="wall-clock budget per sweep cell when --jobs > 1 "
        "(0 = no timeout); a timed-out cell is retried, then quarantined",
    )
    parser.add_argument(
        "--max-attempts", type=_positive_attempts, default=2, metavar="N",
        help="attempts per sweep cell before it is quarantined "
        "(recorded with its traceback and skipped, not fatal)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mecrepro",
        description=(
            "Reproduce 'Task Assignment Algorithms in Data Shared Mobile "
            "Edge Computing Systems' (ICDCS 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table I (wireless network parameters)")

    figure = sub.add_parser("figure", help="regenerate one figure's data")
    figure.add_argument("figure_id", choices=sorted(ALL_FIGURES))
    figure.add_argument(
        "--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS),
        help="scenario seeds to average over",
    )
    figure.add_argument(
        "--chart", action="store_true",
        help="also render an ASCII chart of the series",
    )
    _add_reference(figure)
    _add_jobs_and_stats(figure, "sweep")
    _add_start_method(figure)
    _add_runtime(figure)
    _add_obs(figure)

    all_figures = sub.add_parser("all-figures", help="regenerate every figure")
    all_figures.add_argument(
        "--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS),
        help="scenario seeds to average over",
    )
    _add_reference(all_figures)
    _add_jobs_and_stats(all_figures, "sweeps")
    _add_start_method(all_figures)
    _add_runtime(all_figures)
    _add_obs(all_figures)

    demo = sub.add_parser("demo", help="run every figure algorithm on one scenario")
    demo.add_argument("--tasks", type=int, default=200)
    demo.add_argument("--seed", type=int, default=0)
    _add_stats(demo)
    _add_obs(demo)

    report = sub.add_parser(
        "report",
        help="run one figure and print the per-stage latency breakdown",
    )
    report.add_argument(
        "--figure", dest="figure_id", choices=sorted(ALL_FIGURES),
        default="fig2a", help="figure whose sweep to run and profile",
    )
    report.add_argument(
        "--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS),
        help="scenario seeds to average over",
    )
    _add_jobs_and_stats(report, "sweep")
    _add_start_method(report)
    _add_runtime(report)
    _add_obs(report)

    ratio = sub.add_parser(
        "ratio-study",
        help="measure LP-HTA's empirical ratio against exact optima",
    )
    ratio.add_argument(
        "--instances", type=int, default=20,
        help="number of small instances to solve exactly",
    )

    online = sub.add_parser(
        "online", help="epoch-scheduled Poisson arrivals, optionally mobile"
    )
    online.add_argument(
        "--policy", choices=ONLINE_POLICIES, default=ONLINE_POLICIES[0]
    )
    online.add_argument("--rate", type=float, default=0.5, help="arrivals/second")
    online.add_argument("--horizon", type=float, default=600.0, help="seconds")
    online.add_argument("--epoch", type=float, default=60.0, help="epoch length, s")
    online.add_argument(
        "--mobile", action="store_true",
        help="devices move (random waypoint); audits quasi-static drift",
    )
    online.add_argument("--seed", type=int, default=0)
    _add_stats(online)
    _add_obs(online)

    resilience = sub.add_parser(
        "resilience",
        help="sweep failure intensity: recovery policies vs fail-stop baseline",
    )
    resilience.add_argument(
        "--intensities", type=float, nargs="+", default=None,
        help="outage arrival rates (1/s) to sweep",
    )
    resilience.add_argument(
        "--policies", choices=RECOVERY_POLICIES, nargs="+",
        default=list(RECOVERY_POLICIES),
        help="recovery policies to compare",
    )
    resilience.add_argument(
        "--seeds", type=int, nargs="+", default=[0],
        help="scenario/fault seeds to average over",
    )
    resilience.add_argument(
        "--policy", choices=ONLINE_POLICIES, default=ONLINE_POLICIES[0],
        help="planning policy run every epoch",
    )
    resilience.add_argument(
        "--start-method", choices=("fork", "spawn"), default=None,
        help="multiprocessing start method for --jobs > 1",
    )
    resilience.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the canonical recovery-event trace JSON here "
        "(bit-identical across start methods for a fixed seed)",
    )
    resilience.add_argument(
        "--chart", action="store_true",
        help="also render ASCII charts of the two series",
    )
    _add_jobs_and_stats(resilience, "sweep")
    return parser


def _demo(tasks: int, seed: int) -> None:
    from repro import registry
    from repro.core import LPHTAOptions, lp_hta
    from repro.experiments.breakdown import energy_breakdown
    from repro.registry import LP_HTA
    from repro.workload import PAPER_DEFAULTS, generate_scenario

    scenario = generate_scenario(PAPER_DEFAULTS.with_updates(num_tasks=tasks), seed)
    print(f"scenario: {scenario.system}, {len(scenario.tasks)} tasks, seed={seed}")
    report = lp_hta(scenario.system, list(scenario.tasks), LPHTAOptions())
    stats = report.assignment.stats()
    print(
        f"{LP_HTA:11s} energy={stats.total_energy_j:10.1f} J  "
        f"latency={stats.mean_latency_s:5.2f} s  "
        f"unsatisfied={stats.unsatisfied_rate:6.3f}  "
        f"(ratio bound ≤ {report.ratio_bound_theorem2:.2f})"
    )
    for algorithm in registry.algorithms(holistic=True, in_figures=True):
        if algorithm.name == LP_HTA:
            continue
        result = registry.run(algorithm.name, scenario)
        print(
            f"{result.name:11s} energy={result.total_energy_j:10.1f} J  "
            f"latency={result.mean_latency_s:5.2f} s  "
            f"unsatisfied={result.unsatisfied_rate:6.3f}"
        )
    print("\nLP-HTA energy breakdown:")
    breakdown = energy_breakdown(
        scenario.system, list(scenario.tasks), report.assignment
    )
    for line in breakdown.format_table().splitlines():
        print(f"  {line}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    :param argv: arguments (defaults to ``sys.argv[1:]``).
    :returns: process exit code.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not getattr(args, "journal", None):
        parser.error("--resume requires --journal PATH")
    # One fresh context per invocation: telemetry counts exactly this run.
    # Tracing turns on only when an exporter will consume the spans.
    trace = bool(
        getattr(args, "trace", None) or getattr(args, "log_json", None)
    )
    runtime = dict(
        max_attempts=getattr(args, "max_attempts", 2),
        cell_timeout_s=getattr(args, "cell_timeout", 0.0),
        journal_path=getattr(args, "journal", None),
        resume=getattr(args, "resume", False),
    )
    context = RunContext(
        reference=getattr(args, "reference", False), trace=trace, **runtime
    )
    with use_context(context), pool_scope():
        _dispatch(args)
    if getattr(args, "stats", False):
        print()
        print(context.telemetry.summary())
    if getattr(args, "trace", None):
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(context.telemetry, args.trace)
        print(f"trace written to {args.trace}")
    if getattr(args, "log_json", None):
        from repro.obs.export import write_jsonl

        write_jsonl(context.telemetry, args.log_json)
        print(f"JSONL event log written to {args.log_json}")
    return 0


def _dispatch(args: argparse.Namespace) -> None:
    if args.command == "table1":
        print(table1_text())
    elif args.command == "figure":
        data = run_figure(
            args.figure_id, seeds=tuple(args.seeds), jobs=args.jobs,
            start_method=args.start_method,
        )
        print(data.format_table())
        if args.chart:
            print()
            print(data.render_ascii())
    elif args.command == "all-figures":
        for figure_id in sorted(ALL_FIGURES):
            print(
                run_figure(
                    figure_id, seeds=tuple(args.seeds), jobs=args.jobs,
                    start_method=args.start_method,
                ).format_table()
            )
            print()
    elif args.command == "report":
        from repro.obs.export import stage_report

        run_figure(
            args.figure_id, seeds=tuple(args.seeds), jobs=args.jobs,
            start_method=args.start_method,
        )
        print(
            f"{args.figure_id} over seeds "
            f"{','.join(str(s) for s in args.seeds)}:"
        )
        print()
        print(stage_report(current_context().telemetry))
    elif args.command == "demo":
        _demo(args.tasks, args.seed)
    elif args.command == "ratio-study":
        from repro.experiments.ratio_study import run_ratio_study

        study = run_ratio_study(seeds=tuple(range(args.instances)))
        print(
            f"LP-HTA vs exact optimum over {study.summary.n} instances "
            f"({study.skipped} skipped):"
        )
        print(f"  ratio {study.summary.format()}")
        print(f"  worst observed      {study.summary.maximum:.4f}")
        print(f"  Theorem 2 violations {study.bound_violations}")
    elif args.command == "online":
        _online(args)
    elif args.command == "resilience":
        _resilience(args)


def _online(args: argparse.Namespace) -> None:
    from repro.mobility import RandomWaypointModel
    from repro.online import OnlineOptions, PoissonArrivals, simulate_online
    from repro.workload import PAPER_DEFAULTS, generate_system

    system = generate_system(PAPER_DEFAULTS, seed=args.seed)
    arrivals = PoissonArrivals(
        system, PAPER_DEFAULTS, rate_per_s=args.rate, seed=args.seed + 1
    ).generate(args.horizon)
    mobility = None
    if args.mobile:
        positions = {d: dev.position for d, dev in system.devices.items()}
        mobility = RandomWaypointModel(
            sorted(system.devices), area_side_m=2000.0,
            speed_range_mps=(2.0, 15.0), seed=args.seed + 2,
            initial_positions=positions,
        )
    report = simulate_online(
        system, arrivals,
        OnlineOptions(epoch_length_s=args.epoch, policy=args.policy),
        mobility=mobility,
        context=current_context(),
    )
    print(
        f"{report.policy}: {report.total_tasks} tasks over "
        f"{len(report.epochs)} epochs of {args.epoch:.0f} s"
    )
    print(f"  planned energy  {report.total_planned_energy_j:10.1f} J")
    print(f"  realized energy {report.total_realized_energy_j:10.1f} J "
          f"(drift {report.drift_energy_gap_j:+.1f} J)")
    print(f"  realized miss rate {report.mean_realized_unsatisfied:.3f}")
    if mobility is not None:
        print(f"  handovers {sum(e.handovers for e in report.epochs)}")


def _resilience(args: argparse.Namespace) -> None:
    from repro.experiments.resilience import DEFAULT_INTENSITIES, resilience_sweep

    intensities = (
        tuple(args.intensities)
        if args.intensities is not None
        else DEFAULT_INTENSITIES
    )
    study = resilience_sweep(
        intensities=intensities,
        policies=tuple(args.policies),
        seeds=tuple(args.seeds),
        policy=args.policy,
        jobs=args.jobs,
        start_method=args.start_method,
    )
    energy = study.energy_series()
    miss = study.miss_series()
    print(energy.format_table())
    print()
    print(miss.format_table())
    if args.chart:
        print()
        print(energy.render_ascii())
        print()
        print(miss.render_ascii())
    if args.trace_out is not None:
        with open(args.trace_out, "w") as handle:
            handle.write(study.trace_json())
            handle.write("\n")
        print(
            f"\nrecovery-event trace written to {args.trace_out}", file=sys.stderr
        )


if __name__ == "__main__":
    sys.exit(main())
