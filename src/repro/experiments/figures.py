"""Reproducers for every figure of Section V.

Each ``figNx()`` function regenerates the series of the corresponding paper
figure: same sweeps, same competitors, same metric.  Results are averaged
over ``seeds`` scenario seeds.  Absolute joules/seconds depend on constants
the paper does not publish (see DESIGN.md); the *shapes* — who wins, by
roughly what factor, where the curves move — are the reproduction target
and are asserted by the benchmark suite.

Divisible-task figures scale the shared-data universe with the task count
(``num_data_items ≈ 2 × tasks``) so that "more tasks" also means "more
shared data", matching the paper's narrative that DTA's savings grow with
the workload.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.parallel import (
    EvaluatorSpec,
    SweepCell,
    dta_spec,
    holistic_spec,
    run_cells,
    seed_mean,
)
from repro.experiments.runner import AlgorithmResult
from repro.registry import (
    ALL_OFFLOAD,
    ALL_TO_CLOUD,
    HGOS_NAME,
    LP_HTA,
)
from repro.experiments.series import SeriesData
from repro.units import KB
from repro.workload.generator import Scenario
from repro.workload.profiles import PAPER_DEFAULTS, WorkloadProfile

__all__ = [
    "ALL_FIGURES",
    "DEFAULT_SEEDS",
    "fig2a",
    "fig2b",
    "fig3",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "fig6a",
    "fig6b",
    "run_figure",
]

#: Seeds averaged by default; pass fewer for a quick look.
DEFAULT_SEEDS: Tuple[int, ...] = (0, 1, 2)

#: Sweep of "number of tasks" used by Figs 2a/3/4a/5a (paper: 100 → 450).
TASK_SWEEP: Tuple[int, ...] = (100, 150, 200, 250, 300, 350, 400, 450)

#: Sweep of "maximum input size" (kB) used by Figs 2b/4b (paper: 1000 → 5000).
INPUT_SWEEP_KB: Tuple[int, ...] = (1000, 2000, 3000, 4000, 5000)

#: Replication used by the divisible-task figures (higher overlap makes the
#: involved-devices contrast of Fig 6b visible, as in dense deployments).
_DTA_REPLICATION = 6.0

Evaluator = Callable[[Scenario], AlgorithmResult]

# Picklable evaluator descriptions (see repro.experiments.parallel): the
# figure sweeps fan out over worker processes, so the evaluators must be
# data, not closures.
_holistic = holistic_spec
_dta = dta_spec


def _divisible(profile: WorkloadProfile) -> WorkloadProfile:
    """Mark a profile divisible and scale its data universe with tasks.

    Divisible tasks are mostly external data (the owner holds only its own
    slice of the shared universe), so the holistic deadline range would make
    LP-HTA cancel half the workload and deflate its energy — an
    apples-to-oranges energy comparison.  The Fig 5/6 experiments therefore
    use analytics-style deadlines loose enough that every method serves the
    full workload, which is the regime the paper's energy plots describe.
    """
    return profile.with_updates(
        divisible=True,
        num_data_items=max(200, 2 * profile.num_tasks),
        item_replication=_DTA_REPLICATION,
        deadline_range_s=(2.0, 10.0),
    )


def _sweep(
    figure_id: str,
    title: str,
    x_label: str,
    y_label: str,
    x_values: Sequence[Union[int, float, str]],
    profiles: Sequence[WorkloadProfile],
    evaluators: Sequence[EvaluatorSpec],
    metric: str,
    seeds: Sequence[int],
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> SeriesData:
    """Run every evaluator over every sweep point, averaging over seeds."""
    specs = tuple(evaluators)
    work = [
        SweepCell(
            index=index,
            profile=profile,
            seed=seed,
            evaluators=specs,
        )
        for index, (profile, seed) in enumerate(
            (profile, seed) for profile in profiles for seed in seeds
        )
    ]
    per_cell = run_cells(work, jobs=jobs, start_method=start_method)

    series: Dict[str, List[float]] = {spec.name: [] for spec in specs}
    n_seeds = len(seeds)
    for point_idx in range(len(profiles)):
        rows = per_cell[point_idx * n_seeds : (point_idx + 1) * n_seeds]
        for spec_idx, spec in enumerate(specs):
            series[spec.name].append(
                seed_mean(rows, lambda row: getattr(row[spec_idx], metric))
            )
    return SeriesData(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        y_label=y_label,
        x_values=tuple(x_values),
        series={name: tuple(values) for name, values in series.items()},
    )


def fig2a(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> SeriesData:
    """Fig 2(a): energy vs number of tasks (LP-HTA, HGOS, AllToC, AllOffload)."""
    profiles = [
        PAPER_DEFAULTS.with_updates(num_tasks=n, max_input_bytes=3000 * KB)
        for n in TASK_SWEEP
    ]
    return _sweep(
        "fig2a", "Energy cost vs number of tasks",
        "number of tasks", "total energy (J)",
        TASK_SWEEP, profiles,
        [_holistic(n) for n in (LP_HTA, HGOS_NAME, ALL_TO_CLOUD, ALL_OFFLOAD)],
        "total_energy_j", seeds, jobs=jobs, start_method=start_method,
    )


def fig2b(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> SeriesData:
    """Fig 2(b): energy vs maximum input size, 100 tasks."""
    profiles = [
        PAPER_DEFAULTS.with_updates(num_tasks=100, max_input_bytes=kb * KB)
        for kb in INPUT_SWEEP_KB
    ]
    return _sweep(
        "fig2b", "Energy cost vs maximum input size",
        "max input size (kB)", "total energy (J)",
        INPUT_SWEEP_KB, profiles,
        [_holistic(n) for n in (LP_HTA, HGOS_NAME, ALL_TO_CLOUD, ALL_OFFLOAD)],
        "total_energy_j", seeds, jobs=jobs, start_method=start_method,
    )


def fig3(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> SeriesData:
    """Fig 3: unsatisfied-task rate vs number of tasks (no AllToC)."""
    profiles = [
        PAPER_DEFAULTS.with_updates(num_tasks=n, max_input_bytes=3000 * KB)
        for n in TASK_SWEEP
    ]
    return _sweep(
        "fig3", "Unsatisfied task rate vs number of tasks",
        "number of tasks", "unsatisfied task rate",
        TASK_SWEEP, profiles,
        [_holistic(n) for n in (LP_HTA, HGOS_NAME, ALL_OFFLOAD)],
        "unsatisfied_rate", seeds, jobs=jobs, start_method=start_method,
    )


def fig4a(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> SeriesData:
    """Fig 4(a): average latency vs number of tasks."""
    profiles = [
        PAPER_DEFAULTS.with_updates(num_tasks=n, max_input_bytes=3000 * KB)
        for n in TASK_SWEEP
    ]
    return _sweep(
        "fig4a", "Average latency vs number of tasks",
        "number of tasks", "average latency (s)",
        TASK_SWEEP, profiles,
        [_holistic(n) for n in (LP_HTA, HGOS_NAME, ALL_TO_CLOUD, ALL_OFFLOAD)],
        "mean_latency_s", seeds, jobs=jobs, start_method=start_method,
    )


def fig4b(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> SeriesData:
    """Fig 4(b): average latency vs maximum input size, 100 tasks."""
    profiles = [
        PAPER_DEFAULTS.with_updates(num_tasks=100, max_input_bytes=kb * KB)
        for kb in INPUT_SWEEP_KB
    ]
    return _sweep(
        "fig4b", "Average latency vs maximum input size",
        "max input size (kB)", "average latency (s)",
        INPUT_SWEEP_KB, profiles,
        [_holistic(n) for n in (LP_HTA, HGOS_NAME, ALL_TO_CLOUD, ALL_OFFLOAD)],
        "mean_latency_s", seeds, jobs=jobs, start_method=start_method,
    )


def fig5a(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> SeriesData:
    """Fig 5(a): energy vs number of tasks (LP-HTA, DTA-Workload, DTA-Number)."""
    profiles = [
        _divisible(
            PAPER_DEFAULTS.with_updates(
                num_tasks=n, max_input_bytes=3000 * KB, result_ratio=0.2
            )
        )
        for n in TASK_SWEEP
    ]
    return _sweep(
        "fig5a", "Energy cost vs number of tasks (divisible tasks)",
        "number of tasks", "total energy (J)",
        TASK_SWEEP, profiles,
        [_holistic(LP_HTA), _dta("workload"), _dta("number")],
        "total_energy_j", seeds, jobs=jobs, start_method=start_method,
    )


def fig5b(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> SeriesData:
    """Fig 5(b): energy vs result size (0.4X … 0.05X, constant), 100 tasks."""
    labels: Tuple[str, ...] = ("0.4X", "0.2X", "0.1X", "0.05X", "const")
    base = PAPER_DEFAULTS.with_updates(num_tasks=100, max_input_bytes=3000 * KB)
    profiles = [
        _divisible(base.with_updates(result_ratio=0.4)),
        _divisible(base.with_updates(result_ratio=0.2)),
        _divisible(base.with_updates(result_ratio=0.1)),
        _divisible(base.with_updates(result_ratio=0.05)),
        _divisible(base.with_updates(result_constant_bytes=10 * KB)),
    ]
    return _sweep(
        "fig5b", "Energy cost vs result size (divisible tasks)",
        "result size", "total energy (J)",
        labels, profiles,
        [_holistic(LP_HTA), _dta("workload"), _dta("number")],
        "total_energy_j", seeds, jobs=jobs, start_method=start_method,
    )


def fig6a(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> SeriesData:
    """Fig 6(a): processing time, DTA-Workload vs DTA-Number, 200 tasks."""
    sweep_kb = (1200, 1400, 1600, 1800, 2000)
    profiles = [
        _divisible(
            PAPER_DEFAULTS.with_updates(num_tasks=200, max_input_bytes=kb * KB)
        )
        for kb in sweep_kb
    ]
    return _sweep(
        "fig6a", "Processing time vs maximum input size (divisible tasks)",
        "max input size (kB)", "processing time (s)",
        sweep_kb, profiles,
        [_dta("workload"), _dta("number")],
        "processing_time_s", seeds, jobs=jobs, start_method=start_method,
    )


def fig6b(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> SeriesData:
    """Fig 6(b): involved devices, DTA-Workload vs DTA-Number, 2000 kB."""
    sweep_tasks = (100, 300, 500, 700, 900)
    profiles = [
        _divisible(
            PAPER_DEFAULTS.with_updates(num_tasks=n, max_input_bytes=2000 * KB)
        )
        for n in sweep_tasks
    ]
    return _sweep(
        "fig6b", "Involved mobile devices vs number of tasks (divisible tasks)",
        "number of tasks", "involved mobile devices",
        sweep_tasks, profiles,
        [_dta("workload"), _dta("number")],
        "involved_devices", seeds, jobs=jobs, start_method=start_method,
    )


#: Every reproducible figure, keyed by id.
ALL_FIGURES: Mapping[str, Callable[..., SeriesData]] = {
    "fig2a": fig2a,
    "fig2b": fig2b,
    "fig3": fig3,
    "fig4a": fig4a,
    "fig4b": fig4b,
    "fig5a": fig5a,
    "fig5b": fig5b,
    "fig6a": fig6a,
    "fig6b": fig6b,
}


def run_figure(
    figure_id: str,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> SeriesData:
    """Regenerate one figure's data by id.

    :param figure_id: a key of :data:`ALL_FIGURES`.
    :param seeds: scenario seeds to average over.
    :param jobs: worker processes for the sweep (``1`` = in-process).
    :param start_method: multiprocessing start method for ``jobs > 1``
        (see :func:`repro.experiments.parallel.run_cells`).
    """
    try:
        producer = ALL_FIGURES[figure_id]
    except KeyError:
        raise ValueError(
            f"unknown figure {figure_id!r}; choose from {sorted(ALL_FIGURES)}"
        ) from None
    return producer(seeds=seeds, jobs=jobs, start_method=start_method)
