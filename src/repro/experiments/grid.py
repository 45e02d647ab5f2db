"""Generic parameter-grid sweeps over workload profiles.

The figure reproducers hard-code the paper's sweeps; this module is the
general tool behind the sensitivity benches: take a base profile, vary any
subset of its fields over a grid, run any set of evaluators on every cell
(averaged over seeds), and pivot the results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.context import RunContext
from repro.experiments.parallel import SweepCell, as_spec, run_cells, seed_mean
from repro.experiments.runner import AlgorithmResult
from repro.workload.generator import Scenario
from repro.workload.profiles import WorkloadProfile

__all__ = ["GridCell", "run_grid", "pivot"]

Evaluator = Callable[[Scenario], AlgorithmResult]


@dataclass(frozen=True)
class GridCell:
    """One (parameter point × evaluator) measurement.

    :param point: the varied fields and their values at this cell.
    :param evaluator: evaluator name.
    :param metrics: metric name → seed-averaged value.
    """

    point: Mapping[str, Any]
    evaluator: str
    metrics: Mapping[str, float]

    def metric(self, name: str) -> float:
        """One metric's value.

        :raises KeyError: for unknown metric names.
        """
        return self.metrics[name]


_METRIC_FIELDS = (
    "total_energy_j",
    "mean_latency_s",
    "unsatisfied_rate",
    "processing_time_s",
    "involved_devices",
)


def run_grid(
    base: WorkloadProfile,
    axes: Mapping[str, Sequence[Any]],
    evaluators: Mapping[str, Evaluator],
    seeds: Sequence[int] = (0,),
    jobs: Optional[int] = 1,
    context: Optional[RunContext] = None,
) -> List[GridCell]:
    """Evaluate every grid point with every evaluator.

    :param base: the profile to vary.
    :param axes: field name → values; the grid is the cross product.
    :param evaluators: evaluator name → callable on a scenario.
    :param seeds: seeds averaged per cell.
    :param jobs: worker processes for the (point × seed) fan-out; ``1``
        runs in-process, ``None``/``0`` use every CPU.  Results are
        bit-identical to the sequential path for the same seeds.
    :param context: run configuration stamped onto every cell; ``None``
        lets :func:`~repro.experiments.parallel.run_cells` stamp the
        caller's active context instead.
    :raises ValueError: for empty axes, evaluators or unknown fields.
    """
    if not axes:
        raise ValueError("need at least one axis")
    if not evaluators:
        raise ValueError("need at least one evaluator")
    for field in axes:
        if field not in WorkloadProfile.__dataclass_fields__:
            raise ValueError(f"unknown profile field {field!r}")

    specs = tuple(
        as_spec(name, evaluator) for name, evaluator in evaluators.items()
    )
    names = list(axes)
    points: List[Dict[str, Any]] = []
    work: List[SweepCell] = []
    for combo in itertools.product(*(axes[name] for name in names)):
        point = dict(zip(names, combo))
        profile = base.with_updates(**point)
        points.append(point)
        for seed in seeds:
            work.append(
                SweepCell(
                    index=len(work), profile=profile, seed=seed,
                    evaluators=specs, context=context,
                )
            )
    per_cell = run_cells(work, jobs=jobs)

    cells: List[GridCell] = []
    n_seeds = len(seeds)
    for point_idx, point in enumerate(points):
        rows = per_cell[point_idx * n_seeds : (point_idx + 1) * n_seeds]
        for spec_idx, spec in enumerate(specs):
            metrics = {
                field: seed_mean(rows, lambda row: getattr(row[spec_idx], field))
                for field in _METRIC_FIELDS
            }
            cells.append(
                GridCell(point=point, evaluator=spec.name, metrics=metrics)
            )
    return cells


def pivot(
    cells: Sequence[GridCell],
    axis: str,
    metric: str,
    evaluator: str,
) -> List[Tuple[Any, float]]:
    """Extract one evaluator's metric along one axis (other axes averaged).

    :param cells: grid output.
    :param axis: the field to read off.
    :param metric: the metric to extract.
    :param evaluator: which evaluator's cells to use.
    :returns: sorted (axis value, mean metric) pairs.
    :raises ValueError: when nothing matches.
    """
    buckets: Dict[Any, List[float]] = {}
    for cell in cells:
        if cell.evaluator != evaluator or axis not in cell.point:
            continue
        buckets.setdefault(cell.point[axis], []).append(cell.metric(metric))
    if not buckets:
        raise ValueError(
            f"no cells match evaluator={evaluator!r} with axis {axis!r}"
        )
    return [
        (value, float(np.mean(buckets[value]))) for value in sorted(buckets)
    ]
