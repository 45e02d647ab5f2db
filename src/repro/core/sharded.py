"""LP-HTA over a sharded system, with Lagrangian cloud-budget coordination.

The monolithic :func:`repro.core.hta.lp_hta` already solves clusters
independently; a shard is a group of whole clusters
(:mod:`repro.system.sharding`), so with the paper's uncapped cloud the
sharded solve is *literally* the monolithic solve regrouped:

- each shard view is a standalone :class:`~repro.system.topology.MECSystem`
  whose cost rows are bitwise equal to the monolithic table's rows (halo
  devices carry the external-source geometry across the shard boundary),
- every cluster of every shard pools into the same block-diagonal
  mega-solve (:func:`repro.core.hta.lp_hta_batch`), whose per-block results
  are independent of batch composition,
- concatenating the shard outputs in sorted-station order reproduces the
  monolithic cluster order, so the final report is bit-identical.

With a *finite* shared cloud budget the shards couple, and the solver runs
a capacity-splitting outer loop through
:func:`repro.core.lagrangian.coordinate_shared_capacity`: the cloud column
is priced at ν per resource unit, the priced per-cluster relaxations
decompose again (and batch again), the fractional cloud load drives a
projected-subgradient update of ν, and each iteration recovers a feasible
primal by priced rounding plus a global largest-first cloud-overflow
repair.  Weak duality makes the best dual value a lower bound, so the
returned report carries an honest duality gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.context import RunContext, current_context
from repro.core.assignment import Assignment, Subsystem
from repro.core.costs import ClusterCosts, cluster_costs
from repro.core.hta import (
    ClusterReport,
    HTAReport,
    LPHTAOptions,
    _cluster_slices,
    _options_from_context,
    _solve_p2_ladder,
    lp_hta_batch,
    lp_hta_cluster,
)
from repro.core.lagrangian import (
    CoordinatorOptions,
    coordinate_shared_capacity,
    guarded_relative_gap,
)
from repro.core.lp_builder import reshape_solution
from repro.core.task import Task
from repro.system.sharding import ShardSpec, ShardedSystem
from repro.system.topology import MECSystem

__all__ = ["ShardedHTAReport", "lp_hta_sharded"]

_DEVICE, _STATION, _CLOUD = 0, 1, 2


@dataclass(frozen=True)
class ShardedHTAReport(HTAReport):
    """An :class:`~repro.core.hta.HTAReport` plus shard/coordinator facts.

    The inherited ``clusters`` always describe the ν = 0 (unpriced)
    per-cluster solves — for an uncapped cloud these are the final solves;
    under a binding budget they are the uncoordinated baseline while the
    assignment itself comes from the best coordinated iteration.

    :param num_shards: shards the system was split into.
    :param outer_iterations: coordinator iterations run (0 when the cloud
        budget is infinite and no coordination was needed).
    :param best_dual_j: best Lagrangian dual value — a lower bound on the
        (capacity-constrained) optimum; equals the LP bound when ν = 0.
    :param cloud_capacity: the shared cloud budget.
    :param cloud_load: resource the returned assignment puts on the cloud.
    :param dual_history: dual value per outer iteration.
    """

    num_shards: int = 1
    outer_iterations: int = 0
    best_dual_j: float = 0.0
    cloud_capacity: float = float("inf")
    cloud_load: float = 0.0
    dual_history: Tuple[float, ...] = ()

    @property
    def primal_energy_j(self) -> float:
        """Energy of the returned assignment."""
        return self.assignment.total_energy_j()

    @property
    def duality_gap_j(self) -> float:
        """primal − best dual.

        Non-negative up to solver tolerance whenever the repair cancelled
        nothing; cancellations can push the primal energy below the bound
        (the bound prices *served* work), which the relative gap guard
        treats as exact.
        """
        return self.primal_energy_j - self.best_dual_j

    @property
    def relative_gap(self) -> float:
        """Duality gap relative to the dual bound (guarded for the
        degenerate zero-bound case)."""
        return guarded_relative_gap(self.duality_gap_j, self.best_dual_j)


def _cloud_load(costs: ClusterCosts, decisions: Sequence[Subsystem]) -> float:
    """Resource the decisions place on the cloud."""
    return float(
        sum(
            float(costs.resource[row])
            for row, decision in enumerate(decisions)
            if decision is Subsystem.CLOUD
        )
    )


def _repair_cloud_overflow(
    costs: ClusterCosts,
    decisions: List[Subsystem],
    system: MECSystem,
    capacity: float,
) -> None:
    """Global Step-6 analogue for the shared cloud budget (in place).

    Largest-C-first over the cloud-assigned rows: pull each back to its
    base station if the deadline and the station's residual capacity
    allow, else to its own device under the same conditions, else cancel.
    Mirrors the paper's repair style (greedy by resource occupation,
    deterministic order) one level up.
    """
    load = _cloud_load(costs, decisions)
    if load <= capacity:
        return
    deadline_ok = costs.time_s <= costs.deadline_s[:, None]
    station_load: Dict[int, float] = {}
    device_load: Dict[int, float] = {}
    for row, decision in enumerate(decisions):
        owner = costs.tasks[row].owner_device_id
        if decision is Subsystem.STATION:
            station_id = system.cluster_of(owner)
            station_load[station_id] = (
                station_load.get(station_id, 0.0) + float(costs.resource[row])
            )
        elif decision is Subsystem.DEVICE:
            device_load[owner] = device_load.get(owner, 0.0) + float(
                costs.resource[row]
            )
    cloud_rows = [
        row for row, decision in enumerate(decisions) if decision is Subsystem.CLOUD
    ]
    for row in sorted(cloud_rows, key=lambda r: (-float(costs.resource[r]), r)):
        if load <= capacity:
            break
        demand = float(costs.resource[row])
        owner = costs.tasks[row].owner_device_id
        station_id = system.cluster_of(owner)
        if (
            deadline_ok[row, _STATION]
            and station_load.get(station_id, 0.0) + demand
            <= system.station(station_id).max_resource
        ):
            decisions[row] = Subsystem.STATION
            station_load[station_id] = station_load.get(station_id, 0.0) + demand
        elif (
            deadline_ok[row, _DEVICE]
            and device_load.get(owner, 0.0) + demand
            <= system.device(owner).max_resource
        ):
            decisions[row] = Subsystem.DEVICE
            device_load[owner] = device_load.get(owner, 0.0) + demand
        else:
            decisions[row] = Subsystem.CANCELLED
        load -= demand


def _priced_costs(costs: ClusterCosts, nu: float) -> ClusterCosts:
    """The cluster's cost table with the cloud column priced at ν."""
    if nu == 0.0:
        return costs  # identity keeps fingerprints (and cache hits) exact
    energy = costs.energy_j.copy()
    energy[:, _CLOUD] = energy[:, _CLOUD] + nu * costs.resource
    return ClusterCosts(
        tasks=costs.tasks,
        time_s=costs.time_s,
        energy_j=energy,
        resource=costs.resource,
        deadline_s=costs.deadline_s,
    )


def lp_hta_sharded(
    system: MECSystem,
    tasks: Sequence[Task],
    spec: Optional[ShardSpec] = None,
    options: Optional[LPHTAOptions] = None,
    coordinator: Optional[CoordinatorOptions] = None,
    cloud_capacity: float = float("inf"),
    context: Optional[RunContext] = None,
) -> ShardedHTAReport:
    """Run LP-HTA shard by shard, coordinating any shared cloud budget.

    With ``cloud_capacity=inf`` (the paper's model) the result is
    bit-identical to :func:`repro.core.hta.lp_hta` for *any* spec — the
    differential tests pin this.  With a finite budget the shards couple
    and a Lagrangian outer loop prices the cloud column; the report then
    carries the duality gap of the best recovered primal.

    :param system: the global MEC system.
    :param tasks: the holistic tasks (global row order).
    :param spec: station partition; defaults to one shard holding every
        station.
    :param options: LP-HTA tunables, shared by every shard.
    :param coordinator: outer-loop tunables (finite budgets only).
    :param cloud_capacity: shared cloud resource budget.
    :param context: run configuration; defaults to the active context.
    """
    context = context if context is not None else current_context()
    if options is None:
        options = _options_from_context(context)
    tasks = list(tasks)
    if spec is None:
        spec = ShardSpec.balanced(system.stations.keys(), 1)
    sharded = ShardedSystem(system, spec)
    views = sharded.views(tasks, cloud_capacity=cloud_capacity)
    costs = cluster_costs(system, tasks)
    telemetry = context.telemetry

    if math.isinf(cloud_capacity):
        # Uncapped cloud: shards never couple.  One mega-solve pools every
        # cluster of every shard; regrouping in sorted-station order
        # reproduces the monolithic output bit for bit.
        reports = lp_hta_batch(
            [(view.system, [tasks[row] for row in view.task_rows]) for view in views],
            options,
            context,
        )
        decisions: List[Subsystem] = [Subsystem.CANCELLED] * len(tasks)
        for view, report in zip(views, reports):
            for local_row, decision in zip(view.task_rows, report.assignment.decisions):
                decisions[local_row] = decision
        clusters = tuple(
            sorted(
                (cluster for report in reports for cluster in report.clusters),
                key=lambda cluster: cluster.station_id,
            )
        )
        assignment = Assignment(costs, decisions)
        best_dual = sum(cluster.lp_objective_j for cluster in clusters)
        telemetry.metrics.incr("shard.solves", len(views))
        gap = assignment.total_energy_j() - best_dual
        telemetry.metrics.incr("shard.duality_gap_j", gap)
        relative = guarded_relative_gap(gap, best_dual)
        if math.isfinite(relative):
            telemetry.metrics.observe("coordinator.duality_gap_rel", relative)
        return ShardedHTAReport(
            assignment=assignment,
            clusters=clusters,
            num_shards=spec.num_shards,
            outer_iterations=0,
            best_dual_j=best_dual,
            cloud_capacity=cloud_capacity,
            cloud_load=_cloud_load(costs, decisions),
            dual_history=(),
        )

    # Finite shared budget: decompose per shard at a cloud price ν and let
    # the coordinator drive ν.  Slices are prepared once — only the priced
    # energy column changes between iterations.
    prepared = []
    for view in views:
        view_tasks = [tasks[row] for row in view.task_rows]
        view_costs = cluster_costs(view.system, view_tasks)
        slices = _cluster_slices(view.system, view_tasks, view_costs)
        prepared.append((view, slices))
    base_clusters: List[ClusterReport] = []

    def solve_priced(nu: float) -> Tuple[float, float, Tuple[Any, ...], Any]:
        jobs = []
        meta = []
        for view, slices in prepared:
            for cluster_slice in slices:
                priced = _priced_costs(cluster_slice.costs, nu)
                jobs.append(
                    (priced, cluster_slice.device_caps, cluster_slice.station_cap)
                )
                meta.append((view, cluster_slice, priced))
        results = _solve_p2_ladder(jobs, options, context)
        telemetry.metrics.incr("shard.solves", len(prepared))

        objective = 0.0
        fractional_load = 0.0
        decisions: List[Subsystem] = [Subsystem.CANCELLED] * len(tasks)
        clusters: List[ClusterReport] = []
        greedy_rung = False
        for (view, cluster_slice, priced), result in zip(meta, results):
            # A block that fell all the way to the greedy rung carries a
            # one-hot objective, not an LP lower bound: poison the whole
            # iteration's dual value so weak duality stays honest.
            greedy_rung = greedy_rung or result.backend == "greedy"
            objective += float(result.objective)
            x_fractional = reshape_solution(result.require_ok(), priced.num_tasks)
            fractional_load += float(
                np.dot(priced.resource, x_fractional[:, _CLOUD])
            )
            sub_decisions, report = lp_hta_cluster(
                priced,
                cluster_slice.device_caps,
                cluster_slice.station_cap,
                options,
                station_id=cluster_slice.station_id,
                context=context,
                lp_result=result,
            )
            for local_row, decision in zip(cluster_slice.rows, sub_decisions):
                decisions[view.task_rows[local_row]] = decision
            clusters.append(report)
        if not base_clusters:
            # First iteration runs at ν = 0, so these reports are the
            # true-cost (uncoordinated) per-cluster diagnostics.
            base_clusters.extend(
                sorted(clusters, key=lambda cluster: cluster.station_id)
            )
        _repair_cloud_overflow(costs, decisions, system, cloud_capacity)
        energy = float(
            sum(
                float(costs.energy_j[row, decision.column])
                for row, decision in enumerate(decisions)
                if decision is not Subsystem.CANCELLED
            )
        )
        cancelled = sum(
            1 for decision in decisions if decision is Subsystem.CANCELLED
        )
        if greedy_rung:
            objective = float("-inf")
        return objective, fractional_load, (cancelled, energy), decisions

    outcome = coordinate_shared_capacity(solve_priced, cloud_capacity, coordinator)
    assignment = Assignment(costs, list(outcome.best_payload))
    gap = assignment.total_energy_j() - outcome.best_dual_j
    telemetry.metrics.incr("shard.outer_iterations", outcome.iterations_run)
    telemetry.metrics.incr("shard.duality_gap_j", gap)
    relative = guarded_relative_gap(gap, outcome.best_dual_j)
    if math.isfinite(relative):
        telemetry.metrics.observe("coordinator.duality_gap_rel", relative)
    return ShardedHTAReport(
        assignment=assignment,
        clusters=tuple(base_clusters),
        num_shards=spec.num_shards,
        outer_iterations=outcome.iterations_run,
        best_dual_j=outcome.best_dual_j,
        cloud_capacity=cloud_capacity,
        cloud_load=_cloud_load(costs, assignment.decisions),
        dual_history=outcome.dual_history,
    )
