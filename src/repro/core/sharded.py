"""LP-HTA with a station partition and a shared cloud budget.

The monolithic :func:`repro.core.hta.lp_hta` already solves clusters
independently (paper Sec. III-A), and a shard is a group of whole
clusters (:class:`repro.system.sharding.ShardSpec`).  So the shard split
cannot change any per-cluster solve: :func:`lp_hta_sharded` validates its
spec, then solves the monolithic cluster slices in one block-diagonal
batch.  With the paper's uncapped cloud that is one solve, bit-identical
to :func:`~repro.core.hta.lp_hta`.

With a *finite* shared cloud budget the clusters couple, and the solver
runs a capacity-splitting outer loop through
:func:`repro.core.lagrangian.coordinate_shared_capacity`: the cloud column
is priced at ν per resource unit, the priced per-cluster relaxations
decompose again (and batch again), the fractional cloud load drives a
projected-subgradient update of ν, and each iteration recovers a feasible
primal by priced rounding plus a global largest-first cloud-overflow
repair.  Weak duality makes the best dual value a lower bound, so the
returned report carries an honest duality gap — unless no relaxed
assignment meets the budget at all, in which case the dual grows without
bound and the report says the budget is infeasible instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.context import RunContext, current_context
from repro.core.assignment import Assignment, Subsystem
from repro.core.costs import ClusterCosts, cluster_costs
from repro.core.hta import (
    ClusterReport,
    HTAReport,
    LPHTAOptions,
    _ClusterSlice,
    _cluster_slices,
    _options_from_context,
    _solve_p2_ladder,
    lp_hta_cluster,
)
from repro.core.lagrangian import (
    CoordinatorOptions,
    coordinate_shared_capacity,
    guarded_relative_gap,
)
from repro.core.lp_builder import reshape_solution
from repro.core.task import Task
from repro.system.sharding import ShardSpec
from repro.system.topology import MECSystem

__all__ = ["ShardedHTAReport", "lp_hta_sharded"]

_DEVICE, _STATION, _CLOUD = 0, 1, 2

#: Slack of the budget-feasibility test, per unit of total resource demand.
#: The interior-point solve stops at a 1e-8 relative residual, so a least
#: cloud load that is truly 0 comes back as about 1e-7.
_LOAD_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ShardedHTAReport(HTAReport):
    """An :class:`~repro.core.hta.HTAReport` plus shard/coordinator facts.

    The inherited ``clusters`` always describe the ν = 0 (unpriced)
    per-cluster solves — for an uncapped cloud these are the final solves;
    under a binding budget they are the uncoordinated baseline while the
    assignment itself comes from the best coordinated iteration.

    :param num_shards: shards the spec split the stations into.
    :param outer_iterations: coordinator iterations run (0 when the cloud
        budget is infinite and no coordination was needed).
    :param best_dual_j: best Lagrangian dual value — a lower bound on the
        (capacity-constrained) optimum when the budget is feasible; equals
        the LP bound when ν = 0, and is ``-inf`` when a block fell to the
        greedy rung (a one-hot objective bounds nothing).
    :param cloud_capacity: the shared cloud budget.
    :param cloud_load: resource the returned assignment puts on the cloud.
    :param dual_history: dual value per outer iteration.
    :param budget_feasible: whether some relaxed assignment serving every
        task meets the budget.  When it does not, the dual grows without
        bound, so ``best_dual_j`` is no bound and the gaps are NaN.
    """

    num_shards: int = 1
    outer_iterations: int = 0
    best_dual_j: float = 0.0
    cloud_capacity: float = float("inf")
    cloud_load: float = 0.0
    dual_history: Tuple[float, ...] = ()
    budget_feasible: bool = True

    @property
    def primal_energy_j(self) -> float:
        """Energy of the returned assignment."""
        return self.assignment.total_energy_j()

    @property
    def duality_gap_j(self) -> float:
        """primal − best dual (NaN for an infeasible budget).

        Non-negative up to solver tolerance whenever the repair cancelled
        nothing; cancellations can push the primal energy below the bound
        (the bound prices *served* work), which the relative gap guard
        treats as exact.
        """
        if not self.budget_feasible:
            return float("nan")
        return self.primal_energy_j - self.best_dual_j

    @property
    def relative_gap(self) -> float:
        """Duality gap relative to the dual bound (guarded for the
        degenerate zero-bound case; NaN for an infeasible budget)."""
        if not self.budget_feasible:
            return float("nan")
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
    return replace(costs, energy_j=energy)


def _min_cloud_load(
    slices: Sequence[_ClusterSlice], options: LPHTAOptions, context: RunContext
) -> float:
    """A lower bound on the least fractional cloud load of the relaxation.

    Each cluster's P2 is re-solved with ``resource`` as the cost of the
    cloud column and 0 elsewhere, over the same constraints.  When this
    exceeds the budget, no relaxed assignment that serves every task meets
    it, so the priced dual rises without bound as ν grows.  A block that
    fell to the greedy rung bounds nothing and counts 0, which every
    block's load is at least.
    """
    jobs = []
    for cluster_slice in slices:
        cloud_only = np.zeros_like(cluster_slice.costs.energy_j)
        cloud_only[:, _CLOUD] = cluster_slice.costs.resource
        jobs.append(
            (
                replace(cluster_slice.costs, energy_j=cloud_only),
                cluster_slice.device_caps,
                cluster_slice.station_cap,
            )
        )
    return sum(
        float(result.objective)
        for result in _solve_p2_ladder(jobs, options, context)
        if result.backend != "greedy"
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
    """Run LP-HTA over a station partition, coordinating any cloud budget.

    With ``cloud_capacity=inf`` (the paper's model) the result is
    bit-identical to :func:`repro.core.hta.lp_hta` for *any* spec — the
    differential tests pin this.  With a finite budget the clusters couple
    and a Lagrangian outer loop prices the cloud column; the report then
    carries the duality gap of the best recovered primal.  Either way the
    result does not depend on the spec.

    :param system: the global MEC system.
    :param tasks: the holistic tasks (global row order).
    :param spec: station partition; must cover exactly the system's
        stations.  Defaults to one shard holding every station.
    :param options: LP-HTA tunables, shared by every cluster.
    :param coordinator: outer-loop tunables (finite budgets only).
    :param cloud_capacity: shared cloud resource budget (``>= 0``).
    :param context: run configuration; defaults to the active context.
    """
    if not cloud_capacity >= 0:  # also rejects NaN
        raise ValueError(f"cloud_capacity must be >= 0, got {cloud_capacity!r}")
    context = context if context is not None else current_context()
    if options is None:
        options = _options_from_context(context)
    tasks = list(tasks)
    if spec is None:
        spec = ShardSpec.balanced(system.stations.keys(), 1)
    spec_stations, system_stations = set(spec.station_ids), set(system.stations)
    if spec_stations != system_stations:
        raise ValueError(
            "shard spec must cover exactly the system's stations (missing "
            f"{sorted(system_stations - spec_stations)}, "
            f"unknown {sorted(spec_stations - system_stations)})"
        )
    # A shard with no attached device has nothing to solve.
    solved_shards = sum(
        1 for shard in spec.shards
        if any(system.cluster_members(station_id) for station_id in shard)
    )
    costs = cluster_costs(system, tasks)
    slices = _cluster_slices(system, costs)
    telemetry = context.telemetry
    # The ν = 0 solve's cluster reports and fractional cloud load.
    unpriced: List[Tuple[Tuple[ClusterReport, ...], float]] = []

    def solve_priced(nu: float) -> Tuple[float, float, Tuple[Any, ...], Any]:
        priced = [_priced_costs(cluster_slice.costs, nu) for cluster_slice in slices]
        results = _solve_p2_ladder(
            [
                (priced_costs, cluster_slice.device_caps, cluster_slice.station_cap)
                for priced_costs, cluster_slice in zip(priced, slices)
            ],
            options,
            context,
        )
        telemetry.metrics.incr("shard.solves", solved_shards)

        objective = 0.0
        fractional_load = 0.0
        decisions: List[Subsystem] = [Subsystem.CANCELLED] * len(tasks)
        clusters: List[ClusterReport] = []
        greedy_rung = False
        for cluster_slice, priced_costs, result in zip(slices, priced, results):
            # A block that fell all the way to the greedy rung carries a
            # one-hot objective, not an LP lower bound: poison the whole
            # iteration's dual value so weak duality stays honest.
            greedy_rung = greedy_rung or result.backend == "greedy"
            objective += float(result.objective)
            x_fractional = reshape_solution(result.require_ok(), priced_costs.num_tasks)
            fractional_load += float(
                np.dot(priced_costs.resource, x_fractional[:, _CLOUD])
            )
            sub_decisions, report = lp_hta_cluster(
                priced_costs,
                cluster_slice.device_caps,
                cluster_slice.station_cap,
                options,
                station_id=cluster_slice.station_id,
                context=context,
                lp_result=result,
            )
            for row, decision in zip(cluster_slice.rows, sub_decisions):
                decisions[row] = decision
            clusters.append(report)
        if not unpriced:
            # The first solve runs at ν = 0, so these reports are the
            # true-cost (uncoordinated) per-cluster diagnostics.
            unpriced.append((tuple(clusters), fractional_load))
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

    if math.isinf(cloud_capacity):
        # Uncapped cloud: nothing couples the clusters, so ν = 0 is optimal.
        best_dual, _, _, decisions = solve_priced(0.0)
        iterations, history = 0, ()
    else:
        outcome = coordinate_shared_capacity(solve_priced, cloud_capacity, coordinator)
        best_dual, decisions = outcome.best_dual_j, list(outcome.best_payload)
        iterations, history = outcome.iterations_run, outcome.dual_history
    clusters, unpriced_load = unpriced[0]
    report = ShardedHTAReport(
        assignment=Assignment(costs, decisions),
        clusters=clusters,
        num_shards=spec.num_shards,
        outer_iterations=iterations,
        best_dual_j=best_dual,
        cloud_capacity=cloud_capacity,
        cloud_load=_cloud_load(costs, decisions),
        dual_history=history,
        budget_feasible=(
            unpriced_load <= cloud_capacity
            or _min_cloud_load(slices, options, context)
            <= cloud_capacity + _LOAD_TOLERANCE * float(costs.resource.sum())
        ),
    )
    if iterations:
        telemetry.metrics.incr("shard.outer_iterations", iterations)
    if math.isfinite(report.duality_gap_j):
        telemetry.metrics.incr("shard.duality_gap_j", report.duality_gap_j)
        if math.isfinite(report.relative_gap):
            telemetry.metrics.observe("coordinator.duality_gap_rel", report.relative_gap)
    return report
