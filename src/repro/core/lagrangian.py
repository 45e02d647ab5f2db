"""Lagrangian-relaxation solver for the HTA problem.

An alternative to LP-HTA's relax-and-round: dualise the coupling
constraints C2 (device caps, multipliers :math:`\\mu_i \\ge 0`) and C3
(station cap, multiplier :math:`\\nu \\ge 0`).  The Lagrangian then
*decomposes per task* —

.. math::

   L(x, \\mu, \\nu) = \\sum_{ij}\\sum_l \\tilde{E}_{ijl}\\, x_{ijl}
      - \\sum_i \\mu_i\\, max_i - \\nu\\, max_S,
   \\qquad
   \\tilde{E}_{ij1} = E_{ij1} + \\mu_i C_{ij},\\;
   \\tilde{E}_{ij2} = E_{ij2} + \\nu C_{ij},\\;
   \\tilde{E}_{ij3} = E_{ij3},

so each task just picks its cheapest deadline-feasible subsystem at the
current prices.  Projected subgradient ascent drives the multipliers; the
per-task subproblem has the integrality property, so the dual optimum
equals the LP relaxation bound :math:`E^{(OPT)}_{LP}` — which the tests
verify against the structured IPM.

Primal recovery reuses the paper's own medicine: the price-driven decisions
are repaired exactly like LP-HTA's Steps 5–6 (greedy migrations by resource
occupation), so the result is always feasible and directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import Assignment, Subsystem
from repro.core.costs import ClusterCosts, cluster_costs
from repro.core.hta import _cluster_slices
from repro.core.task import Task
from repro.system.topology import MECSystem

__all__ = [
    "CoordinatorOptions",
    "CoordinatorOutcome",
    "LagrangianOptions",
    "LagrangianReport",
    "coordinate_shared_capacity",
    "guarded_relative_gap",
    "lagrangian_hta",
]

_DEVICE, _STATION, _CLOUD = 0, 1, 2


def guarded_relative_gap(gap_j: float, dual_j: float, tolerance: float = 1e-12) -> float:
    """``gap / dual`` with the degenerate non-positive dual guarded.

    A degenerate instance — every task local or cancelled, or no tasks at
    all — has a zero (or, numerically, slightly negative) dual bound.  If
    the gap itself is zero too, the solve is *exact* and the relative gap
    is 0, not the ``inf`` a bare division guard would report; ``inf`` is
    reserved for a genuinely unbounded ratio (positive gap over a
    non-positive bound).
    """
    if dual_j > 0:
        return gap_j / dual_j
    if abs(gap_j) <= tolerance:
        return 0.0
    return float("inf")


@dataclass(frozen=True)
class LagrangianOptions:
    """Tunables of the subgradient ascent.

    :param iterations: subgradient steps.
    :param initial_step: step-size numerator; the schedule is
        ``initial_step / (sqrt(t) · ||subgradient||)``.  The default is
        calibrated so the multipliers (joules per resource unit) cross the
        ~5–10 J/unit regime where device/station prices start moving tasks;
        on the paper's scenarios the dual then reaches the LP bound within
        ~150 iterations.
    :param repair_every: recover (and keep the best) feasible primal every
        this many iterations.
    """

    iterations: int = 200
    initial_step: float = 50.0
    repair_every: int = 10

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")
        if self.repair_every <= 0:
            raise ValueError("repair_every must be positive")


@dataclass(frozen=True)
class LagrangianReport:
    """Outcome of the Lagrangian solve.

    :param assignment: best feasible assignment recovered.
    :param best_dual_j: largest dual value seen — a lower bound on the
        optimum (and on the LP relaxation's optimum).
    :param dual_history: dual value per iteration.
    :param primal_energy_j: the returned assignment's energy.
    """

    assignment: Assignment
    best_dual_j: float
    dual_history: Tuple[float, ...]
    primal_energy_j: float

    @property
    def duality_gap_j(self) -> float:
        """primal − best dual (≥ 0 up to solver tolerance)."""
        return self.primal_energy_j - self.best_dual_j

    @property
    def relative_gap(self) -> float:
        """Duality gap relative to the dual bound.

        Guarded for the degenerate all-local / no-task case (zero dual
        bound with zero gap): see :func:`guarded_relative_gap`.
        """
        return guarded_relative_gap(self.duality_gap_j, self.best_dual_j)


@dataclass(frozen=True)
class CoordinatorOptions:
    """Tunables of the shared-capacity coordinator.

    :param iterations: maximum outer subgradient steps.
    :param initial_step: step-size numerator; the schedule is
        ``initial_step / (sqrt(t) · |subgradient|)`` — the same Polyak-style
        divergent-series rule :class:`LagrangianOptions` uses, scaled to a
        single multiplier.
    :param tolerance: relative slack (w.r.t. the capacity) below which the
        shared constraint counts as tight and the ascent stops.
    """

    iterations: int = 25
    initial_step: float = 50.0
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")


@dataclass(frozen=True)
class CoordinatorOutcome:
    """Result of one :func:`coordinate_shared_capacity` run.

    :param multiplier: final price ν of the shared resource.
    :param best_dual_j: largest dual value seen — a valid lower bound on
        the capacity-constrained optimum for every ν ≥ 0 (weak duality;
        the inner solves are relaxations of the priced subproblems).
    :param iterations_run: outer iterations actually executed.
    :param dual_history: dual value per outer iteration.
    :param best_key: ordering key of the kept primal candidate.
    :param best_payload: caller-defined payload of the kept candidate.
    """

    multiplier: float
    best_dual_j: float
    iterations_run: int
    dual_history: Tuple[float, ...]
    best_key: Tuple[Any, ...]
    best_payload: Any


def coordinate_shared_capacity(
    solve_priced: Callable[[float], Tuple[float, float, Tuple[Any, ...], Any]],
    capacity: float,
    options: Optional[CoordinatorOptions] = None,
) -> CoordinatorOutcome:
    """Projected subgradient ascent on one shared capacity budget.

    The sharded solver decomposes per shard once the single *shared*
    resource (the cloud budget) is priced: for a price ν ≥ 0,

    .. math::

       d(\\nu) = \\sum_{\\text{shards}} \\min_x
           \\big(E + \\nu\\,C_{\\text{cloud}}\\big)\\,x \\;-\\; \\nu\\,cap

    is a valid lower bound on the capacity-constrained optimum, and its
    supergradient at the priced solution is ``shared_load − capacity``.
    This helper owns the ascent; the caller owns the (parallelisable)
    priced solves and the primal recovery.

    :param solve_priced: callback mapping ν to
        ``(priced_objective, shared_load, primal_key, payload)`` —
        the summed priced relaxation optima, the fractional load the
        priced solution puts on the shared resource, an orderable
        candidate key (smaller = better, e.g. ``(cancelled, energy)``)
        for the recovered feasible primal, and an arbitrary payload
        (the decisions) kept for the best key.
    :param capacity: the shared budget (must be finite — an infinite
        budget never binds, so there is nothing to coordinate).
    :param options: ascent tunables.
    :returns: the best dual bound, the best primal payload, and the
        iteration history.
    """
    if not np.isfinite(capacity):
        raise ValueError("coordinate_shared_capacity needs a finite capacity")
    if options is None:
        options = CoordinatorOptions()
    scale = capacity if capacity > 0 else 1.0
    nu = 0.0
    best_dual = -float("inf")
    best_key: Optional[Tuple[Any, ...]] = None
    best_payload: Any = None
    history: List[float] = []
    for t in range(1, options.iterations + 1):
        objective, load, key, payload = solve_priced(nu)
        dual = objective - nu * capacity
        history.append(dual)
        best_dual = max(best_dual, dual)
        if best_key is None or key < best_key:
            best_key = key
            best_payload = payload
        gradient = load - capacity
        if abs(gradient) <= options.tolerance * scale:
            break  # the priced solution meets the budget exactly: ν is optimal
        if gradient < 0 and nu <= 0:
            break  # budget slack at zero price: the constraint never binds
        step = options.initial_step / (np.sqrt(t) * abs(gradient))
        nu = max(0.0, nu + step * gradient)
    assert best_key is not None
    return CoordinatorOutcome(
        multiplier=nu,
        best_dual_j=best_dual,
        iterations_run=len(history),
        dual_history=tuple(history),
        best_key=best_key,
        best_payload=best_payload,
    )


def _price_and_choose(
    costs: ClusterCosts,
    mu: Dict[int, float],
    nu: float,
) -> Tuple[np.ndarray, float]:
    """Per-task cheapest priced choice; returns (choices, dual term sum).

    Cancelled (hopeless) tasks contribute 0 and are marked -1.
    """
    n = costs.num_tasks
    choices = np.full(n, -1, dtype=int)
    total = 0.0
    for row in range(n):
        feasible = costs.feasible_subsystems(row)
        if not feasible:
            continue
        owner = costs.tasks[row].owner_device_id
        best_l = -1
        best_cost = float("inf")
        for l in feasible:
            priced = float(costs.energy_j[row, l])
            if l == _DEVICE:
                priced += mu.get(owner, 0.0) * float(costs.resource[row])
            elif l == _STATION:
                priced += nu * float(costs.resource[row])
            if priced < best_cost:
                best_cost = priced
                best_l = l
        choices[row] = best_l
        total += best_cost
    return choices, total


def _repair(
    costs: ClusterCosts,
    choices: np.ndarray,
    device_caps: Mapping[int, float],
    station_cap: float,
) -> List[Subsystem]:
    """LP-HTA Steps 5–6 applied to a price-driven choice vector."""
    decisions = [
        Subsystem.CANCELLED if c < 0 else Subsystem(int(c) + 1) for c in choices
    ]
    deadline_ok = costs.time_s <= costs.deadline_s[:, None]

    by_owner: Dict[int, List[int]] = {}
    for row, task in enumerate(costs.tasks):
        by_owner.setdefault(task.owner_device_id, []).append(row)

    for owner, rows in by_owner.items():
        cap = device_caps.get(owner, float("inf"))

        def load() -> float:
            return sum(
                costs.resource[r] for r in rows if decisions[r] is Subsystem.DEVICE
            )

        movable = sorted(
            (r for r in rows
             if decisions[r] is Subsystem.DEVICE and deadline_ok[r, _STATION]),
            key=lambda r: -costs.resource[r],
        )
        for r in movable:
            if load() <= cap:
                break
            decisions[r] = Subsystem.STATION
        if load() > cap:
            for r in sorted(
                (r for r in rows if decisions[r] is Subsystem.DEVICE),
                key=lambda r: -costs.resource[r],
            ):
                if load() <= cap:
                    break
                decisions[r] = Subsystem.CANCELLED

    def station_load() -> float:
        return sum(
            costs.resource[r]
            for r in range(costs.num_tasks)
            if decisions[r] is Subsystem.STATION
        )

    if station_load() > station_cap:
        movable = sorted(
            (r for r in range(costs.num_tasks)
             if decisions[r] is Subsystem.STATION and deadline_ok[r, _CLOUD]),
            key=lambda r: -costs.resource[r],
        )
        for r in movable:
            if station_load() <= station_cap:
                break
            decisions[r] = Subsystem.CLOUD
        if station_load() > station_cap:
            for r in sorted(
                (r for r in range(costs.num_tasks)
                 if decisions[r] is Subsystem.STATION),
                key=lambda r: -costs.resource[r],
            ):
                if station_load() <= station_cap:
                    break
                decisions[r] = Subsystem.CANCELLED
    return decisions


def _solve_cluster(
    costs: ClusterCosts,
    device_caps: Mapping[int, float],
    station_cap: float,
    options: LagrangianOptions,
) -> Tuple[List[Subsystem], float, List[float]]:
    """Subgradient ascent + primal recovery for one cluster."""
    n = costs.num_tasks
    if n == 0:
        return [], 0.0, []

    mu: Dict[int, float] = {
        owner: 0.0 for owner in {t.owner_device_id for t in costs.tasks}
    }
    nu = 0.0
    finite_station = np.isfinite(station_cap)

    best_dual = -float("inf")
    best_decisions: Optional[List[Subsystem]] = None
    best_energy = float("inf")
    history: List[float] = []

    for t in range(1, options.iterations + 1):
        choices, priced_sum = _price_and_choose(costs, mu, nu)
        dual = (
            priced_sum
            - sum(mu[o] * device_caps.get(o, 0.0) for o in mu)
            - (nu * station_cap if finite_station else 0.0)
        )
        history.append(dual)
        best_dual = max(best_dual, dual)

        # Subgradients: constraint slack at the priced solution.
        sub_mu = {}
        for owner in mu:
            load = sum(
                costs.resource[r]
                for r in range(n)
                if choices[r] == _DEVICE
                and costs.tasks[r].owner_device_id == owner
            )
            cap = device_caps.get(owner, float("inf"))
            sub_mu[owner] = load - cap if np.isfinite(cap) else 0.0
        if finite_station:
            sub_nu = (
                sum(costs.resource[r] for r in range(n) if choices[r] == _STATION)
                - station_cap
            )
        else:
            sub_nu = 0.0

        norm = float(
            np.sqrt(sum(g * g for g in sub_mu.values()) + sub_nu * sub_nu)
        )
        if norm > 0:
            step = options.initial_step / (np.sqrt(t) * norm)
            for owner in mu:
                mu[owner] = max(0.0, mu[owner] + step * sub_mu[owner])
            if finite_station:
                nu = max(0.0, nu + step * sub_nu)

        if t % options.repair_every == 0 or t == options.iterations or norm == 0:
            decisions = _repair(costs, choices, device_caps, station_cap)
            energy = sum(
                float(costs.energy_j[r, d.column])
                for r, d in enumerate(decisions)
                if d is not Subsystem.CANCELLED
            )
            cancelled = sum(1 for d in decisions if d is Subsystem.CANCELLED)
            best_cancelled = (
                sum(1 for d in best_decisions if d is Subsystem.CANCELLED)
                if best_decisions is not None
                else n + 1
            )
            # Prefer serving more tasks; break ties by energy.
            if (cancelled, energy) < (best_cancelled, best_energy):
                best_decisions = decisions
                best_energy = energy
        if norm == 0:
            break  # multipliers are optimal: the priced solution is feasible

    assert best_decisions is not None
    return best_decisions, best_dual, history


def _merge_histories(a: List[float], b: List[float]) -> List[float]:
    """Element-wise sum of dual histories, padding with the final value
    (clusters may stop early when their multipliers hit optimality)."""
    if not a:
        return list(b)
    if not b:
        return list(a)
    length = max(len(a), len(b))
    padded_a = a + [a[-1]] * (length - len(a))
    padded_b = b + [b[-1]] * (length - len(b))
    return [x + y for x, y in zip(padded_a, padded_b)]


def lagrangian_hta(
    system: MECSystem,
    tasks: Sequence[Task],
    options: LagrangianOptions = LagrangianOptions(),
) -> LagrangianReport:
    """Solve HTA by Lagrangian relaxation of C2/C3 (per cluster).

    :param system: the MEC system.
    :param tasks: the holistic tasks.
    :param options: subgradient tunables.
    """
    costs = cluster_costs(system, tasks)
    decisions: List[Subsystem] = [Subsystem.CANCELLED] * len(tasks)
    total_dual = 0.0
    merged_history: List[float] = []
    for cluster in _cluster_slices(system, costs):
        cluster_decisions, dual, history = _solve_cluster(
            cluster.costs, cluster.device_caps, cluster.station_cap, options
        )
        for local, decision in zip(cluster.rows, cluster_decisions):
            decisions[local] = decision
        total_dual += dual
        merged_history = _merge_histories(merged_history, history)

    assignment = Assignment(costs, decisions)
    return LagrangianReport(
        assignment=assignment,
        best_dual_j=total_dual,
        dual_history=tuple(merged_history),
        primal_energy_j=assignment.total_energy_j(),
    )
