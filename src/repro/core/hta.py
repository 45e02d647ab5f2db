"""LP-HTA: the paper's approximation algorithm for holistic task assignment.

Section III-A, six steps per cluster:

1. solve the relaxation P2 with an interior-point method,
2. reshape ξ into the fractional matrix **X**,
3. round each task to its largest fractional subsystem,
4. repair deadline violations (move to the best deadline-feasible
   subsystem by fractional weight, else cancel),
5. repair per-device resource overflows (move greedily by resource
   occupation to the base station, else cancel),
6. repair the station resource overflow (move greedily to the cloud,
   else cancel).

The returned :class:`HTAReport` carries, per cluster and aggregated, the
quantities of the paper's analysis: the LP optimum :math:`E^{(OPT)}_{LP}`,
the rounded energy, the migration growth Δ, and the two ratio bounds
(Theorem 2 and Corollary 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.context import RunContext, current_context
from repro.core.assignment import Assignment, Subsystem
from repro.core.costs import NUM_SUBSYSTEMS, ClusterCosts, cluster_costs
from repro.core.lp_builder import build_p2, build_p2_structured, reshape_solution
from repro.lp.structured import solve_structured_batch
from repro.core.task import Task
from repro.lp.backends import FALLBACK_LADDER, solve as lp_solve
from repro.lp.interior_point import solve_interior_point_batch
from repro.lp.result import LPResult, LPStatus
from repro.obs.tracer import span
from repro.system.topology import MECSystem

__all__ = [
    "ClusterReport",
    "HTAReport",
    "LPHTAOptions",
    "lp_hta",
    "lp_hta_batch",
    "lp_hta_cluster",
]

#: Column indices into the cost arrays.
_DEVICE, _STATION, _CLOUD = 0, 1, 2

#: Subsystem by integer value (CANCELLED = 0, then l = 1, 2, 3).
_BY_CODE = tuple(Subsystem)


@dataclass(frozen=True)
class LPHTAOptions:
    """Tunables of LP-HTA (defaults reproduce the paper's algorithm).

    :param backend: LP backend for Step 1.  ``"structured"`` (default) is
        our interior-point method specialised to P2's block structure —
        mathematically the same relaxation the paper solves, effectively
        linear-time per Newton step; ``"interior-point"`` is the generic
        Mehrotra solver on the sparse assembly of P2, ``"simplex"`` /
        ``"scipy"`` are for ablations and cross-checks.  Blocks the
        backend fails descend the fallback ladder (:func:`_ladder`).
    :param rounding: ``"argmax"`` (Step 3 as written) or ``"randomized"``
        (sample the subsystem from the fractional row — ablation only).
    :param repair_order: ``"largest-first"`` (greedy by resource occupation,
        as written) or ``"smallest-first"`` (ablation).
    :param seed: RNG seed for randomized rounding.
    """

    backend: str = "structured"
    rounding: str = "argmax"
    repair_order: str = "largest-first"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounding not in ("argmax", "randomized"):
            raise ValueError(f"unknown rounding rule {self.rounding!r}")
        if self.repair_order not in ("largest-first", "smallest-first"):
            raise ValueError(f"unknown repair order {self.repair_order!r}")


@dataclass(frozen=True)
class ClusterReport:
    """Per-cluster diagnostics of one LP-HTA run.

    :param station_id: the cluster's base station.
    :param num_tasks: tasks assigned in this cluster.
    :param lp_objective_j: :math:`E^{(OPT)}_{LP}`, the relaxation optimum.
    :param rounded_energy_j: :math:`\\sum E_{ijl}\\hat{x}_{ijl}` after Step 3.
    :param final_energy_j: energy of the repaired assignment.
    :param delta_j: Δ, the energy growth caused by Steps 4–6 migrations.
    :param ratio_bound_theorem2: :math:`3 + Δ/E^{(OPT)}_{LP}`.
    :param ratio_bound_corollary1: the Corollary 1 bound
        (min of Theorem 2's and max E_ij3 / min E_ij1).
    :param lp_iterations: Step 1 solver iterations.
    :param lp_backend: backend that actually solved Step 1.
    :param cancelled_tasks: (i, j) ids of cancelled tasks.
    """

    station_id: int
    num_tasks: int
    lp_objective_j: float
    rounded_energy_j: float
    final_energy_j: float
    delta_j: float
    ratio_bound_theorem2: float
    ratio_bound_corollary1: float
    lp_iterations: int
    lp_backend: str
    cancelled_tasks: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class HTAReport:
    """Result of LP-HTA over a whole MEC system.

    :param assignment: the combined assignment over every input task.
    :param clusters: per-cluster diagnostics.
    """

    assignment: Assignment
    clusters: Tuple[ClusterReport, ...] = field(default_factory=tuple)

    @property
    def lp_objective_j(self) -> float:
        """System-wide :math:`E^{(OPT)}_{LP}` (sum over clusters)."""
        return sum(c.lp_objective_j for c in self.clusters)

    @property
    def delta_j(self) -> float:
        """System-wide migration growth Δ."""
        return sum(c.delta_j for c in self.clusters)

    @property
    def ratio_bound_theorem2(self) -> float:
        """Theorem 2 bound computed from the aggregated Δ and LP optimum."""
        lp_opt = self.lp_objective_j
        if lp_opt <= 0:
            return float("inf")
        return 3.0 + max(self.delta_j, 0.0) / lp_opt

    @property
    def empirical_ratio_upper_bound(self) -> float:
        """Final energy / LP optimum — an upper bound on the true ratio
        (the LP optimum lower-bounds the integral optimum)."""
        lp_opt = self.lp_objective_j
        if lp_opt <= 0:
            return float("inf")
        return self.assignment.total_energy_j() / lp_opt


def _options_from_context(context: RunContext) -> LPHTAOptions:
    """The LP-HTA tunables implied by a run context."""
    return LPHTAOptions(seed=context.seed)


def _greedy_p2(
    costs: ClusterCosts, last: Optional[LPResult] = None
) -> LPResult:
    """The fallback ladder's bottom rung: greedy one-hot HTA.

    Assigns every task to its cheapest deadline-feasible subsystem (or its
    cheapest subsystem outright when none meets the deadline — Step 4 then
    migrates or cancels the row), ignoring the capacity rows, which
    Steps 5–6 repair exactly as they repair rounding overflows.  Always
    succeeds, so a cluster whose relaxation defeats every LP backend still
    produces an assignment instead of aborting the sweep.

    The returned objective is the energy of the one-hot assignment — an
    *upper* bound, NOT the LP lower bound the Theorem 2 ratio needs; the
    ``"greedy"`` backend tag marks the result so consumers (the sharded
    coordinator's duality gap, reports) can treat its bound as vacuous.
    """
    n = costs.num_tasks
    x = np.zeros(NUM_SUBSYSTEMS * n)
    total = 0.0
    for row in range(n):
        candidates = costs.feasible_subsystems(row) or tuple(
            range(NUM_SUBSYSTEMS)
        )
        best = min(candidates, key=lambda l: costs.energy_j[row, l])
        x[NUM_SUBSYSTEMS * row + best] = 1.0
        total += float(costs.energy_j[row, best])
    message = "greedy one-hot fallback; objective is not an LP lower bound"
    if last is not None:
        message += (
            f" (last LP attempt: {last.backend} -> {last.status.name})"
        )
    return LPResult(
        status=LPStatus.OPTIMAL,
        x=x,
        objective=total,
        iterations=0,
        backend="greedy",
        message=message,
    )


def _ladder(options: LPHTAOptions) -> Tuple[str, ...]:
    """The backends of one relaxation level, in order: the configured
    primary, then :data:`~repro.lp.backends.FALLBACK_LADDER`, each once."""
    return tuple(dict.fromkeys((options.backend, *FALLBACK_LADDER)))


def _solve_p2_ladder(
    jobs: Sequence[Tuple[ClusterCosts, Mapping[int, float], float]],
    options: LPHTAOptions,
    context: RunContext,
) -> List[LPResult]:
    """Step 1 for a batch of clusters: solve each P2 down the fallback ladder.

    When the resource rows (C2/C3) and the deadline bounds (A1) clash, P2 as
    written can be infeasible — e.g. a large task whose cloud path misses
    the deadline and whose device/station have no room.  The paper does not
    address this case; we retry with the A1 bounds dropped (always feasible:
    the cloud column is uncapped) and let Step 4 enforce deadlines by
    migration or cancellation.  The relaxed optimum is a weaker lower bound,
    so the reported Theorem 2 ratio stays a valid (conservative) bound.

    Within each relaxation level the rungs of :func:`_ladder` are tried in
    order.  The ladder is walked one rung at a time over the whole batch,
    and each rung solves only the blocks every earlier rung failed, so no
    block meets a rung twice.  On healthy instances the first rung (the
    primary backend, bounds unrelaxed) clears every block in one
    block-diagonal mega-solve.  A result from any rung below the primary is
    counted in the telemetry (``lp.fallback.<rung>`` and the ``--stats``
    fallback line) and tagged with the backend that produced it.  The
    relaxed-bounds retry is *not* a rung: dropping the A1 bounds happens
    on healthy runs too, so the primary backend's relaxed solves count as
    no fallback.  When every backend fails at both relaxation levels, the
    ladder bottoms out at :func:`_greedy_p2` instead of raising, so one
    pathological cluster cannot abort a whole sweep.

    :param jobs: ``(costs, device_caps, station_cap)`` per cluster; a
        single cluster is a batch of one.
    :returns: one Step-1 result per job, in input order.
    """
    results: List[Optional[LPResult]] = [None] * len(jobs)
    last: Dict[int, LPResult] = {}
    pending = list(range(len(jobs)))
    for relax in (False, True):
        for backend in _ladder(options):
            if not pending:
                break
            solved = _solve_rung(
                [jobs[index] for index in pending], backend, relax, context
            )
            failed = []
            for index, result in zip(pending, solved):
                if result.status.ok:
                    if backend != options.backend:
                        context.telemetry.metrics.incr(f"lp.fallback.{backend}")
                    results[index] = result
                else:
                    last[index] = result
                    failed.append(index)
            pending = failed
    for index in pending:
        # Bottom rung: never abort the sweep over one pathological cluster.
        context.telemetry.metrics.incr("lp.fallback.greedy")
        results[index] = _greedy_p2(jobs[index][0], last=last[index])
    return results  # type: ignore[return-value]


def _solve_rung(
    jobs: Sequence[Tuple[ClusterCosts, Mapping[int, float], float]],
    backend: str,
    relax: bool,
    context: RunContext,
) -> List[LPResult]:
    """One ladder rung over a batch of clusters.

    The structured and interior-point rungs solve their blocks as one
    batch through the solve cache (:func:`_solve_batched`); any other
    backend goes through the backend dispatcher block by block.
    """
    from repro.caching.lp_cache import fingerprint_grouped, fingerprint_problem

    if backend == "structured":
        grouped = [
            build_p2_structured(
                costs, caps, cap, relax_deadline_bounds=relax
            ).lp
            for costs, caps, cap in jobs
        ]
        return _solve_batched(
            grouped, backend, solve_structured_batch, fingerprint_grouped, context
        )
    problems = [
        build_p2(costs, caps, cap, relax_deadline_bounds=relax).lp
        for costs, caps, cap in jobs
    ]
    if backend == "interior-point":
        return _solve_batched(
            problems, backend, solve_interior_point_batch, fingerprint_problem,
            context,
        )
    return [lp_solve(problem, backend, context=context) for problem in problems]


def _solve_batched(
    problems: Sequence[Any],
    backend: str,
    solve_batch: Callable[[Sequence[Any]], List[LPResult]],
    fingerprint: Callable[[Any, str], str],
    context: RunContext,
) -> List[LPResult]:
    """Solve one rung's blocks as a batch, through the LP solve cache.

    Cache interaction (off in reference mode, so benchmark baselines stay
    honest): every block is probed by its own key, so a repeated sweep
    column is served entirely from the cache while a partially-overlapping
    batch still reuses every block it can.  Only successful results are
    stored.

    :param problems: the built blocks (the ``build`` stage times them).
    :param solve_batch: the backend's batch solver: the structured lockstep
        loop iterates each block's exact batch-of-one trajectory (see
        :func:`repro.lp.structured.solve_structured_batch`); the generic
        interior-point backend solves the blocks one by one.
    :param fingerprint: the backend's cache-key function.
    """
    # Everything from here to the solve (fingerprints, lookups, block
    # stacking) is batching overhead: ``stage.batch_assembly_s``.
    assembly_start = time.perf_counter()
    results: List[Optional[LPResult]] = [None] * len(problems)
    cache = None if context.reference else context.lp_cache
    keys: List[str] = []
    if cache is not None:
        keys = [fingerprint(problem, backend) for problem in problems]
        for index, key in enumerate(keys):
            lookup_start = time.perf_counter()
            hit = cache.lookup(key)
            if hit is not None:
                results[index] = hit
                context.telemetry.record_solve(
                    wall_time_s=time.perf_counter() - lookup_start,
                    iterations=0,
                    cache_hit=True,
                )

    pending = [index for index, result in enumerate(results) if result is None]
    if pending:
        assembly_s = time.perf_counter() - assembly_start
        with span("solve", context=context, backend=backend):
            start = time.perf_counter()
            solved = solve_batch([problems[index] for index in pending])
            wall = time.perf_counter() - start
        context.telemetry.record_batch(
            blocks=len(pending),
            wall_time_s=wall,
            iterations=[result.iterations for result in solved],
            assembly_s=assembly_s,
        )
        for index, result in zip(pending, solved):
            results[index] = result
    done: List[LPResult] = results  # type: ignore[assignment]
    if cache is not None:
        for index in pending:
            if done[index].status.ok:
                cache.insert(keys[index], done[index])
    return done


@dataclass(frozen=True)
class _ClusterSlice:
    """One cluster's slice of a system-wide cost table (Step-1 input)."""

    station_id: int
    rows: Tuple[int, ...]
    costs: ClusterCosts
    device_caps: Dict[int, float]
    station_cap: float


def _cluster_slices(system: MECSystem, costs: ClusterCosts) -> List[_ClusterSlice]:
    """Split a priced task set into independent per-cluster instances.

    One stable argsort of the rows' clusters: stations ascending, each
    cluster's rows in input order.
    """
    owners = costs.owner_ids()
    devices, owner_index = np.unique(owners, return_inverse=True)
    device_list = devices.tolist()
    clusters = np.array(
        [system.cluster_of(device_id) for device_id in device_list], dtype=np.int64
    )[owner_index]
    order = np.argsort(clusters, kind="stable")
    starts = np.flatnonzero(np.diff(clusters[order], prepend=-1) != 0)
    slices: List[_ClusterSlice] = []
    for rows in np.split(order, starts[1:]) if len(order) else []:
        sub_costs = costs.subset(rows)
        station_id = int(clusters[rows[0]])
        device_caps = {
            device_id: system.device(device_id).max_resource
            for device_id in np.unique(sub_costs.owner_ids()).tolist()
        }
        slices.append(
            _ClusterSlice(
                station_id=station_id,
                rows=tuple(rows.tolist()),
                costs=sub_costs,
                device_caps=device_caps,
                station_cap=system.station(station_id).max_resource,
            )
        )
    return slices


def _sequential_sum(values: np.ndarray) -> float:
    """``0.0 + v[0] + v[1] + ...`` strictly left to right.

    The bits of a Python loop's ``total += value``: ``np.add.accumulate``
    never reorders or pairs, unlike ``np.sum`` and ``math.fsum``, and
    unlike builtin ``sum`` of floats from Python 3.12 on (compensated).
    """
    return float(np.add.accumulate(np.concatenate(((0.0,), values)))[-1])


def _round(
    x_fractional: np.ndarray, options: LPHTAOptions
) -> np.ndarray:
    """Step 3: one subsystem per task from the fractional matrix."""
    num_tasks = x_fractional.shape[0]
    choices = np.empty(num_tasks, dtype=int)
    if options.rounding == "argmax":
        choices[:] = np.argmax(x_fractional, axis=1)
    else:
        rng = np.random.default_rng(options.seed)
        for row in range(num_tasks):
            weights = np.clip(x_fractional[row], 0.0, None)
            total = weights.sum()
            if total <= 0:
                choices[row] = int(np.argmax(x_fractional[row]))
            else:
                choices[row] = int(rng.choice(NUM_SUBSYSTEMS, p=weights / total))
    return choices


def _greedy_order(rows: Sequence[int], resource: np.ndarray, options: LPHTAOptions) -> List[int]:
    """Rows sorted by resource occupation per the configured repair order."""
    reverse = options.repair_order == "largest-first"
    return sorted(rows, key=lambda r: resource[r], reverse=reverse)


def lp_hta_cluster(
    costs: ClusterCosts,
    device_caps: Mapping[int, float],
    station_cap: float,
    options: Optional[LPHTAOptions] = None,
    station_id: int = 0,
    context: Optional[RunContext] = None,
    lp_result: Optional[LPResult] = None,
) -> Tuple[List[Subsystem], ClusterReport]:
    """Run the six LP-HTA steps on one cluster's cost table.

    :param costs: priced tasks of the cluster.
    :param device_caps: :math:`max_i` per device id.
    :param station_cap: :math:`max_S`.
    :param options: algorithm tunables; defaults to the context's LP
        settings.
    :param station_id: cluster label for the report.
    :param context: run configuration (perf mode, LP defaults, telemetry);
        defaults to the active context.
    :param lp_result: optional precomputed Step-1 solution (from a
        batched :func:`_solve_p2_ladder`); when given, Step 1 is skipped
        and Steps 2–6 run on it unchanged.
    :returns: per-row decisions plus the cluster report.
    """
    context = context if context is not None else current_context()
    if options is None:
        options = _options_from_context(context)
    n = costs.num_tasks
    if n == 0:
        report = ClusterReport(
            station_id=station_id, num_tasks=0, lp_objective_j=0.0,
            rounded_energy_j=0.0, final_energy_j=0.0, delta_j=0.0,
            ratio_bound_theorem2=3.0, ratio_bound_corollary1=3.0,
            lp_iterations=0, lp_backend="none", cancelled_tasks=(),
        )
        return [], report

    # Steps 1–2: solve P2 and reshape into X.
    if lp_result is None:
        lp_result = _solve_p2_ladder(
            [(costs, device_caps, station_cap)], options, context
        )[0]
    x_fractional = reshape_solution(lp_result.require_ok(), n)

    # Step 3: round.
    chosen = _round(x_fractional, options)

    if context.reference:
        rounded_energy = float(
            sum(costs.energy_j[row, chosen[row]] for row in range(n))
        )
        # Step 4: deadline repair (seed implementation).
        decisions: List[Subsystem] = [Subsystem.CANCELLED] * n
        for row in range(n):
            q = int(chosen[row])
            if costs.time_s[row, q] <= costs.deadline_s[row]:
                decisions[row] = Subsystem(q + 1)
                continue
            feasible = costs.feasible_subsystems(row)
            if feasible:
                best = max(feasible, key=lambda l: x_fractional[row, l])
                decisions[row] = Subsystem(best + 1)
            # else: stays CANCELLED ("cancel T_ij and inform users").
    else:
        cols = np.asarray(chosen, dtype=int)
        rows_n = np.arange(n)
        # The reference's left-to-right accumulation, on every Python.
        rounded_energy = _sequential_sum(costs.energy_j[rows_n, cols])

        # Step 4: deadline repair.
        rounded_ok = costs.time_s[rows_n, cols] <= costs.deadline_s
        decisions = list(
            map(_BY_CODE.__getitem__, np.where(rounded_ok, cols + 1, 0).tolist())
        )
        for row in np.flatnonzero(~rounded_ok).tolist():
            feasible = costs.feasible_subsystems(row)
            if feasible:
                best = max(feasible, key=lambda l: x_fractional[row, l])
                decisions[row] = _BY_CODE[best + 1]
            # else: stays CANCELLED ("cancel T_ij and inform users").

    deadline_ok = costs.time_s <= costs.deadline_s[:, None]

    # Step 5: per-device resource repair.  The reference checks every
    # device's load; otherwise one bincount finds the devices over their
    # cap (a per-device sum in row order, the genexpr's bits) and only
    # those enter the per-move loop, which re-checks the same load.
    owner_rows = costs.owner_rows()
    overloaded = list(owner_rows)
    if not context.reference:
        local = np.fromiter(decisions, dtype=np.intp, count=n) == Subsystem.DEVICE
        devices, owner_index = np.unique(costs.owner_ids(), return_inverse=True)
        loads = np.bincount(
            owner_index[local],
            weights=costs.resource[local],
            minlength=len(devices),
        )
        caps = np.array(
            [device_caps.get(device_id, float("inf")) for device_id in devices.tolist()]
        )
        over = set(devices[~(loads <= caps)].tolist())
        overloaded = [device_id for device_id in overloaded if device_id in over]
    for device_id in overloaded:
        rows = owner_rows[device_id]
        cap = device_caps.get(device_id, float("inf"))

        def device_load() -> float:
            return sum(
                costs.resource[r] for r in rows if decisions[r] is Subsystem.DEVICE
            )

        if device_load() <= cap:
            continue
        # Move station-feasible tasks to the base station, largest C first.
        movable = [
            r for r in rows
            if decisions[r] is Subsystem.DEVICE and deadline_ok[r, _STATION]
        ]
        for r in _greedy_order(movable, costs.resource, options):
            if device_load() <= cap:
                break
            decisions[r] = Subsystem.STATION
        # Still over: cancel the largest remaining local tasks.
        if device_load() > cap:
            local = [r for r in rows if decisions[r] is Subsystem.DEVICE]
            for r in _greedy_order(local, costs.resource, options):
                if device_load() <= cap:
                    break
                decisions[r] = Subsystem.CANCELLED

    # Step 6: station resource repair (the same pre-check outside the
    # reference).
    def station_load() -> float:
        return sum(
            costs.resource[r] for r in range(n) if decisions[r] is Subsystem.STATION
        )

    if context.reference:
        station_over = station_load() > station_cap
    else:
        codes = np.fromiter(decisions, dtype=np.intp, count=n)
        station_over = (
            _sequential_sum(costs.resource[codes == Subsystem.STATION])
            > station_cap
        )
    if station_over:
        movable = [
            r for r in range(n)
            if decisions[r] is Subsystem.STATION and deadline_ok[r, _CLOUD]
        ]
        for r in _greedy_order(movable, costs.resource, options):
            if station_load() <= station_cap:
                break
            decisions[r] = Subsystem.CLOUD
        if station_load() > station_cap:
            remaining = [
                r for r in range(n) if decisions[r] is Subsystem.STATION
            ]
            for r in _greedy_order(remaining, costs.resource, options):
                if station_load() <= station_cap:
                    break
                decisions[r] = Subsystem.CANCELLED

    if context.reference:
        final_energy = float(
            sum(
                costs.energy_j[row, decisions[row].column]
                for row in range(n)
                if decisions[row] is not Subsystem.CANCELLED
            )
        )
    else:
        cols = np.fromiter(decisions, dtype=np.intp, count=n) - 1
        assigned = np.flatnonzero(cols >= 0)
        final_energy = _sequential_sum(costs.energy_j[assigned, cols[assigned]])
    delta = final_energy - rounded_energy
    lp_opt = float(lp_result.objective)
    theorem2 = 3.0 + max(delta, 0.0) / lp_opt if lp_opt > 0 else float("inf")
    min_local = float(np.min(costs.energy_j[:, _DEVICE]))
    max_cloud = float(np.max(costs.energy_j[:, _CLOUD]))
    corollary1 = min(theorem2, max_cloud / min_local) if min_local > 0 else theorem2

    report = ClusterReport(
        station_id=station_id,
        num_tasks=n,
        lp_objective_j=lp_opt,
        rounded_energy_j=rounded_energy,
        final_energy_j=final_energy,
        delta_j=delta,
        ratio_bound_theorem2=theorem2,
        ratio_bound_corollary1=corollary1,
        lp_iterations=lp_result.iterations,
        lp_backend=lp_result.backend,
        cancelled_tasks=tuple(
            costs.tasks[row].task_id
            for row in range(n)
            if decisions[row] is Subsystem.CANCELLED
        ),
    )
    return decisions, report


def lp_hta(
    system: MECSystem,
    tasks: Sequence[Task],
    options: Optional[LPHTAOptions] = None,
    context: Optional[RunContext] = None,
) -> HTAReport:
    """Run LP-HTA over a whole MEC system (each cluster independently).

    Section III-A observes that a task can only run on its own device, its
    own base station, or the cloud, so clusters decouple and are solved
    separately; the cloud is shared but unconstrained.

    :param system: the MEC system.
    :param tasks: the holistic tasks to assign.
    :param options: algorithm tunables; defaults to the context's LP
        settings (explicit options win, field for field).
    :param context: run configuration (perf mode, LP defaults, telemetry);
        defaults to the active context.
    """
    return lp_hta_batch([(system, tasks)], options, context)[0]


def lp_hta_batch(
    jobs: Sequence[Tuple[MECSystem, Sequence[Task]]],
    options: Optional[LPHTAOptions] = None,
    context: Optional[RunContext] = None,
) -> List[HTAReport]:
    """Run LP-HTA over many (system, tasks) inputs with one mega-solve.

    Every cluster of every input is an independent P2 block, so the whole
    job list pools into one Step-1 call (:func:`_solve_p2_ladder`) whose
    first rung is a single block-diagonal mega-solve — this is the batch
    entry point the sweep engine and the DTA candidate loop use to
    amortise per-solve overhead across a column of cells, and
    :func:`lp_hta` is a batch of one.  Results are identical to
    ``[lp_hta(s, t, ...) for s, t in jobs]`` block for block.

    :param jobs: (system, tasks) pairs, each priced and clustered exactly
        as :func:`lp_hta` would.
    :param options: algorithm tunables shared by every job.
    :param context: run configuration; defaults to the active context.
    """
    context = context if context is not None else current_context()
    if options is None:
        options = _options_from_context(context)
    prepared = []
    for system, tasks in jobs:
        costs = cluster_costs(system, tasks)
        prepared.append((tasks, costs, _cluster_slices(system, costs)))

    lp_results = iter(
        _solve_p2_ladder(
            [
                (s.costs, s.device_caps, s.station_cap)
                for _, _, slices in prepared
                for s in slices
            ],
            options,
            context,
        )
    )

    out: List[HTAReport] = []
    for tasks, costs, slices in prepared:
        decisions: List[Subsystem] = [Subsystem.CANCELLED] * len(tasks)
        reports: List[ClusterReport] = []
        for cluster in slices:
            sub_decisions, report = lp_hta_cluster(
                cluster.costs, cluster.device_caps, cluster.station_cap,
                options, station_id=cluster.station_id, context=context,
                lp_result=next(lp_results),
            )
            for local_row, decision in zip(cluster.rows, sub_decisions):
                decisions[local_row] = decision
            reports.append(report)
        out.append(
            HTAReport(
                assignment=Assignment(costs, decisions),
                clusters=tuple(reports),
            )
        )
    return out
