"""Typed algorithm registry: the single source of algorithm names + dispatch.

Every entry point that picks an algorithm by name — the CLI, the figure
sweeps (:mod:`repro.experiments`), the DES replay and the online
scheduler — resolves it here.  Each :class:`Algorithm` couples the
canonical display name (used verbatim in figure legends and CLI choices)
with two factories:

- ``evaluate(scenario, context)`` → :class:`AlgorithmResult`, the Section V
  metric bundle the experiment harness consumes, and
- ``assign(system, tasks, context)`` → :class:`~repro.core.assignment.Assignment`,
  the raw decision vector used by the online scheduler and the DES replay
  (absent for pipelines without a meaningful holistic assignment).

Capability flags (``holistic`` / ``divisible`` / ``baseline`` / ``exact``)
describe what the algorithm can consume, and ``in_figures`` marks the paper's
Section V-B competitor set.  Lookup is case-insensitive and accepts
per-algorithm aliases (``"cloud"`` → AllToC, ``"workload"`` → DTA-Workload),
so the online policy keys and the DTA objective spellings resolve to the
same entries as the legend names.

Configuration travels alongside as an explicit
:class:`~repro.context.RunContext` — never via process-global flags — so a
registry call behaves identically in-process, in fork workers and in spawn
workers.

Evaluators signal *configuration* errors (an unknown algorithm name, a
profile an algorithm cannot consume) by raising ``ValueError`` /
``TypeError``.  The crash-safe sweep runtime (:mod:`repro.runtime`)
relies on that convention: those two types are classified as config
errors and re-raised immediately — never retried or quarantined —
because retrying a deterministic misconfiguration only wastes the retry
budget and hides the real message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.context import RunContext, current_context, use_context
from repro.core.assignment import Assignment, Subsystem
from repro.core.baselines import (
    all_offload,
    all_to_cloud,
    hgos,
    local_first,
    random_assignment,
)
from repro.core.costs import cluster_costs
from repro.core.exact import branch_and_bound_hta
from repro.core.hta import _cluster_slices, lp_hta, lp_hta_batch
from repro.core.task import Task
from repro.dta.accounting import evaluate_plans, prepare_dta, run_dta
from repro.system.topology import MECSystem
from repro.workload.generator import Scenario

__all__ = [
    "ALL_OFFLOAD",
    "ALL_TO_CLOUD",
    "Algorithm",
    "AlgorithmResult",
    "BNB_EXACT",
    "DTA_NUMBER",
    "DTA_WORKLOAD",
    "GAME",
    "HGOS_NAME",
    "LOCAL_FIRST",
    "LP_HTA",
    "RANDOM",
    "algorithms",
    "get",
    "names",
    "register",
    "resolve_assignment",
    "run",
    "run_batch",
]

# Canonical display names — the only place these strings are spelled out.
LP_HTA = "LP-HTA"
HGOS_NAME = "HGOS"
ALL_TO_CLOUD = "AllToC"
ALL_OFFLOAD = "AllOffload"
DTA_WORKLOAD = "DTA-Workload"
DTA_NUMBER = "DTA-Number"
GAME = "Game"
LOCAL_FIRST = "LocalFirst"
RANDOM = "Random"
BNB_EXACT = "BnB-Exact"


@dataclass(frozen=True)
class AlgorithmResult:
    """The metrics Section V plots, for one algorithm on one scenario.

    :param name: algorithm name as used in the figures.
    :param total_energy_j: total system energy (Figs 2, 5).
    :param mean_latency_s: average task latency (Fig 4).
    :param unsatisfied_rate: deadline-miss/cancel fraction (Fig 3).
    :param processing_time_s: parallel makespan (Fig 6a; holistic
        algorithms report their max task latency).
    :param involved_devices: devices executing tasks (Fig 6b).
    """

    name: str
    total_energy_j: float
    mean_latency_s: float
    unsatisfied_rate: float
    processing_time_s: float
    involved_devices: int


EvaluateFn = Callable[[Scenario, RunContext], AlgorithmResult]
EvaluateBatchFn = Callable[
    [Sequence[Scenario], RunContext], Sequence[AlgorithmResult]
]
AssignFn = Callable[[MECSystem, Sequence[Task], RunContext], Assignment]


@dataclass(frozen=True)
class Algorithm:
    """One registered task-assignment algorithm.

    :param name: canonical display name (figure legends, CLI choices).
    :param summary: one-line description for ``--help`` style listings.
    :param evaluate: scenario → Section V metrics under a context.
    :param evaluate_batch: many scenarios → metrics in one call; present
        only for algorithms whose LP work can pool into a block-diagonal
        mega-solve (see :func:`repro.core.hta.lp_hta_batch`).  Must return
        exactly what ``[evaluate(s, ctx) for s in scenarios]`` would.
    :param assign: (system, tasks) → raw assignment under a context;
        ``None`` for pipelines that have no single holistic assignment.
    :param holistic: consumes holistic (indivisible) task scenarios.
    :param divisible: consumes divisible scenarios (catalog + ownership).
    :param baseline: a comparison scheme rather than a contribution.
    :param exact: computes a provably optimal assignment.
    :param in_figures: part of the paper's Section V-B competitor set.
    :param aliases: extra lookup keys (case-insensitive).
    """

    name: str
    summary: str
    evaluate: EvaluateFn
    evaluate_batch: Optional[EvaluateBatchFn] = None
    assign: Optional[AssignFn] = None
    holistic: bool = False
    divisible: bool = False
    baseline: bool = False
    exact: bool = False
    in_figures: bool = False
    aliases: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def key(self) -> str:
        """The canonical (normalised) lookup key."""
        return _normalise(self.name)


_REGISTRY: Dict[str, Algorithm] = {}
#: Canonical-name index, in registration order (drives listings).
_BY_NAME: "Dict[str, Algorithm]" = {}


def _normalise(name: str) -> str:
    return name.strip().lower()


def register(algorithm: Algorithm) -> Algorithm:
    """Add an algorithm to the registry.

    :param algorithm: the entry to add.
    :raises ValueError: when its name or an alias is already taken.
    """
    keys = [algorithm.key, *(_normalise(a) for a in algorithm.aliases)]
    for key in keys:
        if key in _REGISTRY:
            raise ValueError(
                f"algorithm key {key!r} is already registered "
                f"(by {_REGISTRY[key].name!r})"
            )
    for key in keys:
        _REGISTRY[key] = algorithm
    _BY_NAME[algorithm.name] = algorithm
    return algorithm


def get(name: str) -> Algorithm:
    """Look an algorithm up by display name or alias (case-insensitive).

    :param name: e.g. ``"LP-HTA"``, ``"lp-hta"`` or an alias like
        ``"cloud"``.
    :raises ValueError: for unknown names, listing every valid one.
    """
    algorithm = _REGISTRY.get(_normalise(name))
    if algorithm is None:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {sorted(_BY_NAME)}"
        )
    return algorithm


def algorithms(
    *,
    holistic: Optional[bool] = None,
    divisible: Optional[bool] = None,
    baseline: Optional[bool] = None,
    exact: Optional[bool] = None,
    in_figures: Optional[bool] = None,
    assignable: Optional[bool] = None,
) -> Tuple[Algorithm, ...]:
    """Registered algorithms matching every given flag, in registration order.

    :param assignable: require (or exclude) an ``assign`` factory.
    """
    out: List[Algorithm] = []
    for algorithm in _BY_NAME.values():
        if holistic is not None and algorithm.holistic != holistic:
            continue
        if divisible is not None and algorithm.divisible != divisible:
            continue
        if baseline is not None and algorithm.baseline != baseline:
            continue
        if exact is not None and algorithm.exact != exact:
            continue
        if in_figures is not None and algorithm.in_figures != in_figures:
            continue
        if assignable is not None and (algorithm.assign is not None) != assignable:
            continue
        out.append(algorithm)
    return tuple(out)


def names(**filters: Optional[bool]) -> Tuple[str, ...]:
    """Display names of :func:`algorithms` matching ``filters``."""
    return tuple(a.name for a in algorithms(**filters))


def run(
    name: str, scenario: Scenario, context: Optional[RunContext] = None
) -> AlgorithmResult:
    """Evaluate one algorithm by name on a scenario.

    :param name: display name or alias.
    :param scenario: the generated scenario.
    :param context: run configuration; defaults to the active context.
    """
    algorithm = get(name)
    ctx = context if context is not None else current_context()
    with use_context(ctx):
        return algorithm.evaluate(scenario, ctx)


def run_batch(
    name: str,
    scenarios: Sequence[Scenario],
    context: Optional[RunContext] = None,
) -> List[AlgorithmResult]:
    """Evaluate one algorithm on many scenarios, batching when possible.

    When the algorithm has an ``evaluate_batch`` factory and the context
    is not in reference mode, all scenarios'
    LP work pools into one block-diagonal mega-solve; otherwise this is
    exactly ``[run(name, s, context) for s in scenarios]``.  Either way
    the results are identical scenario for scenario.

    :param name: display name or alias.
    :param scenarios: the generated scenarios, evaluated in order.
    :param context: run configuration; defaults to the active context.
    """
    algorithm = get(name)
    ctx = context if context is not None else current_context()
    with use_context(ctx):
        if (
            algorithm.evaluate_batch is not None
            and len(scenarios) > 1
            and not ctx.reference
        ):
            return list(algorithm.evaluate_batch(scenarios, ctx))
        return [algorithm.evaluate(scenario, ctx) for scenario in scenarios]


def resolve_assignment(
    name: str,
    system: MECSystem,
    tasks: Sequence[Task],
    context: Optional[RunContext] = None,
) -> Assignment:
    """Produce one algorithm's raw assignment by name.

    :param name: display name or alias.
    :param system: the MEC system.
    :param tasks: the tasks to assign.
    :param context: run configuration; defaults to the active context.
    :raises ValueError: when the algorithm has no assignment form.
    """
    algorithm = get(name)
    if algorithm.assign is None:
        raise ValueError(
            f"algorithm {algorithm.name!r} does not produce a holistic "
            f"assignment; choose from {sorted(names(assignable=True))}"
        )
    ctx = context if context is not None else current_context()
    with use_context(ctx):
        return algorithm.assign(system, tasks, ctx)


# ---------------------------------------------------------------------------
# Concrete wiring
# ---------------------------------------------------------------------------


def _from_assignment(name: str, assignment: Assignment) -> AlgorithmResult:
    stats = assignment.stats()
    return AlgorithmResult(
        name=name,
        total_energy_j=stats.total_energy_j,
        mean_latency_s=stats.mean_latency_s,
        unsatisfied_rate=stats.unsatisfied_rate,
        processing_time_s=stats.max_latency_s,
        involved_devices=assignment.involved_devices(),
    )


def _evaluate_via_assign(
    name: str, assign: AssignFn
) -> EvaluateFn:
    def evaluate(scenario: Scenario, context: RunContext) -> AlgorithmResult:
        return _from_assignment(
            name, assign(scenario.system, list(scenario.tasks), context)
        )

    return evaluate


def _assign_lp_hta(
    system: MECSystem, tasks: Sequence[Task], context: RunContext
) -> Assignment:
    return lp_hta(system, list(tasks), context=context).assignment


def _evaluate_lp_hta_batch(
    scenarios: Sequence[Scenario], context: RunContext
) -> List[AlgorithmResult]:
    """Batch form of LP-HTA evaluation: one mega-solve across scenarios."""
    reports = lp_hta_batch(
        [(s.system, list(s.tasks)) for s in scenarios], context=context
    )
    return [_from_assignment(LP_HTA, report.assignment) for report in reports]


def _assign_hgos(
    system: MECSystem, tasks: Sequence[Task], context: RunContext
) -> Assignment:
    return hgos(system, list(tasks), context=context)


def _assign_all_to_cloud(
    system: MECSystem, tasks: Sequence[Task], context: RunContext
) -> Assignment:
    return all_to_cloud(system, list(tasks))


def _assign_all_offload(
    system: MECSystem, tasks: Sequence[Task], context: RunContext
) -> Assignment:
    return all_offload(system, list(tasks))


def _assign_game(
    system: MECSystem, tasks: Sequence[Task], context: RunContext
) -> Assignment:
    # An extension no figure runs: imported when its evaluator runs.
    from repro.core.game import best_response_offloading

    return best_response_offloading(system, list(tasks)).assignment


def _assign_local_first(
    system: MECSystem, tasks: Sequence[Task], context: RunContext
) -> Assignment:
    return local_first(system, list(tasks))


def _assign_random(
    system: MECSystem, tasks: Sequence[Task], context: RunContext
) -> Assignment:
    return random_assignment(system, list(tasks), seed=context.seed)


def _assign_bnb_exact(
    system: MECSystem, tasks: Sequence[Task], context: RunContext
) -> Assignment:
    """Per-cluster branch-and-bound optimum (small instances only).

    Clusters decouple exactly as in LP-HTA, so each is solved to optimality
    independently and the decisions are stitched back together.

    :raises ValueError: when a cluster has no feasible full assignment
        (exact search does not cancel tasks).
    """
    costs = cluster_costs(system, tasks)
    decisions: List[Subsystem] = [Subsystem.CANCELLED] * len(tasks)
    for cluster in _cluster_slices(system, costs):
        optimal = branch_and_bound_hta(
            cluster.costs, cluster.device_caps, cluster.station_cap
        )
        if optimal is None:
            raise ValueError(
                f"cluster {cluster.station_id} has no feasible full assignment; "
                "the exact search cannot cancel tasks"
            )
        for local_row, decision in zip(cluster.rows, optimal.decisions):
            decisions[local_row] = decision
    return Assignment(costs, decisions)


def _dta_result(name: str, outcome: "object") -> AlgorithmResult:
    stats = outcome.assignment.stats()  # type: ignore[attr-defined]
    return AlgorithmResult(
        name=name,
        total_energy_j=outcome.total_energy_j,  # type: ignore[attr-defined]
        mean_latency_s=stats.mean_latency_s,
        unsatisfied_rate=stats.unsatisfied_rate,
        processing_time_s=outcome.processing_time_s,  # type: ignore[attr-defined]
        involved_devices=outcome.involved_devices,  # type: ignore[attr-defined]
    )


def _evaluate_dta(name: str, objective: str) -> EvaluateFn:
    def evaluate(scenario: Scenario, context: RunContext) -> AlgorithmResult:
        if scenario.catalog is None or scenario.ownership is None:
            raise ValueError("DTA needs a divisible scenario (catalog + ownership)")
        outcome = run_dta(
            scenario.system,
            list(scenario.tasks),
            scenario.ownership,
            scenario.catalog,
            objective=objective,  # type: ignore[arg-type]
            context=context,
        )
        return _dta_result(name, outcome)

    return evaluate


def _evaluate_dta_batch(name: str, objective: str) -> EvaluateBatchFn:
    """Batch form of DTA evaluation: prepare every plan combinatorially,
    then clear all sub-task schedules in one LP-HTA mega-solve."""

    def evaluate_batch(
        scenarios: Sequence[Scenario], context: RunContext
    ) -> List[AlgorithmResult]:
        jobs = []
        for scenario in scenarios:
            if scenario.catalog is None or scenario.ownership is None:
                raise ValueError(
                    "DTA needs a divisible scenario (catalog + ownership)"
                )
            plan = prepare_dta(
                list(scenario.tasks),
                scenario.ownership,
                scenario.catalog,
                objective=objective,  # type: ignore[arg-type]
            )
            jobs.append((scenario.system, plan, scenario.catalog))
        outcomes = evaluate_plans(jobs, context=context)
        return [_dta_result(name, outcome) for outcome in outcomes]

    return evaluate_batch


#: Maps each DTA display name to its ``run_dta`` objective keyword.
DTA_OBJECTIVES: Mapping[str, str] = {
    DTA_WORKLOAD: "workload",
    DTA_NUMBER: "number",
}

register(
    Algorithm(
        name=LP_HTA,
        summary="the paper's LP relax-round-repair approximation (Sec. III)",
        evaluate=_evaluate_via_assign(LP_HTA, _assign_lp_hta),
        evaluate_batch=_evaluate_lp_hta_batch,
        assign=_assign_lp_hta,
        holistic=True,
        in_figures=True,
    )
)
register(
    Algorithm(
        name=HGOS_NAME,
        summary="data- and deadline-blind greedy offloading of [12]",
        evaluate=_evaluate_via_assign(HGOS_NAME, _assign_hgos),
        assign=_assign_hgos,
        holistic=True,
        baseline=True,
        in_figures=True,
    )
)
register(
    Algorithm(
        name=ALL_TO_CLOUD,
        summary="every task on the remote cloud",
        evaluate=_evaluate_via_assign(ALL_TO_CLOUD, _assign_all_to_cloud),
        assign=_assign_all_to_cloud,
        holistic=True,
        baseline=True,
        in_figures=True,
        aliases=("cloud",),
    )
)
register(
    Algorithm(
        name=ALL_OFFLOAD,
        summary="stations first (greedy by cap), overflow to the cloud",
        evaluate=_evaluate_via_assign(ALL_OFFLOAD, _assign_all_offload),
        assign=_assign_all_offload,
        holistic=True,
        baseline=True,
        in_figures=True,
    )
)
register(
    Algorithm(
        name=DTA_WORKLOAD,
        summary="divisible tasks, workload-balancing data division (Sec. IV-A)",
        evaluate=_evaluate_dta(DTA_WORKLOAD, DTA_OBJECTIVES[DTA_WORKLOAD]),
        evaluate_batch=_evaluate_dta_batch(
            DTA_WORKLOAD, DTA_OBJECTIVES[DTA_WORKLOAD]
        ),
        divisible=True,
        in_figures=True,
        aliases=("workload",),
    )
)
register(
    Algorithm(
        name=DTA_NUMBER,
        summary="divisible tasks, device-minimising data division (Sec. IV-B)",
        evaluate=_evaluate_dta(DTA_NUMBER, DTA_OBJECTIVES[DTA_NUMBER]),
        evaluate_batch=_evaluate_dta_batch(DTA_NUMBER, DTA_OBJECTIVES[DTA_NUMBER]),
        divisible=True,
        in_figures=True,
        aliases=("number",),
    )
)
register(
    Algorithm(
        name=GAME,
        summary="best-response dynamics to a Nash equilibrium (extension)",
        evaluate=_evaluate_via_assign(GAME, _assign_game),
        assign=_assign_game,
        holistic=True,
        baseline=True,
    )
)
register(
    Algorithm(
        name=LOCAL_FIRST,
        summary="deadline/resource-aware greedy: device, station, cloud",
        evaluate=_evaluate_via_assign(LOCAL_FIRST, _assign_local_first),
        assign=_assign_local_first,
        holistic=True,
        baseline=True,
    )
)
register(
    Algorithm(
        name=RANDOM,
        summary="uniformly random subsystem per task (constraint-blind)",
        evaluate=_evaluate_via_assign(RANDOM, _assign_random),
        assign=_assign_random,
        holistic=True,
        baseline=True,
    )
)
register(
    Algorithm(
        name=BNB_EXACT,
        summary="per-cluster branch-and-bound optimum (small instances)",
        evaluate=_evaluate_via_assign(BNB_EXACT, _assign_bnb_exact),
        assign=_assign_bnb_exact,
        holistic=True,
        exact=True,
    )
)
