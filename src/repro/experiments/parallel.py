"""Supervised, process-parallel execution of sweep cells and city tiles.

Two kinds of work reach the worker pool through this module: the
(profile × seed) :class:`SweepCell` of the figure reproducers and
:func:`repro.experiments.grid.run_grid`, via :func:`run_cells`, and the
per-shard :class:`TileCell` of the city-scale stream, via
:func:`run_tiles`.  Both are thin callers of one private supervised
runner, which owns every dispatch step once:

1. stamp the caller's :class:`~repro.context.RunContext` onto unbound
   cells, so worker processes — fork *or* spawn — see the submitter's
   exact configuration (the run configuration travels inside the pickle
   instead of relying on inherited process globals);
2. for ``jobs > 1``, check that the cells pickle — on every machine,
   even when the call ends up in-process;
3. replay journalled cells when the context resumes, and checkpoint every
   completed cell when it names a ``journal_path``;
4. run the remaining dispatch groups under a
   :class:`~repro.runtime.supervisor.Supervisor` (per-unit timeouts,
   bounded retries with backoff, poison-cell quarantine — a cell that
   keeps failing is recorded and skipped, its result slot left ``None``);
5. do that in-process when one worker would do (``jobs=1``, a single
   unit, a single CPU), else across a cached worker pool clamped to the
   number of units and CPUs.

The callers differ only in what they hand the runner: how cells group
into dispatch units, the journal key and error label of a cell, the
in-process evaluator and the pool entry point.  Results are
bit-identical in-process, under fork and under spawn because every cell
is a pure function of its picklable fields — scenario generation is a
pure function of ``(profile, seed)``, tile generation of ``(profile,
spec, shard_id, seed)``, and every evaluator is deterministic — and
because results are collected by cell index, whatever the scheduling.

Sweep cells sharing a profile, evaluator set and context — the seeds of
one sweep column — form one dispatch unit when an evaluator has a batch
form, so LP-HTA and DTA pool the column's Step-1 LP work into a single
block-diagonal mega-solve (:func:`repro.core.hta.lp_hta_batch`).
Column composition is a pure function of the cell list — never of
``jobs`` or pool scheduling — so results, spans and telemetry do not
depend on where the column runs.  A per-process memo keyed by
``(profile, seed, context)`` lets cells that share a scenario reuse it
(and its cost tables); reference-mode and traced cells always
regenerate.  Tiles are their own dispatch units: each worker holds at
most one tile at a time.

Worker failures travel back as
:class:`~repro.runtime.errors.RemoteCellError` with the remote traceback
attached; worker telemetry (solve counts, wall time, cache and
scenario-memo hits) is returned next to each unit's results and merged
into the submitting context's sink, so ``--stats`` covers parallel runs.

Pools persist between calls (keyed by worker count and start method,
torn down at interpreter exit): repeated sweeps skip pool start-up and
keep each worker's scenario memo warm.  Long-lived callers (the CLI)
wrap their dispatch in :func:`pool_scope`, which reaps the cached pools
deterministically on the way out — including the ``KeyboardInterrupt``
path.
"""

from __future__ import annotations

import atexit
import os
import pickle
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace as dataclass_replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import multiprocessing

import numpy as np

from repro import registry
from repro.context import RunContext, Telemetry, current_context, use_context
from repro.experiments.runner import (
    HOLISTIC_ALGORITHMS,
    AlgorithmResult,
    evaluate_dta,
    evaluate_holistic,
)
from repro.runtime import (
    PoolHandle,
    RemoteCellError,
    RetryPolicy,
    Supervisor,
    context_fingerprint,
    fingerprint,
    journal_for,
)
from repro.system.sharding import ShardSpec
from repro.workload.generator import Scenario, generate_scenario
from repro.workload.profiles import WorkloadProfile
from repro.workload.streaming import generate_tile

__all__ = [
    "EvaluatorSpec",
    "SweepCell",
    "TileCell",
    "TileResult",
    "as_spec",
    "dta_spec",
    "holistic_spec",
    "pool_scope",
    "resolve_jobs",
    "run_cells",
    "run_tiles",
    "seed_mean",
    "shutdown_pools",
]


@dataclass(frozen=True)
class EvaluatorSpec:
    """A picklable description of one evaluator.

    :param name: display name used as the series/evaluator key.
    :param kind: ``"holistic"`` (``target`` is an algorithm name),
        ``"dta"`` (``target`` is a DTA objective) or ``"callable"``
        (``target`` is any ``Scenario -> AlgorithmResult`` callable; it
        must itself pickle for ``jobs > 1``).
    :param target: the dispatch payload for ``kind``.
    :param context: explicit run configuration for this evaluator; when
        ``None`` (the default) the ambient context applies — in workers
        that is the enclosing :class:`SweepCell`'s context.
    """

    name: str
    kind: str
    target: Any
    context: Optional[RunContext] = None

    def __call__(self, scenario: Scenario) -> AlgorithmResult:
        context = self.context if self.context is not None else current_context()
        if self.kind == "holistic":
            return evaluate_holistic(scenario, self.target, context)
        if self.kind == "dta":
            return evaluate_dta(scenario, self.target, context)
        if self.kind == "callable":
            with use_context(context):
                return self.target(scenario)
        raise ValueError(f"unknown evaluator kind {self.kind!r}")

    def run_batch(self, scenarios: Sequence[Scenario]) -> List[AlgorithmResult]:
        """Evaluate many scenarios at once, pooling LP work where possible.

        Registry algorithms with a batch form (LP-HTA, both DTA entries)
        clear all scenarios' Step-1 relaxations in one block-diagonal
        mega-solve (:func:`repro.registry.run_batch`); everything else
        degenerates to the per-scenario loop.  Results are identical to
        ``[self(s) for s in scenarios]`` either way.
        """
        context = self.context if self.context is not None else current_context()
        if self.kind == "holistic":
            # Same membership check evaluate_holistic applies per call.
            if registry.get(self.target).name not in HOLISTIC_ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {self.target!r}; "
                    f"choose from {sorted(HOLISTIC_ALGORITHMS)}"
                )
            return registry.run_batch(self.target, scenarios, context)
        if self.kind == "dta":
            if self.target not in registry.DTA_OBJECTIVES.values():
                raise ValueError(
                    f"unknown DTA objective {self.target!r}; "
                    f"choose from {sorted(registry.DTA_OBJECTIVES.values())}"
                )
            return registry.run_batch(self.target, scenarios, context)
        return [self(scenario) for scenario in scenarios]


def holistic_spec(
    name: str, context: Optional[RunContext] = None
) -> EvaluatorSpec:
    """Spec for a holistic algorithm by registry name (e.g. ``"LP-HTA"``)."""
    return EvaluatorSpec(name=name, kind="holistic", target=name, context=context)


def dta_spec(objective: str, context: Optional[RunContext] = None) -> EvaluatorSpec:
    """Spec for a DTA run by objective (``"workload"`` or ``"number"``)."""
    name = registry.get(objective).name
    return EvaluatorSpec(name=name, kind="dta", target=objective, context=context)


def as_spec(name: str, evaluator: Callable[[Scenario], AlgorithmResult]) -> EvaluatorSpec:
    """Wrap an arbitrary evaluator callable, passing specs through as-is."""
    if isinstance(evaluator, EvaluatorSpec):
        return evaluator
    return EvaluatorSpec(name=name, kind="callable", target=evaluator)


@dataclass(frozen=True)
class SweepCell:
    """One unit of parallel work: a scenario plus its evaluators.

    :param index: position in the submitted cell list (results come back
        in this order regardless of scheduling).
    :param profile: workload profile to generate the scenario from.
    :param seed: scenario seed.
    :param evaluators: evaluators to run, in order.
    :param context: run configuration the cell executes under.  ``None``
        means "whatever is active where the cell runs"; :func:`run_cells`
        stamps its caller's context onto unbound cells before dispatch so
        worker processes — fork *or* spawn — see the submitter's exact
        configuration.
    """

    index: int
    profile: WorkloadProfile
    seed: int
    evaluators: Tuple[EvaluatorSpec, ...]
    context: Optional[RunContext] = None


#: Per-process scenario memo: cells sharing (profile, seed, context) reuse
#: one generated scenario (and, through it, its memoised cost tables).
#: Scenario generation is a pure function of the key, so reuse is exact.
#: Bounded LRU so long sweeps over many profiles don't accumulate scenarios.
_SCENARIO_MEMO: "OrderedDict[Tuple[WorkloadProfile, int, RunContext], Scenario]" = (
    OrderedDict()
)
_SCENARIO_MEMO_CAPACITY = 64


def _scenario_for(
    profile: WorkloadProfile, seed: int, context: RunContext
) -> Scenario:
    """The cell's scenario, served from the per-process memo when possible.

    Reference mode always regenerates: the seed-era pipeline had no memo,
    and benchmark baselines must not borrow speed from one.  Traced runs
    also bypass it — which cells hit the memo depends on pool scheduling,
    and trace content must be deterministic across start methods.  Every
    lookup is counted in the context's telemetry (``--stats`` reports the
    rate).
    """
    if context.reference or context.trace:
        return generate_scenario(profile, seed=seed)
    key = (profile, seed, context)
    scenario = _SCENARIO_MEMO.get(key)
    context.telemetry.metrics.incr(
        "memo.hits" if scenario is not None else "memo.misses"
    )
    if scenario is not None:
        _SCENARIO_MEMO.move_to_end(key)
        return scenario
    scenario = generate_scenario(profile, seed=seed)
    _SCENARIO_MEMO[key] = scenario
    while len(_SCENARIO_MEMO) > _SCENARIO_MEMO_CAPACITY:
        _SCENARIO_MEMO.popitem(last=False)
    return scenario


#: Evaluator kinds whose :meth:`EvaluatorSpec.run_batch` pools LP work.
_BATCH_KINDS = ("holistic", "dta")


def _group_columns(cells: Sequence[SweepCell]) -> List[List[int]]:
    """Deterministic sweep columns: cell indices grouped for batching.

    Cells sharing (profile, evaluators, context) — the seeds of one sweep
    column — form one group, in first-appearance order, when one of the
    evaluators has a batch form (kind ``holistic`` or ``dta``, see
    :meth:`EvaluatorSpec.run_batch`).  Columns of only ``callable``
    evaluators gain nothing from batching, and reference-mode cells never
    batch; both stay singleton groups, preserving per-cell pool
    granularity.  Composition is a pure function of the cell list — never
    of ``jobs``, the start method or pool scheduling — so the batched
    mega-solves (and therefore telemetry, spans and results) are identical
    in-process, under fork and under spawn.

    The context is compared by *identity*, not equality: a column's work
    runs under (and reports into) one context, which is only correct when
    its cells genuinely share the object — as cells stamped by
    :func:`run_cells` do.  Equal-but-distinct contexts keep their own
    telemetry sinks and stay unbatched.
    """
    groups: "OrderedDict[Any, List[int]]" = OrderedDict()
    for index, cell in enumerate(cells):
        context = cell.context
        if (
            context is not None
            and not context.reference
            and any(spec.kind in _BATCH_KINDS for spec in cell.evaluators)
        ):
            key: Any = ("column", cell.profile, cell.evaluators, id(context))
        else:
            key = ("cell", index)
        try:
            groups.setdefault(key, []).append(index)
        except TypeError:  # unhashable evaluator target: no batching
            groups[("cell", index)] = [index]
    return list(groups.values())


def _evaluate_column(cells: Sequence[SweepCell]) -> List[Tuple[AlgorithmResult, ...]]:
    """Evaluate one sweep column, batching each evaluator across its cells.

    The column's context (when bound) is activated around both scenario
    generation and evaluation, so reference/optimised routing and LP
    settings are taken from the cells, never from process globals.  Every
    cell's scenario is obtained first, then each evaluator runs once over
    the whole column — which is where LP-HTA and DTA pool their Step-1
    relaxations into one mega-solve; a one-cell column runs each evaluator
    on its one scenario.  Returns per-cell result tuples in cell order.
    """
    context = cells[0].context if cells[0].context is not None else current_context()
    with use_context(context):
        scenarios = [
            _scenario_for(cell.profile, cell.seed, context) for cell in cells
        ]
        per_cell: List[List[AlgorithmResult]] = [[] for _ in cells]
        for spec in cells[0].evaluators:
            for index, result in enumerate(spec.run_batch(scenarios)):
                per_cell[index].append(result)
        return [tuple(results) for results in per_cell]


def _column_label(cells: Sequence[SweepCell]) -> str:
    """Where a column lives, for remote-error messages and quarantine."""
    if len(cells) == 1:
        cell = cells[0]
        return f"cell {cell.index} (seed {cell.seed})"
    indices = [cell.index for cell in cells]
    seeds = sorted({cell.seed for cell in cells})
    return f"cells {indices} (seeds {seeds})"


def _pool_entry(
    cells: Sequence[Any],
    evaluate: Callable[[Sequence[Any]], List[Any]],
    label: Callable[[Sequence[Any]], str],
) -> Tuple[List[Any], Telemetry]:
    """The body of both pool entry points: a unit's results plus the
    telemetry they generated.

    Unpickled contexts start with zeroed telemetry (see
    :meth:`~repro.context.RunContext.__getstate__`), so the returned sink
    holds exactly this unit's deltas for the parent to merge.  Evaluation
    failures are re-raised as
    :class:`~repro.runtime.errors.RemoteCellError` so the formatted remote
    stack, the unit's label and its config-error verdict survive the
    pickle boundary back to the supervisor.
    """
    try:
        results = evaluate(cells)
    except RemoteCellError:
        raise
    except Exception as exc:
        raise RemoteCellError.wrap(exc, label(cells)) from None
    context = cells[0].context if cells[0].context is not None else current_context()
    return results, context.telemetry


def _evaluate_column_with_telemetry(
    cells: Sequence[SweepCell],
) -> Tuple[List[Tuple[AlgorithmResult, ...]], Telemetry]:
    """Pool entry point for a sweep column (its cells share one context
    pickle, so the column's telemetry lands in one sink)."""
    return _pool_entry(cells, _evaluate_column, _column_label)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request: ``None``/``0`` mean all CPUs.

    :raises ValueError: for negative values.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


#: A sweep or tile cell: a frozen dataclass with a ``context`` field.
_Cell = TypeVar("_Cell")


def _bind_context(cell: _Cell, context: RunContext) -> _Cell:
    """Stamp ``context`` onto a cell that does not carry one already."""
    if cell.context is not None:
        return cell
    return dataclass_replace(cell, context=context)


#: Live pools keyed by (worker count, start method), reused across
#: :func:`run_cells` and :func:`run_tiles` calls.  Repeated sweeps (figure batches, benchmark
#: repeats) would otherwise pay pool start-up per call and lose every
#: worker's scenario memo each time.
_POOLS: Dict[Tuple[int, str], ProcessPoolExecutor] = {}


def _shutdown_pools() -> None:
    """Tear down every cached pool (registered via :mod:`atexit`)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(_shutdown_pools)


def shutdown_pools() -> None:
    """Tear down every cached worker pool now.

    Safe to call at any time; the next pooled call simply starts fresh
    pools.  Normally invoked through :func:`pool_scope`.
    """
    _shutdown_pools()


@contextmanager
def pool_scope() -> Iterator[None]:
    """Scope the cached worker pools to a ``with`` block.

    Pools still persist *between* sweeps inside the block (warm workers,
    warm scenario memos); on exit — normal return, exception or
    ``KeyboardInterrupt`` — every cached pool is shut down with its
    futures cancelled, so workers are reaped deterministically instead of
    at interpreter exit.  The CLI wraps each command dispatch in this.
    """
    try:
        yield
    finally:
        _shutdown_pools()


def _pool_for(workers: int, mp_context: "multiprocessing.context.BaseContext") -> ProcessPoolExecutor:
    """A cached executor for (workers, start method), created on demand."""
    key = (workers, mp_context.get_start_method())
    pool = _POOLS.get(key)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=mp_context)
        _POOLS[key] = pool
    return pool


def _discard_pool(workers: int, mp_context: "multiprocessing.context.BaseContext") -> None:
    """Drop (and shut down) a cached pool after a failure."""
    key = (workers, mp_context.get_start_method())
    pool = _POOLS.pop(key, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def _cell_key(cell: SweepCell) -> Optional[str]:
    """The cell's journal key, or ``None`` when it cannot be fingerprinted.

    Callable evaluators have no stable identity the journal could trust
    across runs, so cells carrying one always run live.  Everything else
    in the key — profile, seed, evaluator descriptors, the
    result-determining context fields — is a frozen value with a
    deterministic ``repr``.
    """
    if any(spec.kind == "callable" for spec in cell.evaluators):
        return None
    specs = tuple(
        (
            spec.name,
            spec.kind,
            spec.target,
            None if spec.context is None else context_fingerprint(spec.context),
        )
        for spec in cell.evaluators
    )
    return fingerprint(
        "sweep-cell",
        cell.profile,
        cell.seed,
        specs,
        context_fingerprint(cell.context),
    )


def _mp_context(
    start_method: Optional[str],
) -> "multiprocessing.context.BaseContext":
    """The multiprocessing context for a requested start method.

    ``None`` prefers ``fork`` (cheap start-up, no re-import of
    numpy/scipy) and falls back to the platform default where fork is
    unavailable.
    """
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _run_supervised(
    cells: Sequence[_Cell],
    jobs: Optional[int],
    start_method: Optional[str],
    *,
    group: Callable[[List[_Cell]], List[List[int]]],
    key: Callable[[_Cell], Optional[str]],
    label: Callable[[Sequence[_Cell]], str],
    evaluate: Callable[[Sequence[_Cell]], List[Any]],
    worker: Callable[[Sequence[_Cell]], Tuple[List[Any], Telemetry]],
) -> List[Optional[Any]]:
    """The supervised dispatch body behind :func:`run_cells` and
    :func:`run_tiles`.

    :param cells: the work descriptors; unbound ones get the caller's
        context stamped on.
    :param jobs: as for :func:`run_cells`.
    :param start_method: as for :func:`run_cells`.
    :param group: maps the bound cells to dispatch groups of cell indices.
        Composition is fixed on the full list, before replay and before
        any dispatch decision, so batched mega-solves are identical
        in-process and across any pool.
    :param key: a cell's journal key; ``None`` means "never journal".
    :param label: where a unit lives, for quarantine records.
    :param evaluate: in-process evaluator: a unit's cells to their
        results, in order.
    :param worker: pool entry point with the same contract plus the
        unit's telemetry.  Callers pass it as a module-global name read at
        call time, so a rebound module attribute (a profiler's wrapper)
        is what ships to the workers.
    :returns: per-cell results, in ``cells`` order; ``None`` marks a
        quarantined cell.
    """
    jobs = resolve_jobs(jobs)
    ambient = current_context()
    bound = [_bind_context(cell, ambient) for cell in cells]
    if jobs > 1:
        # Validated for every jobs > 1 request — even ones that end up
        # running in-process below — so picklability problems surface on
        # every machine, not just multi-core ones.
        try:
            pickle.dumps(tuple(bound))
        except Exception as exc:  # pickle raises a zoo of types
            raise ValueError(
                "cells are not picklable, so they cannot be shipped to worker "
                "processes; use holistic_spec()/dta_spec() or a module-level "
                f"callable instead of a closure (jobs={jobs}): {exc}"
            ) from exc

    results: List[Optional[Any]] = [None] * len(bound)
    journal = journal_for(ambient.journal_path, ambient.resume)
    keys = [key(cell) if journal is not None else None for cell in bound]
    replayed: set = set()
    if journal is not None and ambient.resume:
        for index, cell_key in enumerate(keys):
            value = journal.get(cell_key) if cell_key is not None else None
            if value is not None:
                results[index] = value
                replayed.add(index)
        if replayed:
            ambient.telemetry.metrics.incr("journal.replays", len(replayed))
    groups = [tuple(i for i in ids if i not in replayed) for ids in group(bound)]
    groups = [ids for ids in groups if ids]

    def checkpoint(index: int, value: Any) -> None:
        # Fires per completed cell so a crash mid-sweep keeps everything
        # finished so far, not just what a completed run would have saved.
        if keys[index] is not None:
            journal.record(keys[index], value)

    supervisor = Supervisor(
        RetryPolicy.from_context(ambient), ambient,
        describe=lambda ids: label([bound[i] for i in ids]),
        on_result=checkpoint,
    )
    # Never run more workers than units, and never oversubscribe the
    # machine: extra processes on a smaller box only add scheduler churn.
    # A one-worker pool would serialise anyway, so skip the pool entirely;
    # in-process, telemetry accrues directly in each cell's context.
    workers = min(jobs, len(groups), os.cpu_count() or jobs)
    if workers <= 1:
        result_map, _ = supervisor.run_local(
            groups, lambda ids: evaluate([bound[i] for i in ids])
        )
    else:
        # The pool is cached and reused by later calls: repeated sweeps
        # skip process start-up, and each worker keeps its scenario memo
        # warm.  Crash/timeout handling — pool discarding, retries,
        # quarantine — lives in the supervisor.  Each unit ships as one
        # pickle, so its cells' shared context stays one object in the
        # worker and the unit's telemetry lands in one sink, which is
        # folded back into the caller's so --stats covers parallel runs.
        mp_context = _mp_context(start_method)
        pool = PoolHandle(
            acquire=lambda: _pool_for(workers, mp_context),
            discard=lambda: _discard_pool(workers, mp_context),
        )
        result_map, _ = supervisor.run_pooled(
            groups, worker, lambda ids: tuple(bound[i] for i in ids), pool,
            ambient.telemetry.merge,
        )
    for index, value in result_map.items():
        results[index] = value
    return results


def run_cells(
    cells: Sequence[SweepCell],
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> List[Optional[Tuple[AlgorithmResult, ...]]]:
    """Evaluate every cell, in-process or across a worker pool, supervised.

    Execution runs under the crash-safe runtime: failed cells are retried
    per the active context's :class:`~repro.runtime.supervisor.RetryPolicy`
    and quarantined (result slot ``None``) when they keep failing; when
    the context names a ``journal_path`` every completed cell is
    checkpointed, and with ``resume`` set journalled cells are replayed
    instead of recomputed — bit-identically, because every cell is a pure
    function of its fingerprinted inputs.

    :param cells: the work descriptors.
    :param jobs: worker processes; ``1`` (default) runs in-process,
        ``None`` or ``0`` use every CPU.
    :param start_method: multiprocessing start method for ``jobs > 1``
        (``"fork"``, ``"spawn"``, ...).  ``None`` prefers ``fork`` where
        available (cheap start-up, no re-import of numpy/scipy) and falls
        back to the platform default.  Results are identical either way
        because cells carry their :class:`~repro.context.RunContext`
        explicitly.
    :returns: per-cell evaluator results, in ``cells`` order; ``None``
        marks a quarantined cell.
    :raises ValueError: when ``jobs > 1`` and a cell does not pickle
        (e.g. a lambda evaluator was wrapped via :func:`as_spec`).
    """
    return _run_supervised(
        cells, jobs, start_method,
        group=_group_columns,
        key=_cell_key,
        label=_column_label,
        evaluate=_evaluate_column,
        worker=_evaluate_column_with_telemetry,
    )


def seed_mean(
    rows: Sequence[Optional[Tuple[AlgorithmResult, ...]]],
    value: Callable[[Tuple[AlgorithmResult, ...]], float],
) -> float:
    """Mean of ``value(row)`` over one sweep point's seeds.

    :param rows: the point's :func:`run_cells` results, one per seed.
        Quarantined cells come back as ``None``; they are skipped.
    :param value: reads the metric off one surviving row.
    :returns: the mean over the surviving seeds, ``nan`` when every seed
        at the point was lost.
    """
    values = [value(row) for row in rows if row is not None]
    return float(np.mean(values)) if values else float("nan")


@dataclass(frozen=True)
class TileCell:
    """One shard's unit of streamed work: generate a tile, solve it.

    The city-scale counterpart of :class:`SweepCell` — the dispatch unit
    is a *shard*, not a (profile × seed) cell.  A cell carries only the
    (frozen) global profile, the shard spec, the shard id, the stream seed
    and an explicit context, so it pickles cheaply and the worker rebuilds
    its tile from scratch: no global scenario, no global cost tensor, no
    inherited process state.  Fork- and spawn-started workers therefore
    produce bit-identical results.

    :param profile: the global workload profile being streamed.
    :param spec: contiguous station partition covering the profile.
    :param shard_id: which shard this cell generates and solves.
    :param seed: the global stream seed.
    :param context: run configuration; ``None`` means "stamped by
        :func:`run_tiles` from its caller's ambient context".
    """

    profile: WorkloadProfile
    spec: ShardSpec
    shard_id: int
    seed: int
    context: Optional[RunContext] = None


@dataclass(frozen=True)
class TileResult:
    """Picklable summary of one solved tile.

    Carries aggregates only — never the tile's system, tasks or cost
    table — so results from 10⁵-device streams stay a few hundred bytes
    per shard.

    :param shard_id: which shard produced this result.
    :param num_devices: devices in the tile.
    :param num_stations: stations in the tile.
    :param num_tasks: tasks in the tile.
    :param cancelled: tasks LP-HTA cancelled in the tile.
    :param total_energy_j: final assignment energy over the tile.
    :param lp_objective_j: the tile's Step-1 relaxation optimum.
    """

    shard_id: int
    num_devices: int
    num_stations: int
    num_tasks: int
    cancelled: int
    total_energy_j: float
    lp_objective_j: float


def _evaluate_tile(cell: TileCell) -> TileResult:
    """Generate the cell's tile and LP-HTA it.

    Tile generation is a pure function of (profile, spec, shard_id, seed)
    and LP-HTA is deterministic, so the result does not depend on which
    process runs the cell or in what order.
    """
    from repro.core.assignment import Subsystem
    from repro.core.hta import lp_hta

    context = cell.context if cell.context is not None else current_context()
    with use_context(context):
        tile = generate_tile(cell.profile, cell.spec, cell.shard_id, cell.seed)
        if tile.num_tasks == 0:
            return TileResult(
                shard_id=cell.shard_id,
                num_devices=tile.num_devices,
                num_stations=tile.system.num_stations,
                num_tasks=0,
                cancelled=0,
                total_energy_j=0.0,
                lp_objective_j=0.0,
            )
        report = lp_hta(tile.system, list(tile.tasks), context=context)
        context.telemetry.metrics.incr("shard.solves")
        counts = report.assignment.subsystem_counts()
        return TileResult(
            shard_id=cell.shard_id,
            num_devices=tile.num_devices,
            num_stations=tile.system.num_stations,
            num_tasks=tile.num_tasks,
            cancelled=counts.get(Subsystem.CANCELLED, 0),
            total_energy_j=report.assignment.total_energy_j(),
            lp_objective_j=report.lp_objective_j,
        )


def _tile_label(cells: Sequence[TileCell]) -> str:
    """Where a tile unit lives, for remote errors and quarantine records."""
    if len(cells) == 1:
        cell = cells[0]
        return f"tile shard {cell.shard_id} (seed {cell.seed})"
    shards = [cell.shard_id for cell in cells]
    return f"tile shards {shards} (seed {cells[0].seed})"


def _evaluate_tiles(cells: Sequence[TileCell]) -> List[TileResult]:
    """Evaluate a unit of (usually one) tile cells, in order."""
    return [_evaluate_tile(cell) for cell in cells]


def _evaluate_tiles_with_telemetry(
    cells: Sequence[TileCell],
) -> Tuple[List[TileResult], Telemetry]:
    """Pool entry point for a unit of tile cells."""
    return _pool_entry(cells, _evaluate_tiles, _tile_label)


def _tile_key(cell: TileCell) -> str:
    """The tile cell's journal key (tiles always fingerprint)."""
    return fingerprint(
        "tile-cell",
        cell.profile,
        cell.spec,
        cell.shard_id,
        cell.seed,
        context_fingerprint(cell.context),
    )


def run_tiles(
    cells: Sequence[TileCell],
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> List[Optional[TileResult]]:
    """Generate-and-solve every tile, in-process or across a worker pool.

    The streamed analogue of :func:`run_cells`, with shards as the
    dispatch unit: each worker holds at most one tile's system and cost
    rows at a time, so peak memory is bounded by the largest *shard*, not
    the city.  Both share one supervised runner, so tiles get the same
    pool cache, retry/quarantine, journalled checkpoints, picklability
    check, order preservation and telemetry merge-back as sweep cells.

    :param cells: one descriptor per shard to stream.
    :param jobs: worker processes; ``1`` (default) runs in-process,
        ``None`` or ``0`` use every CPU.
    :param start_method: multiprocessing start method for ``jobs > 1``;
        ``None`` prefers ``fork``.  Results are bit-identical either way
        because cells carry their context and tiles are pure functions of
        their cell.
    :returns: per-cell tile results, in ``cells`` order; ``None`` marks a
        quarantined tile.
    :raises ValueError: when ``jobs > 1`` and a cell does not pickle.
    """
    return _run_supervised(
        cells, jobs, start_method,
        # Tiles are already the dispatch granularity: one unit each.
        group=lambda bound: [[index] for index in range(len(bound))],
        key=_tile_key,
        label=_tile_label,
        evaluate=_evaluate_tiles,
        worker=_evaluate_tiles_with_telemetry,
    )
