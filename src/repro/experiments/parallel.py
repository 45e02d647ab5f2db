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
3. serve what each cell's context has already stored (see below), and
   store every completed cell's new results as it comes back;
4. run the remaining dispatch groups under a
   :class:`~repro.runtime.supervisor.Supervisor` (per-unit timeouts,
   bounded retries with backoff, poison-cell quarantine — a cell that
   keeps failing is recorded and skipped, its result slot left ``None``);
5. do that in-process when one worker would do (``jobs=1``, a single
   unit, a single CPU), else across a cached worker pool clamped to the
   number of units and CPUs.

The callers differ only in what they hand the runner: how cells group
into dispatch units, how a cell is served from its result store, the
error label of a cell, the in-process evaluator and the pool entry
point.  Results are
bit-identical in-process, under fork and under spawn because every cell
is a pure function of its picklable fields — scenario generation is a
pure function of ``(profile, seed)``, tile generation of ``(profile,
spec, shard_id, seed)``, and every evaluator is deterministic — and
because results are collected by cell index, whatever the scheduling.

Sweep cells sharing a profile, evaluator set and context — the seeds of
one sweep column — form one dispatch unit when an evaluator has a batch
form, so LP-HTA and DTA pool the column's Step-1 LP work into a single
block-diagonal mega-solve (:func:`repro.core.hta.lp_hta_batch`).
Column composition is a pure function of the cells left to dispatch —
never of ``jobs`` or pool scheduling — so results, spans and telemetry
do not depend on where the column runs.  Tiles are their own dispatch
units: each worker holds at most one tile at a time.

Reuse: the figures are views of one table of (profile, seed, evaluator)
results — Figs 2a, 3 and 4a sweep the same cells, 4b repeats 2b, and
2b's 3000 kB column is 2a's 100-task column — so every sweep result is
kept in its context's :class:`~repro.runtime.journal.ResultStore`,
keyed by :func:`_result_key`.  Before dispatching, :func:`run_cells`
serves every (cell, evaluator) pair the store holds: a cell with
nothing missing is never dispatched, and a cell missing some
evaluators runs with only those.  Lookups and stores happen in the
submitting process, so hits are identical in-process, under fork and
under spawn.  The store is a bounded in-memory LRU, or the ``--resume``
journal when the context names one — one mechanism for reuse within a
run and across a crash.  Callable evaluators and quarantined cells are
never stored; reference-mode cells, the uncached baseline, are served
only by an earlier run's journal, and tiles only by their journal.
Below the store, a per-process memo keyed by ``(profile, seed,
context)`` lets dispatched cells that share a scenario reuse it (and its
cost tables); reference-mode and traced cells always regenerate.

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
    ResultStore,
    RetryPolicy,
    Supervisor,
    context_fingerprint,
    fingerprint,
    result_store,
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


def _result_key(cell: SweepCell, spec: EvaluatorSpec) -> Optional[str]:
    """The store key of one evaluator's result on one cell, or ``None``
    when it cannot be fingerprinted.

    Callable evaluators have no stable identity a store could trust, so
    their results are always computed live.  Everything else in the key —
    profile, seed, the evaluator descriptor, the result-determining
    context fields of the cell and the evaluator — is a frozen value with
    a deterministic ``repr``.
    """
    if spec.kind == "callable":
        return None
    return fingerprint(
        "sweep-result",
        cell.profile,
        cell.seed,
        (
            spec.name,
            spec.kind,
            spec.target,
            None if spec.context is None else context_fingerprint(spec.context),
        ),
        context_fingerprint(cell.context),
    )


#: What a caller's ``serve`` hook hands the supervised runner: the results
#: the cells' result stores already hold (``None`` where a cell must run),
#: the cell to dispatch for each index (``None`` when served; possibly
#: narrowed to the missing evaluators), and a hook that completes and
#: stores a dispatched cell's result.
_Served = Tuple[
    List[Optional[Any]], List[Optional[Any]], Callable[[int, Any], Any]
]


def _serve_cells(cells: Sequence[SweepCell]) -> _Served:
    """Serve every (cell, evaluator) pair the cell's context has stored;
    narrow the rest.

    A cell with every result stored is not dispatched; a cell missing
    some runs with only those evaluators, and its completed tuple merges
    them back in evaluator order.  Reference-mode cells stay the uncached
    baseline: only an earlier run's journal serves them.
    """
    served: List[Optional[Any]] = []
    todo: List[Optional[SweepCell]] = []
    pending: Dict[
        int, Tuple[ResultStore, List[Optional[str]], List[Any], List[int], bool]
    ] = {}
    for index, cell in enumerate(cells):
        store = result_store(cell.context)
        keys = [_result_key(cell, spec) for spec in cell.evaluators]
        reuse = not cell.context.reference
        found = store.lookup(keys, reuse)
        missing = [j for j, value in enumerate(found) if value is None]
        if not missing:
            served.append(tuple(found))
            todo.append(None)
            continue
        served.append(None)
        if len(missing) < len(found):
            cell = dataclass_replace(
                cell, evaluators=tuple(cell.evaluators[j] for j in missing)
            )
        todo.append(cell)
        pending[index] = (store, keys, found, missing, reuse)

    def finish(index: int, computed: Tuple[AlgorithmResult, ...]) -> Tuple[AlgorithmResult, ...]:
        store, keys, found, missing, reuse = pending[index]
        for j, value in zip(missing, computed):
            found[j] = value
        store.keep(
            {keys[j]: found[j] for j in missing if keys[j] is not None}, reuse
        )
        return tuple(found)

    return served, todo, finish


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
    serve: Callable[[List[_Cell]], _Served],
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
    :param group: maps the cells left to dispatch to dispatch groups of
        their indices.  Composition is fixed before any dispatch decision,
        so batched mega-solves are identical in-process and across any
        pool.
    :param serve: answers what the cells' result stores already hold
        (see :data:`_Served`); its completion hook runs in this process
        as each dispatched cell finishes.
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

    results, todo, finish = serve(bound)
    left = [index for index, cell in enumerate(todo) if cell is not None]
    groups = [
        tuple(left[j] for j in ids) for ids in group([todo[i] for i in left])
    ]

    def deliver(index: int, value: Any) -> None:
        # Fires per completed cell, in this process, so results are stored
        # (and journalled) identically in-process, under fork and under
        # spawn, and a crash mid-sweep keeps everything finished so far.
        results[index] = finish(index, value)

    supervisor = Supervisor(
        RetryPolicy.from_context(ambient), ambient,
        describe=lambda ids: label([todo[i] for i in ids]),
        on_result=deliver,
    )
    # Never run more workers than units, and never oversubscribe the
    # machine: extra processes on a smaller box only add scheduler churn.
    # A one-worker pool would serialise anyway, so skip the pool entirely;
    # in-process, telemetry accrues directly in each cell's context.
    workers = min(jobs, len(groups), os.cpu_count() or jobs)
    if workers <= 1:
        supervisor.run_local(groups, lambda ids: evaluate([todo[i] for i in ids]))
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
        supervisor.run_pooled(
            groups, worker, lambda ids: tuple(todo[i] for i in ids), pool,
            ambient.telemetry.merge,
        )
    return results


def run_cells(
    cells: Sequence[SweepCell],
    jobs: Optional[int] = 1,
    start_method: Optional[str] = None,
) -> List[Optional[Tuple[AlgorithmResult, ...]]]:
    """Evaluate every cell, in-process or across a worker pool, supervised.

    Each (cell, evaluator) result is computed once per context: pairs
    the cell's context has already stored — by an earlier call, such as
    another figure over the same cells, or in the journal of an earlier
    run resumed with ``resume`` — are served bit-identically, since every
    result is a pure function of its fingerprinted inputs, and only the
    rest is dispatched.  A reference-mode cell is served only from an
    earlier run's journal.  Execution runs under the crash-safe runtime:
    failed cells are retried per the active context's
    :class:`~repro.runtime.supervisor.RetryPolicy` and quarantined
    (result slot ``None``, nothing stored) when they keep failing; each
    completed cell's new results are stored as it comes back, with one
    fsynced journal append when the context names a ``journal_path``.

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
        serve=_serve_cells,
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


def _serve_tiles(cells: Sequence[TileCell]) -> _Served:
    """Serve tiles an earlier run journalled; every other tile runs.

    Tiles are never reused from memory (``reuse=False``), so a tile's
    result store touches only its context's journal, when one is open.
    """
    keys = [_tile_key(cell) for cell in cells]
    served = [
        result_store(cell.context).lookup([key], reuse=False)[0]
        for cell, key in zip(cells, keys)
    ]
    todo = [None if value is not None else cell for value, cell in zip(served, cells)]

    def finish(index: int, result: TileResult) -> TileResult:
        result_store(cells[index].context).keep({keys[index]: result}, reuse=False)
        return result

    return served, todo, finish


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
        serve=_serve_tiles,
        label=_tile_label,
        evaluate=_evaluate_tiles,
        worker=_evaluate_tiles_with_telemetry,
    )
