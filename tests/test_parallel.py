"""The parallel sweep engine: determinism, spec resolution, error
contract, and the per-context result store."""

import multiprocessing
import os

import pytest

import repro.experiments.parallel as parallel_mod
from repro.context import RunContext, use_context
from repro.core.baselines import all_to_cloud
from repro.experiments.figures import run_figure
from repro.experiments.grid import run_grid
from repro.experiments.parallel import (
    EvaluatorSpec,
    SweepCell,
    as_spec,
    dta_spec,
    holistic_spec,
    pool_scope,
    resolve_jobs,
    run_cells,
)
from repro.experiments.runner import AlgorithmResult, evaluate_holistic
from repro.runtime import result_store
from repro.units import KB
from repro.workload.generator import generate_scenario
from repro.workload.profiles import PAPER_DEFAULTS

_PROFILE = PAPER_DEFAULTS.with_updates(num_tasks=12)
_AXES = {"num_tasks": [8, 12], "max_input_bytes": [1_000_000.0, 2_000_000.0]}
_EVALUATORS = {
    "LP-HTA": holistic_spec("LP-HTA"),
    "AllToC": holistic_spec("AllToC"),
}


def _cells(n=3):
    specs = (holistic_spec("AllToC"), holistic_spec("HGOS"))
    return [
        SweepCell(index=i, profile=_PROFILE, seed=i, evaluators=specs)
        for i in range(n)
    ]


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError, match="jobs must be"):
        resolve_jobs(-2)


def test_spec_resolution_dispatch():
    assert holistic_spec("LP-HTA").kind == "holistic"
    assert dta_spec("workload").name == "DTA-Workload"
    assert dta_spec("number").name == "DTA-Number"

    def evaluator(scenario):
        return evaluate_holistic(scenario, "AllToC")

    spec = as_spec("custom", evaluator)
    assert spec.kind == "callable"
    assert as_spec("again", spec) is spec
    with pytest.raises(ValueError, match="unknown evaluator kind"):
        EvaluatorSpec(name="bad", kind="nope", target=None)(None)


def test_run_cells_parallel_matches_sequential():
    # One fresh context per side: a shared one would serve the pooled run
    # from the in-process run's result store.
    cells = _cells()
    with use_context(RunContext()):
        sequential = run_cells(cells, jobs=1)
    with use_context(RunContext()):
        parallel = run_cells(cells, jobs=2)
    assert sequential == parallel


def test_run_cells_preserves_submission_order():
    cells = _cells(4)
    results = run_cells(cells, jobs=2)
    assert len(results) == len(cells)
    for row, cell in zip(results, cells):
        scenario = generate_scenario(cell.profile, seed=cell.seed)
        assert row == tuple(spec(scenario) for spec in cell.evaluators)


def test_unpicklable_evaluator_rejected_for_parallel_jobs():
    spec = as_spec("lambda", lambda scenario: all_to_cloud(scenario.system, scenario.tasks))
    cells = [
        SweepCell(index=i, profile=_PROFILE, seed=i, evaluators=(spec,))
        for i in range(2)
    ]
    # In-process path accepts closures…
    assert len(run_cells(cells, jobs=1)) == 2
    # …but any jobs > 1 request must fail loudly, on every machine — even
    # one small enough to run in-process.
    for work in (cells, cells[:1]):
        with pytest.raises(ValueError, match="not picklable"):
            run_cells(work, jobs=2)


def test_run_grid_parallel_bit_identical_to_sequential():
    with use_context(RunContext()):
        sequential = run_grid(
            _PROFILE, _AXES, _EVALUATORS, seeds=(0, 1), jobs=1
        )
    with use_context(RunContext()):
        parallel = run_grid(_PROFILE, _AXES, _EVALUATORS, seeds=(0, 1), jobs=2)
    assert len(sequential) == len(parallel)
    for seq_cell, par_cell in zip(sequential, parallel):
        assert seq_cell.point == par_cell.point
        assert seq_cell.evaluator == par_cell.evaluator
        # Exact float equality, not approx: the cells must be bit-identical.
        assert seq_cell.metrics == par_cell.metrics


def test_algorithm_result_roundtrip_through_spec():
    scenario = generate_scenario(_PROFILE, seed=0)
    spec = holistic_spec("AllToC")
    result = spec(scenario)
    assert isinstance(result, AlgorithmResult)
    direct = evaluate_holistic(scenario, "AllToC")
    assert result == direct


# ---------------------------------------------------------------------------
# Result store: each (profile, seed, evaluator) result is computed once per
# context, and a served figure is the computed one.
# ---------------------------------------------------------------------------

#: The holistic figures, in the order the ``sweep_holistic`` benchmark and
#: ``all-figures`` run them.  Figs 3/4a repeat 2a's cells, 4b repeats 2b's,
#: and 2b's 3000 kB column is 2a's 100-task column.
_HOLISTIC = ("fig2a", "fig2b", "fig3", "fig4a", "fig4b")
_SEEDS = (0,)

_START_METHODS = ["fork"] + (
    ["spawn"] if "spawn" in multiprocessing.get_all_start_methods() else []
)


@pytest.fixture
def _multi_cpu(monkeypatch):
    """Pretend the box has CPUs to spare, so ``jobs=2`` really pools even
    on a single-core runner."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


@pytest.fixture(scope="module")
def computed_figures():
    """Every holistic figure computed under its own fresh context."""
    outputs = {}
    for figure_id in _HOLISTIC:
        with use_context(RunContext()):
            outputs[figure_id] = repr(run_figure(figure_id, seeds=_SEEDS))
    return outputs


def _holistic_sequence(jobs=1, start_method=None):
    """Run the holistic figures in order under one context."""
    context = RunContext()
    with use_context(context), pool_scope():
        outputs = {
            figure_id: repr(
                run_figure(
                    figure_id, seeds=_SEEDS, jobs=jobs, start_method=start_method
                )
            )
            for figure_id in _HOLISTIC
        }
    return outputs, context.telemetry


_COUNTING_CALLS = []


def _counting_probe(scenario):
    """Module-level callable evaluator that records every call."""
    _COUNTING_CALLS.append(scenario.seed)
    return evaluate_holistic(scenario, "AllToC")


class TestResultStore:
    @pytest.mark.usefixtures("_multi_cpu")
    @pytest.mark.parametrize(
        "jobs, start_method",
        [(1, None)] + [(2, method) for method in _START_METHODS],
    )
    def test_served_figures_equal_computed(
        self, computed_figures, jobs, start_method
    ):
        outputs, telemetry = _holistic_sequence(jobs, start_method)
        assert outputs == computed_figures
        # 2a computes its 8 cells x 4 evaluators; 2b serves its 3000 kB
        # column (4 pairs) and computes 16; 3, 4a and 4b are all served
        # (24 + 32 + 20).  Decided in the submitting process, so the
        # counters are the same in-process, under fork and under spawn.
        assert (telemetry.store_hits, telemetry.store_misses) == (80, 48)

    def test_repeated_figure_dispatches_nothing(self):
        context = RunContext()
        with use_context(context):
            run_figure("fig2a", seeds=_SEEDS)
            before = (
                context.telemetry.solves,
                context.telemetry.scenario_memo_lookups,
            )
            run_figure("fig3", seeds=_SEEDS)
        after = (
            context.telemetry.solves, context.telemetry.scenario_memo_lookups
        )
        assert after == before
        assert context.telemetry.store_hits == 24

    def test_overlapping_figure_dispatches_only_new_columns(self, monkeypatch):
        columns = []
        evaluate_column = parallel_mod._evaluate_column

        def recording(cells):
            columns.append(sorted({cell.profile.max_input_bytes for cell in cells}))
            return evaluate_column(cells)

        seeds = (0, 1)
        context = RunContext()
        with use_context(context):
            run_figure("fig2a", seeds=seeds)
            monkeypatch.setattr(parallel_mod, "_evaluate_column", recording)
            fig2b = run_figure("fig2b", seeds=seeds)
        # Four of fig2b's five columns run, each as one two-seed unit; the
        # 3000 kB column is fig2a's 100-task column and is served.
        assert len(columns) == 4
        assert [3000 * KB] not in columns
        with use_context(RunContext()):
            assert repr(run_figure("fig2b", seeds=seeds)) == repr(fig2b)

    def test_reference_context_never_hits(self):
        cells = [
            SweepCell(
                index=i, profile=_PROFILE, seed=i,
                evaluators=(holistic_spec("LP-HTA"), holistic_spec("AllToC")),
            )
            for i in range(2)
        ]
        context = RunContext(reference=True)
        with use_context(context):
            first = run_cells(cells)
            solves = context.telemetry.solves
            second = run_cells(cells)
        assert first == second
        assert solves > 0
        assert context.telemetry.solves == 2 * solves
        assert context.telemetry.store_lookups == 0
        assert not result_store(context)._memory

    def test_callable_evaluators_never_stored(self):
        spec = as_spec("probe", _counting_probe)
        cells = [
            SweepCell(
                index=i, profile=_PROFILE, seed=i,
                evaluators=(spec, holistic_spec("AllToC")),
            )
            for i in range(3)
        ]
        del _COUNTING_CALLS[:]
        context = RunContext()
        with use_context(context):
            first = run_cells(cells)
            second = run_cells(cells)
        assert first == second
        # The callable ran both times; only the AllToC results were served.
        assert _COUNTING_CALLS == [0, 1, 2, 0, 1, 2]
        assert context.telemetry.store_hits == 3
        assert context.telemetry.store_misses == 3

    def test_quarantined_cells_are_recomputed(self, monkeypatch):
        scenario_for = parallel_mod._scenario_for
        rigged = [True]

        def fail_seed_1(profile, seed, context):
            if rigged[0] and seed == 1:
                raise RuntimeError("rigged scenario failure")
            return scenario_for(profile, seed, context)

        monkeypatch.setattr(parallel_mod, "_scenario_for", fail_seed_1)
        context = RunContext(max_attempts=2, retry_backoff_s=0.0)
        with use_context(context):
            first = run_cells(_cells())
            rigged[0] = False
            second = run_cells(_cells())
        assert first[1] is None and first[0] is not None
        assert context.telemetry.cells_quarantined == 1
        # Cells 0 and 2 are served; the quarantined cell runs again.
        assert context.telemetry.store_hits == 4
        with use_context(RunContext()):
            assert second == run_cells(_cells())
