"""The parallel sweep engine: determinism, spec resolution, error contract."""

import pytest

from repro.core.baselines import all_to_cloud
from repro.experiments.grid import run_grid
from repro.experiments.parallel import (
    EvaluatorSpec,
    SweepCell,
    as_spec,
    dta_spec,
    holistic_spec,
    resolve_jobs,
    run_cells,
)
from repro.experiments.runner import AlgorithmResult, evaluate_holistic
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
    cells = _cells()
    sequential = run_cells(cells, jobs=1)
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
    sequential = run_grid(
        _PROFILE, _AXES, _EVALUATORS, seeds=(0, 1), jobs=1
    )
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
