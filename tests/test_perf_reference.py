"""The seed-reference paths behind ``RunContext(reference=True)`` must
match the optimised defaults bit for bit — they exist for differential
testing and honest benchmark baselines, not as a second implementation."""

import numpy as np

from repro.context import RunContext, use_context
from repro.core import costs as costs_module
from repro.core.baselines import hgos
from repro.core.costs import cluster_costs
from repro.core.hta import lp_hta
from repro.experiments.runner import evaluate_holistic
from repro.workload.generator import generate_scenario
from repro.workload.profiles import PAPER_DEFAULTS

_PROFILE = PAPER_DEFAULTS.with_updates(num_tasks=20)


def _reference():
    return use_context(RunContext(reference=True))


def test_generator_reference_matches_optimized():
    optimized = generate_scenario(_PROFILE, seed=5)
    with _reference():
        reference = generate_scenario(_PROFILE, seed=5)
    assert optimized.tasks == reference.tasks


def test_lp_hta_reference_matches_optimized():
    scenario = generate_scenario(_PROFILE, seed=2)
    optimized = lp_hta(scenario.system, scenario.tasks)
    with _reference():
        reference = lp_hta(scenario.system, scenario.tasks)
    assert optimized.assignment.decisions == reference.assignment.decisions
    assert optimized.assignment.stats() == reference.assignment.stats()


def test_hgos_reference_matches_optimized():
    scenario = generate_scenario(_PROFILE, seed=4)
    optimized = hgos(scenario.system, scenario.tasks)
    with _reference():
        reference = hgos(scenario.system, scenario.tasks)
    assert optimized.decisions == reference.decisions


def test_assignment_metrics_reference_matches_optimized():
    scenario = generate_scenario(_PROFILE, seed=1)
    optimized = evaluate_holistic(scenario, "LP-HTA")
    with _reference():
        reference = evaluate_holistic(scenario, "LP-HTA")
    # AlgorithmResult compares by exact float equality.
    assert optimized == reference


def test_cost_tables_reference_matches_optimized():
    scenario = generate_scenario(_PROFILE, seed=3)
    optimized = cluster_costs(scenario.system, scenario.tasks)
    with _reference():
        reference = cluster_costs(scenario.system, scenario.tasks)
    np.testing.assert_array_equal(optimized.time_s, reference.time_s)
    np.testing.assert_array_equal(optimized.energy_j, reference.energy_j)


def test_reference_context_prices_scalar_and_uncached(monkeypatch):
    """``reference`` alone selects the scalar pipeline and skips the memo."""
    calls = {"scalar": 0, "vectorized": 0}

    def counted(name, compute):
        def wrapper(system, tasks):
            calls[name] += 1
            return compute(system, tasks)

        return wrapper

    monkeypatch.setattr(
        costs_module, "_cluster_costs_scalar",
        counted("scalar", costs_module._cluster_costs_scalar),
    )
    monkeypatch.setattr(
        costs_module, "_cluster_costs_vectorized",
        counted("vectorized", costs_module._cluster_costs_vectorized),
    )
    scenario = generate_scenario(_PROFILE, seed=6)
    with _reference():
        first = cluster_costs(scenario.system, scenario.tasks)
        second = cluster_costs(scenario.system, scenario.tasks)
    assert calls == {"scalar": 2, "vectorized": 0}
    assert first is not second
