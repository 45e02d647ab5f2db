"""Ablation tests for the design choices DESIGN.md calls out.

Not paper figures — these quantify our implementation decisions:

- LP backend: the structured IPM vs the generic dense IPM vs scipy,
- rounding rule: argmax (the paper's Step 3) vs randomized rounding,
- repair order: largest-resource-first (the paper's greedy) vs smallest,
- HGOS's deadline/data blindness: what ignoring C1 and the data
  distribution costs it,
- DTA-Workload greedy vs the exact min–max division,
- the analytic no-contention assumption vs FIFO-contended replay.
"""

import numpy as np
import pytest

from repro.core.baselines import hgos, local_first
from repro.core.hta import LPHTAOptions, lp_hta
from repro.des.replay import replay_assignment
from repro.dta.coverage import dta_workload, exact_min_max_coverage
from repro.workload import PAPER_DEFAULTS, generate_scenario


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(PAPER_DEFAULTS.with_updates(num_tasks=250), seed=0)


def test_lp_backend_structured_vs_dense(scenario):
    """The structured IPM must match the generic backends' energy."""
    tasks = list(scenario.tasks)
    structured = lp_hta(scenario.system, tasks, LPHTAOptions(backend="structured"))
    dense = lp_hta(scenario.system, tasks, LPHTAOptions(backend="interior-point"))
    scipy_ref = lp_hta(scenario.system, tasks, LPHTAOptions(backend="scipy"))
    e = structured.assignment.total_energy_j()
    print(f"\nenergy: structured={e:.2f} dense={dense.assignment.total_energy_j():.2f} "
          f"scipy={scipy_ref.assignment.total_energy_j():.2f}")
    assert e == pytest.approx(dense.assignment.total_energy_j(), rel=1e-3)
    assert e == pytest.approx(scipy_ref.assignment.total_energy_j(), rel=1e-3)


def test_rounding_rule(scenario):
    """Argmax rounding (Step 3) beats or matches randomized rounding."""
    tasks = list(scenario.tasks)
    argmax = lp_hta(scenario.system, tasks, LPHTAOptions(rounding="argmax"))
    randomized = [
        lp_hta(
            scenario.system, tasks, LPHTAOptions(rounding="randomized", seed=s)
        ).assignment.total_energy_j()
        for s in range(3)
    ]
    print(f"\nargmax={argmax.assignment.total_energy_j():.2f} "
          f"randomized mean={np.mean(randomized):.2f}")
    assert argmax.assignment.total_energy_j() <= np.mean(randomized) * 1.05


def test_repair_order(scenario):
    """Largest-resource-first repair (the paper's rule) vs smallest-first."""
    tasks = list(scenario.tasks)
    largest = lp_hta(
        scenario.system, tasks, LPHTAOptions(repair_order="largest-first")
    )
    smallest = lp_hta(
        scenario.system, tasks, LPHTAOptions(repair_order="smallest-first")
    )
    print(
        f"\nlargest-first={largest.assignment.total_energy_j():.2f} J "
        f"(unsat {largest.assignment.unsatisfied_rate():.3f})  "
        f"smallest-first={smallest.assignment.total_energy_j():.2f} J "
        f"(unsat {smallest.assignment.unsatisfied_rate():.3f})"
    )
    # Both repairs must produce feasible schedules; energies may differ.
    for report in (largest, smallest):
        caps = {
            d: scenario.system.device(d).max_resource for d in scenario.system.devices
        }
        problems = [
            p for p in report.assignment.violations(caps, float("inf"))
            if "C3" not in p
        ]
        assert problems == []


def test_hgos_blindness_cost(scenario):
    """What deadline/data blindness costs HGOS vs a constraint-aware greedy."""
    tasks = list(scenario.tasks)
    blind = hgos(scenario.system, tasks)
    aware = local_first(scenario.system, tasks)
    print(
        f"\nHGOS unsat={blind.unsatisfied_rate():.3f}  "
        f"deadline-aware greedy unsat={aware.unsatisfied_rate():.3f}"
    )
    assert blind.unsatisfied_rate() >= aware.unsatisfied_rate() - 1e-9


def test_dta_workload_greedy_vs_exact():
    """Empirical ratio of the DTA-Workload greedy against the exact min–max."""
    scenario = generate_scenario(
        PAPER_DEFAULTS.with_updates(
            num_tasks=40, num_devices=12, num_stations=2,
            divisible=True, num_data_items=120,
        ),
        seed=0,
    )
    universe = scenario.universe
    greedy = dta_workload(universe, scenario.ownership)
    exact = exact_min_max_coverage(universe, scenario.ownership)
    ratio = greedy.max_set_size() / max(exact.max_set_size(), 1)
    print(f"\ngreedy max|C|={greedy.max_set_size()} exact={exact.max_set_size()} "
          f"ratio={ratio:.2f}")
    assert ratio >= 1.0
    # The paper's Corollary 2 bound is 1/(1-1/e) ≈ 1.58; the greedy is a
    # whole-set variant, so allow a looser empirical band.
    assert ratio <= 4.0


def test_contention_overhead(scenario):
    """How much FIFO queueing inflates the analytic makespan."""
    tasks = list(scenario.tasks)
    report = lp_hta(scenario.system, tasks)
    contended = replay_assignment(scenario.system, tasks, report.assignment,
                                  contention=True)
    dedicated = replay_assignment(scenario.system, tasks, report.assignment)
    overhead = contended.makespan_s / dedicated.makespan_s
    print(f"\nmakespan dedicated={dedicated.makespan_s:.3f}s "
          f"contended={contended.makespan_s:.3f}s (x{overhead:.2f})")
    assert overhead >= 1.0
