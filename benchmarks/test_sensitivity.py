"""Sensitivity tests: do the paper's orderings survive parameter changes?

DESIGN.md reconstructs several quantities the paper leaves open (deadline
distribution, resource caps, external-data share).  These tests sweep
those reconstructions and assert the paper's qualitative conclusions are
*not* artifacts of our particular choices.
"""

from repro.experiments.grid import pivot, run_grid
from repro.experiments.runner import evaluate_holistic
from repro.units import KB
from repro.workload import PAPER_DEFAULTS

_EVALUATORS = {
    name: (lambda scenario, n=name: evaluate_holistic(scenario, n))
    for name in ("LP-HTA", "HGOS", "AllOffload")
}

_BASE = PAPER_DEFAULTS.with_updates(num_tasks=150, max_input_bytes=3000 * KB)


def test_deadline_sensitivity():
    """LP-HTA's energy win and unsatisfied-rate win hold from tight to
    loose deadline regimes."""
    cells = run_grid(
        _BASE,
        {"deadline_range_s": [(0.3, 2.0), (0.5, 6.0), (2.0, 10.0)]},
        _EVALUATORS,
        seeds=(0, 1),
    )
    for metric in ("total_energy_j", "unsatisfied_rate"):
        lp = pivot(cells, "deadline_range_s", metric, "LP-HTA")
        hg = pivot(cells, "deadline_range_s", metric, "HGOS")
        for (point, lp_value), (_, hg_value) in zip(lp, hg):
            assert lp_value <= hg_value * 1.05, (metric, point)
    print("\ndeadline sweep:",
          [(p, round(v, 1)) for p, v in pivot(cells, "deadline_range_s",
                                              "total_energy_j", "LP-HTA")])


def test_cap_sensitivity():
    """The energy ordering holds whether caps barely bind or choke."""
    cells = run_grid(
        _BASE,
        {"device_max_resource": [2.0, 6.0, 18.0]},
        _EVALUATORS,
        seeds=(0, 1),
    )
    lp = pivot(cells, "device_max_resource", "total_energy_j", "LP-HTA")
    hg = pivot(cells, "device_max_resource", "total_energy_j", "HGOS")
    off = pivot(cells, "device_max_resource", "total_energy_j", "AllOffload")
    for (cap, lp_value), (_, hg_value), (_, off_value) in zip(lp, hg, off):
        assert lp_value <= hg_value * 1.05, cap
        assert hg_value <= off_value * 1.05, cap
    # Looser device caps let LP-HTA keep more work local: energy falls.
    assert lp[-1][1] < lp[0][1]
    print("\ncap sweep LP-HTA:", [(c, round(v, 1)) for c, v in lp])


def test_external_share_sensitivity():
    """More external data raises everyone's bill; LP-HTA stays cheapest."""
    cells = run_grid(
        _BASE,
        {"external_ratio_range": [(0.0, 0.0), (0.0, 0.5), (0.4, 1.0)]},
        _EVALUATORS,
        seeds=(0, 1),
    )
    lp = pivot(cells, "external_ratio_range", "total_energy_j", "LP-HTA")
    hg = pivot(cells, "external_ratio_range", "total_energy_j", "HGOS")
    for (point, lp_value), (_, hg_value) in zip(lp, hg):
        assert lp_value <= hg_value * 1.05, point
    print("\nexternal-share sweep LP-HTA:",
          [(p, round(v, 1)) for p, v in lp])
