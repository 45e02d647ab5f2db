"""Fig. 2: energy cost of LP-HTA vs HGOS, AllToC, AllOffload.

Paper's reported shape: LP-HTA consumes the least energy at every sweep
point; HGOS is close but above; AllOffload and AllToC are far above, with
AllToC the worst; all curves grow with the workload.
"""

from conftest import BENCH_SEEDS, assert_dominates, assert_nondecreasing, show

from repro.experiments.figures import fig2a, fig2b


def test_fig2a_energy_vs_tasks():
    data = fig2a(seeds=BENCH_SEEDS)
    show(data)
    assert_dominates(data, "LP-HTA", "HGOS", slack=1.02)
    assert_dominates(data, "HGOS", "AllOffload")
    assert_dominates(data, "AllOffload", "AllToC", slack=1.01)
    for name in data.series:
        assert_nondecreasing(data, name)
    # LP-HTA's advantage over AllToC is large (the paper shows ~2-4x).
    assert data.values_of("AllToC")[-1] > 1.5 * data.values_of("LP-HTA")[-1]


def test_fig2b_energy_vs_input_size():
    data = fig2b(seeds=BENCH_SEEDS)
    show(data)
    assert_dominates(data, "LP-HTA", "HGOS", slack=1.02)
    assert_dominates(data, "HGOS", "AllOffload")
    assert_dominates(data, "AllOffload", "AllToC", slack=1.01)
    for name in data.series:
        assert_nondecreasing(data, name)
