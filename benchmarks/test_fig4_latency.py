"""Fig. 4: average latency of LP-HTA vs HGOS, AllToC, AllOffload.

Paper's reported shape: LP-HTA has the smallest average latency; its
advantage narrows with bigger inputs (Fig 4b) because large tasks outgrow
the devices and must be offloaded anyway.
"""

from conftest import BENCH_SEEDS, assert_dominates, show

from repro.experiments.figures import fig4a, fig4b


def test_fig4a_latency_vs_tasks():
    data = fig4a(seeds=BENCH_SEEDS)
    show(data)
    assert_dominates(data, "LP-HTA", "HGOS", slack=1.02)
    assert_dominates(data, "LP-HTA", "AllToC")
    assert_dominates(data, "LP-HTA", "AllOffload")
    # The cloud's WAN latency keeps AllToC clearly above LP-HTA.
    assert data.values_of("AllToC")[0] > 1.3 * data.values_of("LP-HTA")[0]


def test_fig4b_latency_vs_input_size():
    data = fig4b(seeds=BENCH_SEEDS)
    show(data)
    assert_dominates(data, "LP-HTA", "HGOS", slack=1.05)
    assert_dominates(data, "LP-HTA", "AllToC")
    assert_dominates(data, "LP-HTA", "AllOffload")
    # Latency grows with the input size for every method.
    for name in data.series:
        values = data.values_of(name)
        assert values[-1] > values[0]
    # LP-HTA and HGOS stay within the same band at small inputs (the paper:
    # the advantage over HGOS is least pronounced where devices absorb
    # everything), while the offload-everything baselines sit clearly above.
    assert data.values_of("AllToC")[0] > 1.5 * data.values_of("LP-HTA")[0]
