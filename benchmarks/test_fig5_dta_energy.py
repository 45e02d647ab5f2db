"""Fig. 5: energy of the divisible-task algorithms vs holistic LP-HTA.

Paper's reported shape: DTA-Workload and DTA-Number spend far less energy
than LP-HTA (only op-info and partial results move, not raw data); the gap
widens as the workload grows (5a) and as the result size shrinks (5b).
"""

from conftest import BENCH_SEEDS, assert_dominates, show

from repro.experiments.figures import fig5a, fig5b


def test_fig5a_energy_vs_tasks():
    data = fig5a(seeds=BENCH_SEEDS)
    show(data)
    assert_dominates(data, "DTA-Workload", "LP-HTA")
    assert_dominates(data, "DTA-Number", "LP-HTA")
    # The absolute saving grows with the number of tasks (the paper: "more
    # raw data are avoided to transmit ... when the amount of tasks
    # increases"), and the saving is large throughout.
    lp, dta = data.values_of("LP-HTA"), data.values_of("DTA-Workload")
    assert lp[-1] - dta[-1] > lp[0] - dta[0]
    assert dta[-1] < 0.6 * lp[-1]


def test_fig5b_energy_vs_result_size():
    data = fig5b(seeds=BENCH_SEEDS)
    show(data)
    assert_dominates(data, "DTA-Workload", "LP-HTA")
    assert_dominates(data, "DTA-Number", "LP-HTA")
    for name in ("DTA-Workload", "DTA-Number"):
        values = data.values_of(name)
        # x = 0.4X, 0.2X, 0.1X, 0.05X, const: energy falls as results shrink.
        assert values[0] > values[1] > values[2] > values[3]
        # The constant (10 kB) series is the cheapest of all.
        assert values[4] <= values[3] * 1.02
