"""Fig. 6: DTA-Workload vs DTA-Number head to head.

Paper's reported shape: DTA-Workload's balanced division gives much lower
processing time (6a); DTA-Number's set-cover division involves far fewer
mobile devices (6b).
"""

from conftest import BENCH_SEEDS, assert_dominates, show

from repro.experiments.figures import fig6a, fig6b


def test_fig6a_processing_time():
    data = fig6a(seeds=BENCH_SEEDS)
    show(data)
    assert_dominates(data, "DTA-Workload", "DTA-Number", slack=1.02)
    # The balanced division is substantially faster on average.
    workload = data.values_of("DTA-Workload")
    number = data.values_of("DTA-Number")
    assert sum(workload) < 0.85 * sum(number)


def test_fig6b_involved_devices():
    data = fig6b(seeds=BENCH_SEEDS)
    show(data)
    assert_dominates(data, "DTA-Number", "DTA-Workload", slack=1.001)
    # DTA-Number involves clearly fewer devices across the sweep.
    workload = data.values_of("DTA-Workload")
    number = data.values_of("DTA-Number")
    assert sum(number) < 0.85 * sum(workload)
    # Both grow (or saturate) as tasks touch more of the data universe.
    assert workload[-1] >= workload[0]
    assert number[-1] >= number[0]
