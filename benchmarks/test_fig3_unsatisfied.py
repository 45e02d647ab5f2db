"""Fig. 3: unsatisfied-task rate of LP-HTA vs HGOS and AllOffload.

Paper's reported shape: LP-HTA's rate is small and far below HGOS and
AllOffload (AllToC is omitted, as in the paper, because its rate is so
high it would flatten the other curves).
"""

import numpy as np
from conftest import BENCH_SEEDS, assert_dominates, show

from repro.experiments.figures import fig3


def test_fig3_unsatisfied_rate():
    data = fig3(seeds=BENCH_SEEDS)
    show(data)
    assert_dominates(data, "LP-HTA", "HGOS", slack=1.001)
    assert_dominates(data, "LP-HTA", "AllOffload", slack=1.001)
    # On average the deadline-aware algorithm misses far less often.
    lp = float(np.mean(data.values_of("LP-HTA")))
    hgos = float(np.mean(data.values_of("HGOS")))
    offload = float(np.mean(data.values_of("AllOffload")))
    assert lp < 0.7 * hgos
    assert lp < 0.5 * offload
    # Rates are rates.
    for name in data.series:
        assert all(0.0 <= v <= 1.0 for v in data.values_of(name))
