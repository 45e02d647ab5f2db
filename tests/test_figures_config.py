"""Figure reproducers: sweep configurations match the paper's setups."""

import pytest

from repro.context import RunContext, use_context
from repro.experiments import figures


class TestSweepRanges:
    def test_task_sweep_matches_paper(self):
        assert figures.TASK_SWEEP[0] == 100
        assert figures.TASK_SWEEP[-1] == 450

    def test_input_sweep_matches_paper(self):
        assert figures.INPUT_SWEEP_KB == (1000, 2000, 3000, 4000, 5000)

    def test_default_seeds(self):
        assert len(figures.DEFAULT_SEEDS) >= 3


class TestFigureConfigurations:
    """Pin each figure's sweep/competitors to what the paper describes."""

    def test_fig2a(self):
        data = figures.fig2a(seeds=(0,))
        assert data.x_values == figures.TASK_SWEEP
        assert set(data.series) == {"LP-HTA", "HGOS", "AllToC", "AllOffload"}
        assert data.y_label.startswith("total energy")

    def test_fig3_drops_alltoc(self):
        data = figures.fig3(seeds=(0,))
        assert "AllToC" not in data.series  # as in the paper

    def test_fig5b_result_sizes(self):
        data = figures.fig5b(seeds=(0,))
        assert data.x_values == ("0.4X", "0.2X", "0.1X", "0.05X", "const")

    def test_fig6a_sweep(self):
        data = figures.fig6a(seeds=(0,))
        assert data.x_values == (1200, 1400, 1600, 1800, 2000)
        assert set(data.series) == {"DTA-Workload", "DTA-Number"}

    def test_fig6b_extends_to_900(self):
        data = figures.fig6b(seeds=(0,))
        assert data.x_values[-1] == 900


class TestDivisibleProfileHelper:
    def test_marks_divisible_and_scales_universe(self):
        from repro.workload import PAPER_DEFAULTS

        profile = figures._divisible(PAPER_DEFAULTS.with_updates(num_tasks=500))
        assert profile.divisible
        assert profile.num_data_items == 1000
        assert profile.item_replication == figures._DTA_REPLICATION

    def test_small_workloads_keep_floor(self):
        from repro.workload import PAPER_DEFAULTS

        profile = figures._divisible(PAPER_DEFAULTS.with_updates(num_tasks=50))
        assert profile.num_data_items == 200

    def test_deadlines_loosened_for_energy_comparability(self):
        from repro.workload import PAPER_DEFAULTS

        profile = figures._divisible(PAPER_DEFAULTS)
        lo, hi = profile.deadline_range_s
        assert lo >= 2.0  # see the helper's docstring


class TestSeriesNumerics:
    def test_seed_averaging_changes_values(self):
        one = figures.fig2b(seeds=(0,))
        two = figures.fig2b(seeds=(1,))
        avg = figures.fig2b(seeds=(0, 1))
        for name in one.series:
            for a, b, m in zip(
                one.values_of(name), two.values_of(name), avg.values_of(name)
            ):
                assert m == pytest.approx((a + b) / 2, rel=1e-9)

    def test_deterministic_per_seed(self):
        # Fresh contexts, so the second run computes instead of being
        # served from the first one's result store.
        with use_context(RunContext()):
            a = figures.fig2b(seeds=(0,))
        with use_context(RunContext()):
            b = figures.fig2b(seeds=(0,))
        assert a.series == b.series
