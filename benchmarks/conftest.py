"""Shared helpers for the figure-shape tests.

Every test regenerates one paper figure/table once, prints the series the
paper plots, and asserts the *shape* the paper reports — who wins, in which
direction the curves move.  Absolute values depend on constants the paper
does not publish (see DESIGN.md / EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.series import SeriesData

#: Seeds used by the shape tests: averaging over two seeds keeps shapes stable
#: while staying fast enough to sweep nine figures.
BENCH_SEEDS: Sequence[int] = (0, 1)


def show(data: SeriesData) -> None:
    """Print a figure's series (visible with -s / in failure output)."""
    print()
    print(data.format_table())


def assert_dominates(
    data: SeriesData, better: str, worse: str, slack: float = 1.0
) -> None:
    """Series ``better`` must lie at or below ``worse`` at every sweep point.

    :param slack: multiplicative tolerance (1.0 = strict, 1.05 = within 5%).
    """
    for x, b, w in zip(data.x_values, data.values_of(better), data.values_of(worse)):
        assert b <= w * slack, (
            f"{data.figure_id}: expected {better} <= {worse} at x={x}, "
            f"got {b:.4g} > {w:.4g}"
        )


def assert_nondecreasing(data: SeriesData, name: str, slack: float = 1.05) -> None:
    """A series must grow (within tolerance) along the sweep."""
    values = data.values_of(name)
    for left, right in zip(values, values[1:]):
        assert right >= left / slack, (
            f"{data.figure_id}: {name} should not drop along the sweep "
            f"({left:.4g} -> {right:.4g})"
        )
