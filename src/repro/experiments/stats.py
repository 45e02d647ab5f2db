"""Statistics helpers for multi-seed experiment aggregation.

The figure reproducers average over seeds; these helpers quantify the
spread: summary statistics, normal-theory confidence intervals for the
mean, and a seed-free bootstrap for quantities with no distributional
story (rates, maxima).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["Summary", "bootstrap_ci", "mean_ci", "summarize"]


@dataclass(frozen=True)
class Summary:
    """Summary statistics of one sample.

    :param n: sample size.
    :param mean: sample mean.
    :param std: sample standard deviation (ddof=1; 0 for n=1).
    :param minimum: smallest value.
    :param maximum: largest value.
    :param ci_low: lower edge of the 95% CI for the mean.
    :param ci_high: upper edge of the 95% CI for the mean.
    """

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    @property
    def ci_half_width(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0

    def format(self, unit: str = "") -> str:
        """Human-readable ``mean ± half-width`` rendering."""
        suffix = f" {unit}" if unit else ""
        return f"{self.mean:.4g} ± {self.ci_half_width:.2g}{suffix} (n={self.n})"


def mean_ci(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Student-t confidence interval for the mean.

    A single observation has no spread estimate: the interval collapses to
    the point.

    :param values: the sample.
    :param confidence: coverage level in (0, 1).
    """
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("need at least one value")
    mean = float(np.mean(data))
    if data.size == 1:
        return (mean, mean)
    sem = float(np.std(data, ddof=1)) / math.sqrt(data.size)
    if sem == 0.0:
        return (mean, mean)
    # Imported here: scipy.stats takes most of a second to import, and only
    # multi-seed summaries reach this line.
    from scipy import stats as scipy_stats

    t = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=data.size - 1))
    return (mean - t * sem, mean + t * sem)


def summarize(values: Sequence[float], confidence: float = 0.95) -> Summary:
    """Full summary of a sample.

    :param values: the sample.
    :param confidence: CI coverage level.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("need at least one value")
    low, high = mean_ci(data, confidence)
    return Summary(
        n=int(data.size),
        mean=float(np.mean(data)),
        std=float(np.std(data, ddof=1)) if data.size > 1 else 0.0,
        minimum=float(np.min(data)),
        maximum=float(np.max(data)),
        ci_low=low,
        ci_high=high,
    )


def bootstrap_ci(
    values: Sequence[float],
    statistic=np.mean,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for any statistic.

    :param values: the sample.
    :param statistic: function of a 1-D array (default: the mean).
    :param confidence: coverage level in (0, 1).
    :param resamples: bootstrap resamples.
    :param seed: RNG seed (results are reproducible).
    """
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if resamples <= 0:
        raise ValueError("resamples must be positive")
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("need at least one value")
    rng = np.random.default_rng(seed)
    estimates = np.empty(resamples)
    for index in range(resamples):
        sample = rng.choice(data, size=data.size, replace=True)
        estimates[index] = float(statistic(sample))
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(estimates, alpha)),
        float(np.quantile(estimates, 1.0 - alpha)),
    )
