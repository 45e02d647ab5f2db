"""Structured metrics: named counters and fixed-bucket histograms.

The one registry behind :class:`~repro.context.Telemetry`: counters
answer "how many" and "how long in total", histograms answer "what is the
p99".  Both obey one aggregation contract:

- **fixed buckets** — every histogram's bucket boundaries are a pure
  function of its metric name (:func:`bounds_for`), so two histograms with
  the same name — recorded in different worker processes, under fork or
  spawn — are always bucket-compatible and merge by elementwise addition;
- **additive merge** — :meth:`Metrics.__add__` folds counters and bucket
  counts together losslessly; :meth:`repro.context.Telemetry.merge` relies
  on it to fold worker sinks into the parent's;
- **no wall-clock identity** — a histogram stores *counts*, never raw
  samples or timestamps, so merged metrics are bit-identical across start
  methods and process counts for a deterministic workload.

Quantiles (p50/p95/p99 in ``mecrepro report``) are estimated by linear
interpolation inside the containing bucket, clamped to the observed
min/max — the usual fixed-bucket estimator, deterministic by construction.

This module intentionally imports nothing from the rest of the package so
:mod:`repro.context` can depend on it without a cycle.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "DEFAULT_BOUNDS",
    "ITERATION_BOUNDS",
    "TIME_BOUNDS_S",
    "Histogram",
    "Metrics",
    "bounds_for",
    "format_count",
]

#: Latency buckets: 20 per decade (ratio 10**0.05 ≈ 1.122) from 10 µs to
#: 63 s, so an interpolated quantile lands within one 12 % step of the
#: sample it estimates even at a count of two.  Every metric named ``*_s``
#: uses these, so stage timings from any process merge bucket-for-bucket.
TIME_BOUNDS_S: Tuple[float, ...] = tuple(10.0 ** (k / 20) for k in range(-100, 37))

#: Iteration-count buckets (IPM/simplex iterations per solve).
ITERATION_BOUNDS: Tuple[float, ...] = (
    1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 18.0, 27.0, 40.0, 60.0, 90.0, 140.0,
    200.0, 300.0,
)

#: Fallback buckets for unnamed quantities: one per decade.
DEFAULT_BOUNDS: Tuple[float, ...] = tuple(10.0 ** d for d in range(0, 7))

#: Metric names with buckets that the suffix rules would get wrong.
#: ``lp.batch_size`` (blocks per mega-solve) shares the iteration grid:
#: both are small counts where decade buckets would flatten the p50/p95.
_NAMED_BOUNDS: Dict[str, Tuple[float, ...]] = {
    "lp.iterations": ITERATION_BOUNDS,
    "lp.batch_size": ITERATION_BOUNDS,
}


def bounds_for(name: str) -> Tuple[float, ...]:
    """The fixed bucket boundaries for a metric name.

    Names ending in ``_s`` are second-valued latencies; everything else
    falls back to decade buckets unless explicitly registered.  Keeping
    this a pure function of the name is what makes histograms from
    independent processes mergeable without negotiation.
    """
    explicit = _NAMED_BOUNDS.get(name)
    if explicit is not None:
        return explicit
    if name.endswith("_s"):
        return TIME_BOUNDS_S
    return DEFAULT_BOUNDS


def format_count(value: float) -> str:
    """A counter as text: integral values as integers (``1234567``, never
    ``1.23457e+06``), others in ``g`` format.  Counters are floats, so both
    ``--stats`` and ``mecrepro report`` print through this."""
    value = float(value)
    return str(int(value)) if value.is_integer() else f"{value:g}"


class Histogram:
    """A fixed-bucket histogram of one named quantity.

    Bucket ``i`` counts observations ``v`` with ``bounds[i-1] < v <=
    bounds[i]``; a final overflow bucket catches everything above the last
    bound.  ``min``/``max``/``sum`` are tracked exactly so totals and
    quantile clamps do not depend on bucket resolution.
    """

    def __init__(self, name: str, bounds: Optional[Tuple[float, ...]] = None):
        self.name = name
        self.bounds: Tuple[float, ...] = (
            tuple(bounds) if bounds is not None else bounds_for(name)
        )
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``).

        Linear interpolation inside the containing bucket, clamped to the
        observed min/max; ``nan`` when the histogram is empty.
        """
        if self.count == 0:
            return float("nan")
        target = q * self.count
        if target <= 0:
            return self.min
        cumulative = 0.0
        lower = 0.0
        for index, bucket_count in enumerate(self.counts):
            upper = (
                self.bounds[index] if index < len(self.bounds) else self.max
            )
            if bucket_count and cumulative + bucket_count >= target:
                if upper <= lower:
                    estimate = upper
                else:
                    estimate = lower + (upper - lower) * (
                        (target - cumulative) / bucket_count
                    )
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
            if index < len(self.bounds):
                lower = self.bounds[index]
        return self.max

    def merged(self, other: "Histogram") -> "Histogram":
        """A new histogram holding both sides' counts.

        :raises ValueError: when the bucket boundaries differ (cannot
            happen for histograms created through :class:`Metrics`, whose
            bounds derive from the metric name).
        """
        if self.name != other.name or self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r} {other.bounds} into "
                f"{self.name!r} {self.bounds}: buckets differ"
            )
        out = Histogram(self.name, self.bounds)
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.count = self.count + other.count
        out.sum = self.sum + other.sum
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        return out

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot (stable keys; ``None`` min/max when
        empty)."""
        return {
            "name": self.name,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.name == other.name
            and self.bounds == other.bounds
            and self.counts == other.counts
            and self.count == other.count
            and self.min == other.min
            and self.max == other.max
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram({self.name!r}, count={self.count}, sum={self.sum:.6g})"
        )


class Metrics:
    """A bag of named counters and histograms attached to a telemetry sink.

    Rides the :class:`~repro.context.Telemetry` merge protocol: merging two
    sinks adds this object with ``+``, which folds counters and bucket
    counts together losslessly.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    def incr(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the named counter (created at zero)."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram.

        The histogram is created on first use with the fixed buckets of
        :func:`bounds_for`, so equally named histograms always merge.
        """
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = Histogram(name)
            self.histograms[name] = histogram
        histogram.observe(value)

    def counter(self, name: str) -> float:
        """The named counter's value (zero when never incremented)."""
        return self.counters.get(name, 0.0)

    def read(self, source: str) -> float:
        """One value by source: a counter name, ``"<histogram>:sum"`` or
        ``"<histogram>:count"``, or ``"<prefix>.*"`` (the sum of every
        counter under that prefix).  Zero when nothing was recorded."""
        name, _, field = source.partition(":")
        if field:
            return getattr(self.histograms.get(name), field, 0)
        if name.endswith("*"):
            prefix = name[:-1]
            return sum(v for k, v in self.counters.items() if k.startswith(prefix))
        return self.counter(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        """The named histogram, or ``None`` when nothing was observed."""
        return self.histograms.get(name)

    def __add__(self, other: "Metrics") -> "Metrics":
        if not isinstance(other, Metrics):
            return NotImplemented
        merged = Metrics()
        merged.counters = dict(self.counters)
        for name, value in other.counters.items():
            merged.counters[name] = merged.counters.get(name, 0.0) + value
        merged.histograms = dict(self.histograms)
        for name, histogram in other.histograms.items():
            mine = merged.histograms.get(name)
            merged.histograms[name] = (
                histogram if mine is None else mine.merged(histogram)
            )
        return merged

    def as_dict(self) -> Dict[str, Any]:
        """Counters and histograms as one JSON-friendly dict (sorted keys)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "histograms": {
                k: self.histograms[k].as_dict()
                for k in sorted(self.histograms)
            },
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Metrics):
            return NotImplemented
        return (
            self.counters == other.counters
            and self.histograms == other.histograms
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Metrics(counters={sorted(self.counters)}, "
            f"histograms={sorted(self.histograms)})"
        )
