"""Exporters: JSONL event log, Chrome/Perfetto trace, human stage report.

Three consumers of one :class:`~repro.context.Telemetry` sink:

- :func:`write_jsonl` — a line-per-event structured log (spans, counters,
  histograms) for ad-hoc ``jq``/pandas analysis; CLI ``--log-json PATH``.
- :func:`write_chrome_trace` — the Chrome ``trace_event`` JSON format
  (complete ``"X"`` events plus thread-name metadata), loadable in
  ``chrome://tracing`` and https://ui.perfetto.dev; CLI ``--trace PATH``.
  Each logical span track becomes one thread row, with timestamps
  normalised so every track starts at zero.
- :func:`stage_report` — the ``mecrepro report`` table: per-stage counts,
  totals and p50/p95/p99 estimated from the fixed-bucket stage histograms.

Only ``ts``/``dur`` (and the spans' ``start_s``/``duration_s``) carry
wall-clock; :func:`canonical_trace` strips them so CI can diff fork- vs
spawn-started runs byte-for-byte (``scripts/validate_trace.py --strip``).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.context import Telemetry

__all__ = [
    "CANONICAL_STAGES",
    "canonical_trace",
    "chrome_trace",
    "jsonl_lines",
    "stage_breakdown",
    "stage_report",
    "write_chrome_trace",
    "write_jsonl",
]

#: The pipeline's coarse stages, in execution order; ``mecrepro report``
#: always prints these rows (zero-count rows included) so breakdowns stay
#: comparable run over run.
CANONICAL_STAGES: Tuple[str, ...] = (
    "generate", "build", "solve", "dta", "replay",
)


# ---------------------------------------------------------------------------
# JSONL structured event log


def jsonl_lines(telemetry: "Telemetry") -> Iterator[str]:
    """One JSON object per line: spans first, then counters, histograms and
    the scalar telemetry counters.  Keys are sorted, so two logs differ
    only where their content does."""
    for record in telemetry.spans:
        yield json.dumps(
            {
                "type": "span",
                "name": record.name,
                "start_s": record.start_s,
                "duration_s": record.duration_s,
                "depth": record.depth,
                "track": record.track,
                "attrs": dict(record.attrs),
            },
            sort_keys=True,
        )
    metrics = telemetry.metrics
    for name in sorted(metrics.counters):
        yield json.dumps(
            {"type": "counter", "name": name, "value": metrics.counters[name]},
            sort_keys=True,
        )
    for name in sorted(metrics.histograms):
        payload = metrics.histograms[name].as_dict()
        payload["type"] = "histogram"
        yield json.dumps(payload, sort_keys=True)
    yield json.dumps(
        {"type": "telemetry", "counters": telemetry.as_dict()}, sort_keys=True
    )


def write_jsonl(telemetry: "Telemetry", path: str) -> None:
    """Write :func:`jsonl_lines` to ``path``."""
    with open(path, "w") as handle:
        for line in jsonl_lines(telemetry):
            handle.write(line)
            handle.write("\n")


# ---------------------------------------------------------------------------
# Chrome trace_event


def chrome_trace(telemetry: "Telemetry") -> Dict[str, Any]:
    """The telemetry's spans as a Chrome ``trace_event`` document.

    Spans become complete (``"ph": "X"``) events.  Tracks map to thread
    ids; workers' perf-counter epochs are unrelated, so timestamps are
    re-based per track (every track starts at 0).  Event order, names,
    categories, args, pids and tids are all deterministic for a
    deterministic workload — only ``ts``/``dur`` carry wall-clock.
    """
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "mecrepro"},
        }
    ]
    # Spans record on *exit* (children before parents), so a track's first
    # record is not its earliest: base each track on its minimum start.
    track_base: Dict[int, float] = {}
    for record in telemetry.spans:
        base = track_base.get(record.track)
        if base is None or record.start_s < base:
            track_base[record.track] = record.start_s
    for track in sorted(track_base):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": track,
                "args": {"name": f"track-{track}"},
            }
        )
    for record in telemetry.spans:
        events.append(
            {
                "ph": "X",
                "name": record.name,
                "cat": "stage",
                "pid": 0,
                "tid": record.track,
                "ts": (record.start_s - track_base[record.track]) * 1e6,
                "dur": record.duration_s * 1e6,
                "args": dict(record.attrs),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(telemetry: "Telemetry", path: str) -> None:
    """Write :func:`chrome_trace` to ``path`` (sorted keys, one line)."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(telemetry), handle, sort_keys=True)
        handle.write("\n")


def canonical_trace(trace: Dict[str, Any]) -> Dict[str, Any]:
    """A trace document with every wall-clock field removed.

    The result is bit-identical across start methods and repeated runs of
    the same deterministic workload; CI diffs it between fork and spawn.
    """
    events = []
    for event in trace.get("traceEvents", ()):
        events.append(
            {k: v for k, v in event.items() if k not in ("ts", "dur")}
        )
    out = {k: v for k, v in trace.items() if k != "traceEvents"}
    out["traceEvents"] = events
    return out


# ---------------------------------------------------------------------------
# Human report


def _format_seconds(value: float) -> str:
    if value != value:  # nan: empty histogram
        return "-"
    return f"{value * 1e3:10.3f}"


def stage_report(telemetry: "Telemetry") -> str:
    """The per-stage latency breakdown table plus supporting metrics.

    Canonical stages always appear (zero-count rows print dashes); any
    additional ``stage.*`` histograms follow, then the non-stage
    histograms (LP iterations, per-epoch decision latency, ...) and the
    counters that only make sense as ratios.
    """
    metrics = telemetry.metrics
    named = [(name, f"stage.{name}_s") for name in CANONICAL_STAGES]
    extra = sorted(
        metric
        for metric in metrics.histograms
        if metric.startswith("stage.")
        and metric not in {m for _, m in named}
    )
    named.extend(
        (metric[len("stage."):-len("_s")], metric) for metric in extra
    )

    lines = [
        f"{'stage':<10} {'count':>7} {'total (s)':>10} "
        f"{'p50 (ms)':>10} {'p95 (ms)':>10} {'p99 (ms)':>10}"
    ]
    for stage_name, metric in named:
        histogram = metrics.histogram(metric)
        if histogram is None or histogram.count == 0:
            lines.append(
                f"{stage_name:<10} {0:>7} {'-':>10} {'-':>10} {'-':>10} {'-':>10}"
            )
            continue
        lines.append(
            f"{stage_name:<10} {histogram.count:>7} {histogram.sum:>10.3f} "
            f"{_format_seconds(histogram.quantile(0.50))} "
            f"{_format_seconds(histogram.quantile(0.95))} "
            f"{_format_seconds(histogram.quantile(0.99))}"
        )

    other = sorted(
        metric
        for metric in metrics.histograms
        if not metric.startswith("stage.")
    )
    if other:
        lines.append("")
        for metric in other:
            histogram = metrics.histograms[metric]
            if histogram.count == 0:
                # A histogram can exist with no samples (created by a run
                # that recorded nothing, or restored from a journal); its
                # quantiles are undefined, so print dashes instead of
                # raising or emitting NaN.
                lines.append(
                    f"{metric:<26} count {0:>6}  p50 -  p95 -  p99 -"
                )
                continue
            scale = 1e3 if metric.endswith("_s") else 1.0
            unit = " ms" if metric.endswith("_s") else ""
            lines.append(
                f"{metric:<26} count {histogram.count:>6}  "
                f"p50 {histogram.quantile(0.50) * scale:.3f}{unit}  "
                f"p95 {histogram.quantile(0.95) * scale:.3f}{unit}  "
                f"p99 {histogram.quantile(0.99) * scale:.3f}{unit}"
            )

    if metrics.counters:
        lines.append("")
        for name in sorted(metrics.counters):
            value = metrics.counters[name]
            rendered = f"{value:g}"
            lines.append(f"{name:<26} {rendered}")

    lookups = telemetry.cache_hits + telemetry.cache_misses
    if lookups:
        lines.append("")
        lines.append(
            f"{'lp.cache_hit_ratio':<26} "
            f"{telemetry.cache_hits / lookups:.3f} "
            f"({telemetry.cache_hits}/{lookups})"
        )

    # Sharded LP-HTA coordination: how many shard solves ran, how many
    # outer subgradient iterations, and the summed duality gap (0 when no
    # shared-capacity coupling binds — the shards are then exact).
    if telemetry.shard_solves or telemetry.coordinator_iterations:
        lines.append("")
        lines.append(f"{'shard.solves':<26} {telemetry.shard_solves}")
        lines.append(
            f"{'shard.outer_iterations':<26} {telemetry.coordinator_iterations}"
        )
        lines.append(
            f"{'shard.duality_gap_j':<26} {telemetry.coordinator_gap_j:.6g}"
        )

    # Execution-layer robustness.  The scalar counters (runtime.retries,
    # runtime.quarantines, journal.replays, lp.fallback.<rung>) surface
    # through the generic counter block above; here we add only the
    # per-quarantine detail so a degraded run names its poison cells.
    if telemetry.quarantines:
        lines.append("")
        for entry in telemetry.quarantines:
            lines.append(
                f"quarantined {entry['label']} after "
                f"{entry['attempts']} attempt(s): {entry['error']}"
            )
    return "\n".join(lines)


def stage_breakdown(telemetry: "Telemetry") -> Dict[str, Dict[str, float]]:
    """Stage statistics as plain data (the ``BENCH_sweep.json`` section).

    Only stages that were actually observed appear; all values derive from
    the fixed-bucket histograms, so the section is comparable PR over PR.
    """
    breakdown: Dict[str, Dict[str, float]] = {}
    for metric in sorted(telemetry.metrics.histograms):
        if not metric.startswith("stage.") or not metric.endswith("_s"):
            continue
        histogram = telemetry.metrics.histograms[metric]
        if histogram.count == 0:
            continue
        breakdown[metric[len("stage."):-len("_s")]] = {
            "count": histogram.count,
            "total_s": round(histogram.sum, 4),
            "p50_ms": round(histogram.quantile(0.50) * 1e3, 3),
            "p95_ms": round(histogram.quantile(0.95) * 1e3, 3),
            "p99_ms": round(histogram.quantile(0.99) * 1e3, 3),
        }
    return breakdown
