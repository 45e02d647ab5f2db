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

from repro.obs.metrics import format_count

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.context import Telemetry

__all__ = [
    "CANONICAL_STAGES",
    "canonical_trace",
    "chrome_trace",
    "jsonl_lines",
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
    """One JSON object per line: spans first, then counters and
    histograms.  Keys are sorted, so two logs differ only where their
    content does."""
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
    histograms (LP iterations, per-epoch decision latency, ...), every
    counter and the per-quarantine detail.
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
            lines.append(f"{name:<26} {format_count(metrics.counters[name])}")

    # The counter block above covers every telemetry counter; a degraded
    # run also names its poison cells.
    if telemetry.quarantines:
        lines.append("")
        for entry in telemetry.quarantines:
            lines.append(
                f"quarantined {entry['label']} after "
                f"{entry['attempts']} attempt(s): {entry['error']}"
            )
    return "\n".join(lines)
