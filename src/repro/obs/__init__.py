"""Observability: span tracing, structured metrics, exporters.

Layers (see ``docs/observability.md``):

- :mod:`repro.obs.metrics` — named counters and fixed-bucket histograms,
  merged losslessly across worker processes;
- :mod:`repro.obs.spans` — completed-span records and their track-aware
  mergeable log;
- :mod:`repro.obs.tracer` — the ``span``/``stage`` context managers and
  ``staged``/``traced`` decorators wired into every pipeline stage;
- :mod:`repro.obs.export` — JSONL log, Chrome ``trace_event`` JSON and
  the ``mecrepro report`` stage table.

:mod:`repro.context` imports the metrics/spans layers while it is itself
still initialising (its default telemetry sink holds one of each), so this
``__init__`` keeps the tracer/export layers lazy: they import
``repro.context`` back and must not load until it is complete.
"""

from repro._lazy import attach
from repro.obs.metrics import Histogram, Metrics, bounds_for
from repro.obs.spans import SpanLog, SpanRecord

__getattr__, __dir__, _LAZY = attach(
    __name__,
    {
        "tracer": ("NOOP_SPAN", "record_span", "span", "stage", "staged", "traced"),
        "export": (
            "CANONICAL_STAGES",
            "canonical_trace",
            "chrome_trace",
            "jsonl_lines",
            "stage_report",
            "write_chrome_trace",
            "write_jsonl",
        ),
    },
)

__all__ = [
    "Histogram",
    "Metrics",
    "SpanLog",
    "SpanRecord",
    "bounds_for",
    *_LAZY,
]
