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

from repro.obs.metrics import Histogram, Metrics, bounds_for
from repro.obs.spans import SpanLog, SpanRecord

__all__ = [
    "Histogram",
    "Metrics",
    "SpanLog",
    "SpanRecord",
    "bounds_for",
    # lazy (PEP 562): tracer and export layers
    "NOOP_SPAN",
    "record_span",
    "span",
    "stage",
    "staged",
    "traced",
    "CANONICAL_STAGES",
    "canonical_trace",
    "chrome_trace",
    "jsonl_lines",
    "stage_report",
    "write_chrome_trace",
    "write_jsonl",
]

_TRACER = ("NOOP_SPAN", "record_span", "span", "stage", "staged", "traced")
_EXPORT = (
    "CANONICAL_STAGES",
    "canonical_trace",
    "chrome_trace",
    "jsonl_lines",
    "stage_report",
    "write_chrome_trace",
    "write_jsonl",
)


def __getattr__(name):
    if name in _TRACER:
        from repro.obs import tracer

        return getattr(tracer, name)
    if name in _EXPORT:
        from repro.obs import export

        return getattr(export, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
