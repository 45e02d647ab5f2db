"""The span tracer: nested monotonic spans over the solve pipeline.

Usage at an instrumentation site::

    from repro.obs.tracer import span, stage, staged, traced

    with span("solve", backend="structured"):      # span only (trace mode)
        ...

    with stage("replay", tasks=n):                  # span + stage histogram
        ...

    @staged("build")                                # whole function = stage
    def build_p2(...): ...

    @traced("lp.interior_point")                    # whole function = span
    def solve_interior_point(...): ...

Three API layers, by cost:

- :func:`span` — records a :class:`~repro.obs.spans.SpanRecord` into the
  active context's telemetry, **only when the context has ``trace=True``**.
  Disabled, it returns a shared no-op context manager (:data:`NOOP_SPAN`)
  without allocating: one contextvar read and one attribute check.  The
  disabled path is the default everywhere and is guarded by a differential
  test (``tests/test_obs.py``).
- :func:`stage` — a span *plus* an always-on observation into the
  ``stage.<name>_s`` fixed-bucket histogram, the source of
  ``mecrepro report`` and ``BENCH_sweep.json``'s ``stage_breakdown``.
  Stages mark the pipeline's coarse units (one scenario generation, one LP
  solve, one DES replay), so the constant per-call cost — two
  ``perf_counter`` reads and a bucket increment — is noise against the
  work being measured.
- :func:`staged` / :func:`traced` — decorator forms of the two above.

Nesting depth is tracked with a :mod:`contextvars` variable, so spans nest
correctly across threads and ``asyncio`` tasks.  Span *content* (name,
attributes, depth, order) is deterministic for a deterministic workload;
only ``start_s``/``duration_s`` carry wall-clock, and exporters know to
strip them when diffing.
"""

from __future__ import annotations

import contextvars
import functools
import time
from typing import Any, Callable, Optional, TypeVar

# Module-style import: repro.context imports repro.obs.metrics while it is
# itself still executing, which runs this package's __init__; binding the
# module object (instead of its attributes) keeps that order safe.
import repro.context as _context
from repro.obs.spans import SpanRecord

__all__ = [
    "NOOP_SPAN",
    "record_span",
    "span",
    "stage",
    "staged",
    "traced",
]

_DEPTH: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "repro_span_depth", default=0
)

_F = TypeVar("_F", bound=Callable[..., Any])


class _NoopSpan:
    """The disabled-tracer fast path: a shared, allocation-free no-op."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


#: The singleton returned by :func:`span` when tracing is off.  Identity
#: is asserted in tests: the disabled path must not allocate per call.
NOOP_SPAN = _NoopSpan()


def _sorted_attrs(attrs: dict) -> tuple:
    return tuple(sorted(attrs.items()))


class _Span:
    """A live span; records itself on exit."""

    __slots__ = ("name", "telemetry", "attrs", "start", "depth", "_token")

    def __init__(self, name: str, telemetry: Any, attrs: dict):
        self.name = name
        self.telemetry = telemetry
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self.depth = _DEPTH.get()
        self._token = _DEPTH.set(self.depth + 1)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        duration = time.perf_counter() - self.start
        _DEPTH.reset(self._token)
        self.telemetry.spans.append(
            SpanRecord(
                name=self.name,
                start_s=self.start,
                duration_s=duration,
                depth=self.depth,
                track=0,
                attrs=_sorted_attrs(self.attrs),
            )
        )
        return False


def span(name: str, context: Optional[Any] = None, **attrs: Any):
    """A context manager recording one span when tracing is enabled.

    :param name: span name (deterministic — no wall-clock, no ids).
    :param context: explicit :class:`~repro.context.RunContext`; defaults
        to the active one.
    :param attrs: attributes stamped onto the record, sorted by key.  Must
        be deterministic for the trace-diffing guarantees to hold.
    """
    ctx = context if context is not None else _context.current_context()
    if not ctx.trace:
        return NOOP_SPAN
    return _Span(name, ctx.telemetry, attrs)


class _Stage:
    """A pipeline stage: always-on histogram timing plus an optional span."""

    __slots__ = ("name", "metric", "context", "attrs", "start", "depth", "_token")

    def __init__(self, name: str, metric: str, context: Any, attrs: dict):
        self.name = name
        self.metric = metric
        self.context = context
        self.attrs = attrs

    def __enter__(self) -> "_Stage":
        if self.context.trace:
            self.depth = _DEPTH.get()
            self._token = _DEPTH.set(self.depth + 1)
        else:
            self._token = None
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        duration = time.perf_counter() - self.start
        telemetry = self.context.telemetry
        telemetry.metrics.observe(self.metric, duration)
        if self._token is not None:
            _DEPTH.reset(self._token)
            telemetry.spans.append(
                SpanRecord(
                    name=self.name,
                    start_s=self.start,
                    duration_s=duration,
                    depth=self.depth,
                    track=0,
                    attrs=_sorted_attrs(self.attrs),
                )
            )
        return False


def stage(name: str, context: Optional[Any] = None, **attrs: Any) -> _Stage:
    """Time one pipeline stage into ``stage.<name>_s`` (+ a span if tracing).

    :param name: stage name — one of the pipeline's coarse units
        (``generate``, ``build``, ``solve``, ``dta``, ``replay``,
        ``recovery``).
    :param context: explicit run context; defaults to the active one.
    :param attrs: deterministic span attributes (ignored when not tracing).
    """
    ctx = context if context is not None else _context.current_context()
    return _Stage(name, "stage." + name + "_s", ctx, attrs)


def staged(name: str) -> Callable[[_F], _F]:
    """Decorator form of :func:`stage`: the whole function is one stage."""

    def decorate(func: _F) -> _F:
        metric = "stage." + name + "_s"

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ctx = _context.current_context()
            with _Stage(name, metric, ctx, {}):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def traced(name: str) -> Callable[[_F], _F]:
    """Decorator form of :func:`span`: the whole function is one span."""

    def decorate(func: _F) -> _F:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ctx = _context.current_context()
            if not ctx.trace:
                return func(*args, **kwargs)
            with _Span(name, ctx.telemetry, {}):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def record_span(
    name: str,
    start_s: float,
    duration_s: float,
    context: Optional[Any] = None,
    **attrs: Any,
) -> None:
    """Record an already-measured interval as a span (if tracing).

    For call sites that cannot wrap their body in a ``with`` block (e.g.
    the online scheduler's epoch loop, which measures an interval across
    ``continue`` paths).  ``start_s`` must come from ``time.perf_counter``.
    """
    ctx = context if context is not None else _context.current_context()
    if not ctx.trace:
        return
    ctx.telemetry.spans.append(
        SpanRecord(
            name=name,
            start_s=start_s,
            duration_s=duration_s,
            depth=_DEPTH.get(),
            track=0,
            attrs=_sorted_attrs(attrs),
        )
    )
