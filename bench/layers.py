"""Outside-in layer tracer for the benchmark.

Every layer of the program is traced at its public entry points, from the
benchmark's own code: :func:`install` replaces each entry point with a
wrapper that records a span (layer, start, duration, self time).  Nothing
under ``src/`` is edited, so the trace sees only layer boundaries, never
the inside of a solver.

Modules import entry points with ``from x import f``, so every importer
holds its own binding of ``f``.  :func:`install` therefore scans
``sys.modules`` for the original function object and rebinds every alias
it finds; :func:`uninstall` puts each one back.

Self time is a span's duration minus the durations of the wrapped calls
nested directly inside it.  Spans recorded in a forked pool worker are
appended to ``spans-<pid>.jsonl`` in the tracer's directory each time the
worker's outermost wrapped call returns; :func:`summarize` merges those
files with the parent's in-memory spans.  Clocks are ``time.monotonic``,
which Linux shares across processes, so worker spans can be filtered to
the parent's timed window.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: Layers, named after modules, and the public entry points wrapped for
#: each: ``(module, attribute)`` where the attribute may be ``Class.method``.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "workload": (
        ("repro.workload.generator", "generate_scenario"),
        ("repro.workload.streaming", "generate_tile"),
        ("repro.workload.generator", "generate_system"),
        ("repro.workload.generator", "generate_tasks"),
    ),
    "costs": (("repro.core.costs", "cluster_costs"),),
    "lp_builder": (
        ("repro.core.lp_builder", "build_p2"),
        ("repro.core.lp_builder", "build_p2_structured"),
    ),
    "lp": (
        ("repro.lp.backends", "solve"),
        ("repro.lp.backends", "solve_with_fallback"),
        ("repro.lp.structured", "solve_structured"),
        ("repro.lp.structured", "solve_structured_batch"),
        ("repro.lp.interior_point", "solve_interior_point"),
        ("repro.lp.interior_point", "solve_interior_point_batch"),
    ),
    "hta": (
        ("repro.core.hta", "lp_hta"),
        ("repro.core.hta", "lp_hta_batch"),
        ("repro.core.hta", "lp_hta_cluster"),
    ),
    "baselines": (
        ("repro.core.baselines", "hgos"),
        ("repro.core.baselines", "all_offload"),
        ("repro.core.baselines", "all_to_cloud"),
    ),
    "assignment": (
        ("repro.core.assignment", "Assignment.stats"),
        ("repro.core.assignment", "Assignment.total_energy_j"),
        ("repro.core.assignment", "Assignment.unsatisfied_rate"),
    ),
    "dta": (
        ("repro.dta.coverage", "dta_workload"),
        ("repro.dta.coverage", "dta_number"),
        ("repro.dta.rearrange", "rearrange_tasks"),
        ("repro.dta.accounting", "prepare_dta"),
        ("repro.dta.accounting", "evaluate_plans"),
        ("repro.dta.accounting", "run_dta"),
    ),
    "des": (("repro.des.replay", "replay_assignment"),),
    "faults": (
        ("repro.faults.recovery", "detect_threats"),
        ("repro.faults.recovery", "apply_recovery"),
    ),
    "mobility": (("repro.mobility.handover", "attachment_at"),),
    "parallel": (
        ("repro.experiments.parallel", "run_cells"),
        ("repro.experiments.parallel", "run_tiles"),
    ),
    "online": (("repro.online.scheduler", "simulate_online"),),
}

#: Pool-worker entry points.  Their spans are not a layer: their summed
#: duration is the workers' busy time (``parallel.worker_busy_s``).
WORKER = "worker"
WORKER_ENTRIES: Tuple[Tuple[str, str], ...] = (
    ("repro.experiments.parallel", "_evaluate_column_with_telemetry"),
    ("repro.experiments.parallel", "_evaluate_tiles_with_telemetry"),
)

#: One finished span: (layer, start, duration, self time).
Span = Tuple[str, float, float, float]


class Tracer:
    """Span recorder shared by every wrapper of one installation.

    :param span_dir: where forked workers append their spans.
    """

    def __init__(self, span_dir: Path) -> None:
        self.span_dir = Path(span_dir)
        self.owner_pid = os.getpid()
        self._pid = self.owner_pid
        # Open frames: [layer, start, time covered by finished children].
        self._stack: List[List[Any]] = []
        self.spans: List[Span] = []

    def _frames(self) -> List[List[Any]]:
        pid = os.getpid()
        if pid != self._pid:
            # First wrapped call in a forked child: the frames and spans
            # copied from the parent at fork time are not this process's.
            self._pid = pid
            self._stack = []
            self.spans = []
        return self._stack

    def _enter(self, layer: str) -> None:
        self._frames().append([layer, time.monotonic(), 0.0])

    def _exit(self) -> None:
        end = time.monotonic()
        stack = self._frames()
        layer, start, children = stack.pop()
        duration = end - start
        self.spans.append((layer, start, duration, duration - children))
        if stack:
            stack[-1][2] += duration
        elif self._pid != self.owner_pid:
            self._flush_worker()

    def _flush_worker(self) -> None:
        path = self.span_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as handle:
            for layer, start, duration, self_s in self.spans:
                handle.write(
                    json.dumps(
                        {"layer": layer, "start": start, "dur": duration,
                         "self": self_s}
                    )
                    + "\n"
                )
        self.spans = []

    def wrap(self, layer: str, function: Callable) -> Callable:
        """A wrapper recording one ``layer`` span per call of ``function``."""

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._enter(layer)
            try:
                return function(*args, **kwargs)
            finally:
                self._exit()

        return wrapper


#: Undo log of one installation: (owner, attribute, original value).
Installation = List[Tuple[Any, str, Any]]


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def rebind(original: Any, replacement: Any, owners: Iterable[Any]) -> Installation:
    """Point every attribute of ``owners`` that *is* ``original`` at
    ``replacement``; returns the undo log."""
    undo: Installation = []
    for owner in owners:
        if not isinstance(owner, (types.ModuleType, type)):
            continue
        for name, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, name, replacement)
                undo.append((owner, name, original))
    return undo


def install(tracer: Tracer) -> Installation:
    """Wrap every entry point of :data:`LAYERS` and :data:`WORKER_ENTRIES`.

    Install before any worker pool forks, so the workers inherit the
    wrappers.
    """
    entries = [
        (layer, module, attribute)
        for layer, points in LAYERS.items()
        for module, attribute in points
    ] + [(WORKER, module, attribute) for module, attribute in WORKER_ENTRIES]
    undo: Installation = []
    for layer, module_name, attribute in entries:
        owner, name = _resolve(module_name, attribute)
        original = owner.__dict__[name]
        wrapper = tracer.wrap(layer, original)
        namespaces = [owner, *list(sys.modules.values())]
        undo.extend(rebind(original, wrapper, namespaces))
    return undo


def uninstall(undo: Installation) -> None:
    """Restore every binding :func:`install` replaced."""
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def worker_spans(span_dir: Path) -> List[Tuple[int, Span]]:
    """Every span the forked workers wrote, as (pid, span)."""
    out: List[Tuple[int, Span]] = []
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path) as handle:
            for line in handle:
                row = json.loads(line)
                out.append(
                    (pid, (row["layer"], row["start"], row["dur"], row["self"]))
                )
    return out


def summarize(
    parent: Iterable[Span],
    workers: Iterable[Tuple[int, Span]],
    window_s: float,
    since: float,
) -> Dict[str, float]:
    """Per-layer metrics over the spans that started at or after ``since``.

    :param parent: the benchmark process's own spans.
    :param workers: (pid, span) pairs merged from the worker files.
    :param window_s: the timed window the fractions are shares of.
    :returns: ``<layer>.calls``, ``<layer>.self_s`` and
        ``<layer>.self_frac`` for every layer of :data:`LAYERS`, plus
        ``unattributed_s``/``unattributed_frac`` (window time outside every
        wrapped call of the benchmark process) and the pool's
        ``parallel.worker_busy_s``/``parallel.idle_frac``.
    """
    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    parent_self = 0.0
    for layer, start, duration, own in parent:
        if start < since:
            continue
        calls[layer] += 1
        self_s[layer] += own
        parent_self += own
    busy = 0.0
    worker_pids = set()
    for pid, (layer, start, duration, own) in workers:
        if start < since:
            continue
        if layer == WORKER:
            busy += duration
            worker_pids.add(pid)
            continue
        calls[layer] += 1
        self_s[layer] += own
    # The parent's parallel-layer time is the pooled dispatch window.
    pooled_s = sum(
        duration
        for layer, start, duration, _ in parent
        if layer == "parallel" and start >= since
    )
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.self_frac"] = self_s[layer] / window_s
    unattributed = max(window_s - parent_self, 0.0)
    out["unattributed_s"] = unattributed
    out["unattributed_frac"] = unattributed / window_s
    out["parallel.worker_busy_s"] = busy
    capacity = len(worker_pids) * pooled_s
    out["parallel.idle_frac"] = 1.0 - busy / capacity if capacity > 0 else 0.0
    return out


#: Counts read from a repetition's merged ``repro`` telemetry.
COUNTS: Tuple[str, ...] = (
    "lp.blocks", "lp.iterations", "lp.iterations_per_block",
    "lp.batch_size_mean", "lp.fallbacks", "caching.lp_hit_ratio",
    "caching.batch_hit_ratio", "caching.memo_hit_ratio", "runtime.retries",
    "runtime.quarantines", "faults.events",
)


def telemetry_counts(telemetry: Any) -> Dict[str, float]:
    """The :data:`COUNTS` of a ``repro.context.Telemetry`` sink."""
    iterations = telemetry.metrics.histogram("lp.iterations")
    batch = telemetry.metrics.histogram("lp.batch_size")
    blocks = iterations.count if iterations is not None else 0

    def ratio(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "lp.blocks": blocks,
        "lp.iterations": telemetry.lp_iterations,
        "lp.iterations_per_block": telemetry.lp_iterations / blocks if blocks else 0.0,
        "lp.batch_size_mean": batch.sum / batch.count if batch is not None else 0.0,
        "lp.fallbacks": telemetry.lp_fallbacks,
        "caching.lp_hit_ratio": ratio(telemetry.cache_hits, telemetry.cache_misses),
        "caching.batch_hit_ratio": ratio(
            telemetry.batch_cache_hits, telemetry.batch_cache_misses
        ),
        "caching.memo_hit_ratio": ratio(
            telemetry.scenario_memo_hits, telemetry.scenario_memo_misses
        ),
        "runtime.retries": telemetry.cell_retries,
        "runtime.quarantines": telemetry.cells_quarantined,
        "faults.events": telemetry.faults_detected,
    }


def metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in a stable order."""
    names = [
        f"{layer}.{kind}"
        for layer in LAYERS
        for kind in ("self_s", "calls", "self_frac")
    ]
    return names + [
        "unattributed_s",
        "unattributed_frac",
        "parallel.worker_busy_s",
        "parallel.idle_frac",
        *COUNTS,
        "trace_overhead_frac",
    ]


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "fraction"
    if name.endswith("_s"):
        return "s"
    if name == "lp.batch_size_mean":
        return "blocks"
    return "count"
