"""Explicit run configuration: :class:`RunContext` and its activation stack.

Selecting code paths through process globals worked for in-process runs
and fork-started workers, which inherit the parent's memory, but it
silently *dropped* the setting under a spawn start method.  A
:class:`RunContext` carries the whole run configuration as one immutable
value that travels inside every pickled sweep cell:

- **reference mode** — ``reference=True`` routes every layer (generator,
  cost tables, P2 assembly, Step 1, the structured LP solver, DTA, HGOS,
  assignment metrics, DES replay) through its seed-era implementation,
  for differential tests and honest benchmark baselines;
- **LP solve cache** — the capacity of the per-context cache;
- **seeds** — the RNG seed handed to randomized algorithm variants.

The active context is tracked with :mod:`contextvars`, so activation nests
and is safe under threads.

Each context also carries a mutable :class:`Telemetry` sink (excluded from
equality/hash/pickling): every LP solve records wall time, iteration count
and cache hit/miss there as named :class:`~repro.obs.metrics.Metrics`
counters and histograms, so the CLI, the figure sweeps, the DES replay and
the online scheduler all report the same counters.  Worker processes start
from zeroed counters (pickling a context resets its telemetry) and
:func:`repro.experiments.parallel.run_cells` merges their counts back into
the submitting context.
"""

from __future__ import annotations

import contextvars
import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

# Import-light leaves: repro.obs loads its tracer/export layers (which
# import this module back) lazily.
from repro.obs.metrics import Metrics, format_count
from repro.obs.spans import SpanLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.caching.lp_cache import LPSolveCache

__all__ = [
    "COUNTERS",
    "RunContext",
    "Telemetry",
    "current_context",
    "use_context",
]


#: Every telemetry counter, one row each: the attribute that reads it, its
#: source in :class:`~repro.obs.metrics.Metrics` (a counter, a histogram's
#: ``:sum``/``:count``, or a ``.*`` prefix sum; see
#: :meth:`~repro.obs.metrics.Metrics.read`) and its ``--stats`` line.  A
#: line is a :meth:`str.format` template over the attribute values (a
#: field ``a/b`` is the ratio of two of them), printed when its own row is
#: nonzero; rows without a line appear inside other rows' lines.
COUNTERS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("solves", "lp.solves",
     "LP solves          {solves}\n"
     "solve wall time    {solve_wall_s:.3f} s\n"
     "LP iterations      {lp_iterations}"),
    ("solve_wall_s", "stage.solve_s:sum", None),
    ("lp_iterations", "lp.iterations:sum", None),
    ("batch_solves", "lp.batch_size:count",
     "batched solves     {batched_blocks} blocks in {batch_solves} mega-solves"),
    ("batched_blocks", "lp.batch_size:sum", None),
    ("shape_groups", "lp.shape_group:count",
     "shape groups       {shape_groups} at layout builds, "
     "{shape_group_blocks/shape_groups:.1f} blocks each"),
    ("shape_group_blocks", "lp.shape_group:sum", None),
    ("cache_hits", "lp.cache.hits", None),
    ("cache_misses", "lp.cache.misses", None),
    ("cache_lookups", "lp.cache.*",
     "solve cache        {cache_hits}/{cache_lookups} hits "
     "({cache_hits/cache_lookups:.0%})"),
    ("store_hits", "store.hits", None),
    ("store_misses", "store.misses", None),
    ("store_lookups", "store.*",
     "result store       {store_hits}/{store_lookups} hits "
     "({store_hits/store_lookups:.0%})"),
    ("scenario_memo_hits", "memo.hits", None),
    ("scenario_memo_misses", "memo.misses", None),
    ("scenario_memo_lookups", "memo.*",
     "scenario memo      {scenario_memo_hits}/{scenario_memo_lookups} hits "
     "({scenario_memo_hits/scenario_memo_lookups:.0%})"),
    ("shard_solves", "shard.solves",
     "shard solves       {shard_solves}\n"
     "coordinator        {coordinator_iterations} outer iterations, "
     "duality gap {coordinator_gap_j:.6g} J"),
    ("coordinator_iterations", "shard.outer_iterations", None),
    ("coordinator_gap_j", "shard.duality_gap_j", None),
    ("faults_detected", "faults.detected",
     "faults detected    {faults_detected}\n"
     "recovery           {retries} retries, {degradations} degradations, "
     "{reassignments} reassignments, {tasks_dropped} drops\n"
     "tasks recovered    {tasks_recovered}"),
    ("retries", "faults.retry", None),
    ("degradations", "faults.degrade", None),
    ("reassignments", "faults.reassign", None),
    ("tasks_dropped", "faults.drop", None),
    ("tasks_recovered", "faults.recovered", None),
    ("cell_retries", "runtime.retries",
     "cell retries       {cell_retries} ({cell_timeouts} from timeouts)"),
    ("cell_timeouts", "runtime.timeouts", None),
    ("cells_quarantined", "runtime.quarantines",
     "cells quarantined  {cells_quarantined}{quarantine_detail}"),
    ("lp_fallbacks", "lp.fallback.*",
     "LP fallbacks       {lp_fallbacks} ({fallback_rungs})"),
    ("journal_replays", "journal.replays",
     "journal replays    {journal_replays}"),
)

_SOURCES: Dict[str, str] = {attr: source for attr, source, _ in COUNTERS}

#: Rows whose zero is news once LPs ran: the cache or memo was bypassed.
_SHOWN_UNUSED = ("cache_lookups", "scenario_memo_lookups")


class _Count(float):
    """A counter value whose bare ``{field}`` renders via
    :func:`~repro.obs.metrics.format_count`."""

    def __format__(self, spec: str) -> str:
        return format(float(self), spec) if spec else format_count(self)


class _Fields(dict):
    """``--stats`` template fields; a field ``a/b`` reads as ``a`` over ``b``."""

    def __missing__(self, key: str) -> float:
        numerator, _, denominator = key.partition("/")
        if not denominator:
            raise KeyError(key)
        return self[numerator] / self[denominator]


class Telemetry:
    """The per-run telemetry sink attached to a :class:`RunContext`.

    Three slots, each defining ``+`` so worker snapshots merge losslessly
    into the parent's sink: ``metrics``
    (:class:`repro.obs.metrics.Metrics` — named counters plus fixed-bucket
    histograms, merged bucket-wise), ``spans``
    (:class:`repro.obs.spans.SpanLog` — completed tracer spans, merged by
    track-aware concatenation) and ``quarantines`` (one
    ``{"label", "attempts", "error"}`` dict per poison cell skipped by
    :mod:`repro.runtime`).  Every :data:`COUNTERS` attribute reads its
    value out of ``metrics``.
    """

    __slots__ = ("metrics", "spans", "quarantines")

    #: The whole-batch LP cache these counted is gone; they read 0 only
    #: because the benchmark's layer report still reads them.
    batch_cache_hits = batch_cache_misses = 0

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Empty the metrics, span and quarantine sinks."""
        self.metrics = Metrics()
        self.spans = SpanLog()
        self.quarantines: List[Dict[str, Any]] = []

    def __getattr__(self, name: str) -> float:
        # Only table attributes resolve.  Everything else — pickle's hook
        # probes, a slot read before unpickling fills it — must raise, or
        # the lookup of ``self.metrics`` below would recurse.
        source = _SOURCES.get(name)
        if source is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        return self.metrics.read(source)

    def record_solve(
        self,
        *,
        wall_time_s: float,
        iterations: int,
        cache_hit: bool = False,
    ) -> None:
        """Record one LP solve (or solve-cache hit).

        :param wall_time_s: wall-clock time of the solve (lookup time for
            cache hits).
        :param iterations: solver iterations (zero for cache hits).
        :param cache_hit: the result came out of an LP solve cache.
        """
        self.metrics.incr("lp.solves")
        # The `solve` stage histogram covers every solve (cache hits are
        # real pipeline latency), the iteration histogram only actual
        # solver runs.
        self.metrics.observe("stage.solve_s", wall_time_s)
        if not cache_hit:
            self.metrics.observe("lp.iterations", float(iterations))

    def record_batch(
        self,
        *,
        blocks: int,
        wall_time_s: float,
        iterations: "Sequence[int]",
        assembly_s: Optional[float] = None,
    ) -> None:
        """Record one batched solve clearing ``blocks`` LP blocks.

        Every structured or sparse interior-point rung of LP-HTA's Step 1
        is one such solve, a single cluster being a batch of one.  Each
        block counts as one solve (so ``lp.solves`` counts blocks however
        they were pooled) and contributes its own iteration count to the
        ``lp.iterations`` histogram; the batch as a whole feeds the
        ``lp.batch_size`` histogram and the ``batch_assembly``/``solve``
        stage timings.

        :param blocks: number of LP blocks cleared by this call.
        :param wall_time_s: wall-clock time of the joint solve.
        :param iterations: per-block solver iteration counts.
        :param assembly_s: optional block-stacking time, observed into the
            ``stage.batch_assembly_s`` histogram (callers that time the
            assembly with :func:`~repro.obs.tracer.stage` pass ``None``).
        """
        self.metrics.incr("lp.solves", float(blocks))
        self.metrics.observe("lp.batch_size", float(blocks))
        self.metrics.observe("stage.solve_s", wall_time_s)
        for count in iterations:
            self.metrics.observe("lp.iterations", float(count))
        if assembly_s is not None:
            self.metrics.observe("stage.batch_assembly_s", assembly_s)

    def merge(self, other: "Telemetry") -> None:
        """Fold another sink into this one (worker hand-back).

        Each slot defines ``+`` (bucket-wise metrics addition, track-aware
        span concatenation, list concatenation), so one loop covers all
        three.
        """
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def summary(self) -> str:
        """A compact human-readable report (the CLI's ``--stats`` output),
        rendered from :data:`COUNTERS`.

        A run that never touched an LP (pure-greedy algorithms, coverage
        sweeps) renders one clean line instead of a block of zeros and
        ratio lines whose denominators would all be zero.
        """
        fields = _Fields(
            (attr, _Count(self.metrics.read(source)))
            for attr, source, _ in COUNTERS
        )
        fields["fallback_rungs"] = ", ".join(
            f"{name[len('lp.fallback.'):]} x{int(count)}"
            for name, count in sorted(self.metrics.counters.items())
            if name.startswith("lp.fallback.")
        )
        fields["quarantine_detail"] = "".join(
            f"\n  {entry['label']}: {str(entry['error']).splitlines()[0]} "
            f"({entry['attempts']} attempts)"
            for entry in self.quarantines
        )
        lines = [] if fields["solves"] else ["no LP solves recorded"]
        for attr, _, line in COUNTERS:
            if line is None:
                continue
            if fields[attr]:
                lines.append(line.format_map(fields))
            elif attr in _SHOWN_UNUSED and fields["solves"]:
                # The label is the line's text before its first field.
                lines.append(line.split("{", 1)[0] + "not used")
        return "\n".join(lines)


@dataclass(frozen=True)
class RunContext:
    """Immutable description of *how* to run an algorithm.

    :param reference: select the seed-reference implementation of every
        layer: object-at-a-time generator, scalar uncached cost tables,
        dense P2 assembly, the seed structured solver in Step 1, naive
        DTA greedies, per-row assignment metrics and the closure-chained
        DES replay; the LP solve cache and the scenario memo are
        bypassed.  Results are bit-identical either way; only speed
        differs.
    :param lp_cache_capacity: capacity of the per-context LP solve cache;
        ``0`` disables the cache.  The default keeps a bounded cache on:
        sweeps and repeated figure cells rebuild bit-identical relaxations
        constantly, and a hit returns the exact stored result.  Reference
        mode never consults the cache regardless of capacity.
    :param seed: RNG seed handed to randomized algorithm variants.
    :param trace: record nested spans (:mod:`repro.obs.tracer`) into the
        telemetry sink.  Off by default: the disabled path is a shared
        no-op context manager with near-zero overhead.  Cells pickle their
        context, so enabling tracing on a sweep traces its worker
        processes too, and the workers' span logs merge back like every
        other counter.
    :param max_attempts: supervised attempts per sweep cell before it is
        quarantined (``1`` disables retries; see :mod:`repro.runtime`).
    :param cell_timeout_s: per-cell wall-clock budget for pooled sweeps;
        ``0`` disables timeouts.
    :param retry_backoff_s: base of the decorrelated-jitter backoff slept
        between supervised retry rounds.
    :param quarantine: skip-and-record cells that exhaust their attempts;
        ``False`` makes an exhausted cell fatal
        (:class:`~repro.runtime.errors.CellFailedError`).
    :param journal_path: checkpoint every completed sweep cell/tile to
        this append-only journal; ``None`` disables journaling.
    :param resume: replay journal entries recorded by an earlier
        (interrupted) run instead of recomputing them.  Requires
        ``journal_path``.

    The six runtime knobs above change how a sweep *executes* — never
    what it computes — so they are excluded from the journal's content
    fingerprint (:data:`repro.runtime.journal._RESULT_FIELDS`).
    """

    reference: bool = False
    lp_cache_capacity: int = 256
    seed: int = 0
    trace: bool = False
    max_attempts: int = 2
    cell_timeout_s: float = 0.0
    retry_backoff_s: float = 0.05
    quarantine: bool = True
    journal_path: Optional[str] = None
    resume: bool = False
    telemetry: Telemetry = field(
        default_factory=Telemetry, compare=False, repr=False
    )

    def replace(self, **changes: Any) -> "RunContext":
        """A copy with ``changes`` applied.

        The telemetry sink is shared with the original unless explicitly
        replaced, so derived contexts keep reporting into the same counters.
        """
        return dataclasses.replace(self, **changes)

    @property
    def lp_cache(self) -> Optional["LPSolveCache"]:
        """The per-context LP solve cache (``None`` when capacity is 0).

        Created lazily and memoised on the instance, so every solve under
        this context shares one cache; a copy made via :meth:`replace`
        builds its own.
        """
        if self.lp_cache_capacity <= 0:
            return None
        cache = self.__dict__.get("_lp_cache")
        if cache is None:
            from repro.caching.lp_cache import LPSolveCache

            cache = LPSolveCache(self.lp_cache_capacity, telemetry=self.telemetry)
            # Frozen dataclass: memoise via __dict__ to bypass __setattr__.
            self.__dict__["_lp_cache"] = cache
        return cache

    def __getstate__(self) -> Dict[str, Any]:
        # Contexts cross process boundaries inside sweep cells.  The worker
        # must start from zeroed counters (its deltas are merged back by the
        # parent) and must not drag a solve cache across the wire.
        state = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
        }
        state["telemetry"] = Telemetry()
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


#: Fallback context when nothing was activated: the optimised defaults.
_DEFAULT = RunContext()

_ACTIVE: "contextvars.ContextVar[RunContext]" = contextvars.ContextVar(
    "repro_run_context"
)


def current_context() -> RunContext:
    """The innermost active :class:`RunContext` (defaults when none is)."""
    return _ACTIVE.get(_DEFAULT)


@contextmanager
def use_context(context: RunContext) -> Iterator[RunContext]:
    """Activate ``context`` for the duration of the ``with`` block.

    Activations nest; leaving the block restores the previous context.

    :param context: the context to activate.
    """
    token = _ACTIVE.set(context)
    try:
        yield context
    finally:
        _ACTIVE.reset(token)
