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
- **LP settings** — default backend, fallback chain, warm-start toggle and
  the capacity of the per-context LP solve cache;
- **seeds** — the RNG seed handed to randomized algorithm variants.

The active context is tracked with :mod:`contextvars`, so activation nests
and is safe under threads.

Each context also carries a mutable :class:`Telemetry` sink (excluded from
equality/hash/pickling): every LP solve records wall time, iteration count,
cache hit/miss and warm-start reuse there, so the CLI, the figure sweeps,
the DES replay and the online scheduler all report the same counters.
Worker processes start from zeroed counters (pickling a context resets its
telemetry) and :func:`repro.experiments.parallel.run_cells` merges their
counts back into the submitting context.
"""

from __future__ import annotations

import contextvars
import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.caching.lp_cache import LPSolveCache

__all__ = [
    "RunContext",
    "Telemetry",
    "current_context",
    "use_context",
]


class Telemetry:
    """Aggregated per-solve counters attached to a :class:`RunContext`.

    One record per LP solve; the counters are additive so worker snapshots
    merge losslessly into the parent's sink.  Two structured slots ride
    the same reset/merge/pickle protocol: ``metrics``
    (:class:`repro.obs.metrics.Metrics` — named counters plus fixed-bucket
    histograms, merged bucket-wise) and ``spans``
    (:class:`repro.obs.spans.SpanLog` — completed tracer spans, merged by
    track-aware concatenation).
    """

    __slots__ = (
        "solves",
        "solve_wall_s",
        "lp_iterations",
        "batch_solves",
        "batched_blocks",
        "cache_hits",
        "cache_misses",
        "batch_cache_hits",
        "batch_cache_misses",
        "scenario_memo_hits",
        "scenario_memo_misses",
        "shard_solves",
        "coordinator_iterations",
        "coordinator_gap_j",
        "faults_detected",
        "retries",
        "degradations",
        "reassignments",
        "tasks_dropped",
        "tasks_recovered",
        "cell_retries",
        "cell_timeouts",
        "cells_quarantined",
        "lp_fallbacks",
        "journal_replays",
        "quarantines",
        "metrics",
        "spans",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter and empty the metrics/span sinks."""
        # Local import: repro.obs.metrics/spans are import-light leaves,
        # but this module's default context is built at import time, so a
        # top-level import would cycle through repro.obs back into here.
        from repro.obs.metrics import Metrics
        from repro.obs.spans import SpanLog

        self.metrics = Metrics()
        self.spans = SpanLog()
        self.solves = 0
        self.solve_wall_s = 0.0
        self.lp_iterations = 0
        self.batch_solves = 0
        self.batched_blocks = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batch_cache_hits = 0
        self.batch_cache_misses = 0
        self.scenario_memo_hits = 0
        self.scenario_memo_misses = 0
        self.shard_solves = 0
        self.coordinator_iterations = 0
        self.coordinator_gap_j = 0.0
        self.faults_detected = 0
        self.retries = 0
        self.degradations = 0
        self.reassignments = 0
        self.tasks_dropped = 0
        self.tasks_recovered = 0
        self.cell_retries = 0
        self.cell_timeouts = 0
        self.cells_quarantined = 0
        self.lp_fallbacks = 0
        self.journal_replays = 0
        self.quarantines = []

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
        self.solves += 1
        self.solve_wall_s += wall_time_s
        self.lp_iterations += iterations
        # The distribution view of the same event: the `solve` stage
        # histogram covers every solve (cache hits are real pipeline
        # latency), the iteration histogram only actual solver runs.
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
        """Record one batched mega-solve clearing ``blocks`` LP blocks.

        Each block counts as one solve (so ``solves`` stays comparable
        between the batched and sequential paths) and contributes its own
        iteration count to the ``lp.iterations`` histogram; the batch as a
        whole feeds the ``lp.batch_size`` histogram and, through
        :func:`repro.obs.tracer.stage`, the ``batch_assembly``/``solve``
        stage timings.

        :param blocks: number of LP blocks cleared by this call.
        :param wall_time_s: wall-clock time of the joint solve.
        :param iterations: per-block solver iteration counts.
        :param assembly_s: optional block-stacking time, observed into the
            ``stage.batch_assembly_s`` histogram (callers that time the
            assembly with :func:`~repro.obs.tracer.stage` pass ``None``).
        """
        self.batch_solves += 1
        self.batched_blocks += blocks
        self.solves += blocks
        self.solve_wall_s += wall_time_s
        self.lp_iterations += sum(iterations)
        self.metrics.observe("lp.batch_size", float(blocks))
        self.metrics.observe("stage.solve_s", wall_time_s)
        for count in iterations:
            self.metrics.observe("lp.iterations", float(count))
        if assembly_s is not None:
            self.metrics.observe("stage.batch_assembly_s", assembly_s)

    def record_cache(self, hit: bool) -> None:
        """Count one LP solve-cache lookup."""
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def record_batch_cache(self, hit: bool) -> None:
        """Count one whole-batch LP solve-cache lookup."""
        if hit:
            self.batch_cache_hits += 1
        else:
            self.batch_cache_misses += 1

    def record_scenario_memo(self, hit: bool) -> None:
        """Count one per-worker scenario-memo lookup (see
        :mod:`repro.experiments.parallel`)."""
        if hit:
            self.scenario_memo_hits += 1
        else:
            self.scenario_memo_misses += 1

    def record_recovery(self, action: str, recovered: bool) -> None:
        """Record one fault-recovery event (see :mod:`repro.faults`).

        :param action: the recovery action taken — ``"drop"``, ``"none"``,
            ``"retry"``, ``"degrade"`` or ``"reassign"``.
        :param recovered: whether the task still met its deadline.
        """
        self.faults_detected += 1
        if action == "retry":
            self.retries += 1
        elif action == "degrade":
            self.degradations += 1
        elif action == "reassign":
            self.reassignments += 1
        elif action == "drop":
            self.tasks_dropped += 1
        if recovered:
            self.tasks_recovered += 1

    def record_retry(self, *, timeout: bool = False) -> None:
        """Count one supervised cell retry (see :mod:`repro.runtime`).

        :param timeout: the retry was triggered by a per-cell wall-clock
            timeout rather than a crash or exception.
        """
        self.cell_retries += 1
        self.metrics.incr("runtime.retries")
        if timeout:
            self.cell_timeouts += 1
            self.metrics.incr("runtime.timeouts")

    def record_quarantine(self, label: str, attempts: int, error: str) -> None:
        """Record one poison cell skipped after exhausting its attempts.

        :param label: where the cell lives (indices, shard, seed).
        :param attempts: how many attempts it was charged.
        :param error: the final failure, remote traceback included.
        """
        self.cells_quarantined += 1
        self.metrics.incr("runtime.quarantines")
        self.quarantines.append(
            {"label": label, "attempts": attempts, "error": error}
        )

    def record_fallback(self, rung: str) -> None:
        """Count one solver fallback-ladder descent onto ``rung``."""
        self.lp_fallbacks += 1
        self.metrics.incr(f"lp.fallback.{rung}")

    def record_journal_replay(self, count: int = 1) -> None:
        """Count cells replayed from the checkpoint journal (``--resume``)."""
        self.journal_replays += count
        self.metrics.incr("journal.replays", float(count))

    def merge(self, other: "Telemetry") -> None:
        """Fold another sink into this one (worker hand-back).

        Scalar counters add; the metrics bag and the span log define
        ``+`` themselves (bucket-wise addition, track-aware
        concatenation), so the same loop covers all three.
        """
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, float]:
        """The counters as a plain dict (stable keys, for reports/tests)."""
        return {
            "solves": self.solves,
            "solve_wall_s": self.solve_wall_s,
            "lp_iterations": self.lp_iterations,
            "batch_solves": self.batch_solves,
            "batched_blocks": self.batched_blocks,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "batch_cache_hits": self.batch_cache_hits,
            "batch_cache_misses": self.batch_cache_misses,
            "scenario_memo_hits": self.scenario_memo_hits,
            "scenario_memo_misses": self.scenario_memo_misses,
            "shard_solves": self.shard_solves,
            "coordinator_iterations": self.coordinator_iterations,
            "coordinator_gap_j": self.coordinator_gap_j,
            "faults_detected": self.faults_detected,
            "retries": self.retries,
            "degradations": self.degradations,
            "reassignments": self.reassignments,
            "tasks_dropped": self.tasks_dropped,
            "tasks_recovered": self.tasks_recovered,
            "cell_retries": self.cell_retries,
            "cell_timeouts": self.cell_timeouts,
            "cells_quarantined": self.cells_quarantined,
            "lp_fallbacks": self.lp_fallbacks,
            "journal_replays": self.journal_replays,
        }

    def summary(self) -> str:
        """A compact human-readable report (the CLI's ``--stats`` output).

        A run that never touched an LP (pure-greedy algorithms, coverage
        sweeps) renders one clean line instead of a block of zeros and
        ratio lines whose denominators would all be zero.
        """
        lookups = self.cache_hits + self.cache_misses
        if self.solves == 0:
            lines = ["no LP solves recorded"]
        else:
            lines = [
                f"LP solves          {self.solves}",
                f"solve wall time    {self.solve_wall_s:.3f} s",
                f"LP iterations      {self.lp_iterations}",
            ]
        if self.batch_solves:
            lines.append(
                f"batched solves     {self.batched_blocks} blocks in "
                f"{self.batch_solves} mega-solves"
            )
        batch_lookups = self.batch_cache_hits + self.batch_cache_misses
        if batch_lookups:
            lines.append(
                f"batch cache        {self.batch_cache_hits}/{batch_lookups} hits "
                f"({self.batch_cache_hits / batch_lookups:.0%})"
            )
        if lookups:
            lines.append(
                f"solve cache        {self.cache_hits}/{lookups} hits "
                f"({self.cache_hits / lookups:.0%})"
            )
        elif self.solves:
            lines.append("solve cache        not used")
        memo_lookups = self.scenario_memo_hits + self.scenario_memo_misses
        if memo_lookups:
            lines.append(
                f"scenario memo      {self.scenario_memo_hits}/{memo_lookups} hits "
                f"({self.scenario_memo_hits / memo_lookups:.0%})"
            )
        elif self.solves:
            lines.append("scenario memo      not used")
        if self.shard_solves:
            lines.append(f"shard solves       {self.shard_solves}")
        if self.coordinator_iterations or self.shard_solves:
            lines.append(
                f"coordinator        {self.coordinator_iterations} outer "
                f"iterations, duality gap {self.coordinator_gap_j:.6g} J"
            )
        if self.faults_detected:
            lines.append(f"faults detected    {self.faults_detected}")
            lines.append(
                "recovery           "
                f"{self.retries} retries, {self.degradations} degradations, "
                f"{self.reassignments} reassignments, "
                f"{self.tasks_dropped} drops"
            )
            lines.append(f"tasks recovered    {self.tasks_recovered}")
        if self.cell_retries or self.cells_quarantined:
            lines.append(
                f"cell retries       {self.cell_retries} "
                f"({self.cell_timeouts} from timeouts)"
            )
        if self.cells_quarantined:
            lines.append(f"cells quarantined  {self.cells_quarantined}")
            for entry in self.quarantines:
                first = str(entry["error"]).splitlines()[0]
                lines.append(
                    f"  {entry['label']}: {first} "
                    f"({entry['attempts']} attempts)"
                )
        if self.lp_fallbacks:
            rungs = ", ".join(
                f"{name.split('lp.fallback.', 1)[1]} x{int(count)}"
                for name, count in sorted(self.metrics.counters.items())
                if name.startswith("lp.fallback.")
            )
            lines.append(f"LP fallbacks       {self.lp_fallbacks} ({rungs})")
        if self.journal_replays:
            lines.append(f"journal replays    {self.journal_replays}")
        return "\n".join(lines)

    def __getstate__(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name in self.__slots__:
            setattr(self, name, state[name])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"Telemetry({inner})"


@dataclass(frozen=True)
class RunContext:
    """Immutable description of *how* to run an algorithm.

    :param reference: select the seed-reference implementation of every
        layer: object-at-a-time generator, scalar uncached cost tables,
        dense P2 assembly, sequential per-cluster Step 1 with the seed
        structured solver, naive DTA greedies, per-row assignment metrics
        and the closure-chained DES replay; the LP solve cache and the
        scenario memo are bypassed.  Results are bit-identical either way;
        only speed differs.
    :param lp_backend: default Step-1 backend for LP-HTA.
    :param lp_fallback_backends: tried in order when the primary backend
        fails numerically.
    :param lp_cache_capacity: capacity of the per-context LP solve cache;
        ``0`` disables the cache.  The default keeps a bounded cache on:
        sweeps and repeated figure cells rebuild bit-identical relaxations
        constantly, and a hit returns the exact stored result.  Reference
        mode never consults the cache regardless of capacity.
    :param seed: RNG seed handed to randomized algorithm variants.
    :param shards: route LP-HTA through the sharded solver
        (:func:`repro.core.sharded.lp_hta_sharded`) with this many
        balanced station shards.  ``0`` (the default) keeps the monolithic
        path.  With the paper's uncapped cloud the sharded output is
        bit-identical for any shard count, so this is purely an execution
        strategy; reference mode ignores it (the seed-era path is the
        differential baseline).
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
    lp_backend: str = "structured"
    lp_fallback_backends: Tuple[str, ...] = ("interior-point", "simplex", "scipy")
    lp_cache_capacity: int = 256
    seed: int = 0
    shards: int = 0
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
