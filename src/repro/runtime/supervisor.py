"""Supervised execution: timeouts, bounded retries, poison-cell quarantine.

The sweep engine's historical failure story was one ``BrokenProcessPool``
retry around the whole ``pool.map``: a single crashing cell re-ran the
entire batch once and then took the sweep down.  The supervisor replaces
that with per-unit bookkeeping:

- **Timeouts** — each dispatched unit is awaited with a wall-clock budget
  (:attr:`RetryPolicy.timeout_s`); a unit that exceeds it has its pool
  discarded (the only way to reap a hung ``ProcessPoolExecutor`` worker)
  and is retried.
- **Bounded retries with decorrelated-jitter backoff** — a failed unit is
  re-run up to :attr:`RetryPolicy.max_attempts` times, sleeping a random
  interval drawn from ``[base, 3 × previous]`` (capped) between rounds,
  so a transient resource blip does not produce a synchronized thundering
  retry herd.
- **Quarantine** — a unit that exhausts its attempts is recorded (label,
  attempt count, error with the remote traceback) in the run's telemetry
  and *skipped*: its result slot stays ``None``, downstream averaging
  treats it as a missing sample, and the sweep completes.

**Failure attribution.**  When a pool breaks, every unfinished future
raises ``BrokenProcessPool`` — the parent cannot tell which unit killed
the worker.  Rather than charging every in-flight unit (which would let a
single poison cell quarantine innocent neighbours), the supervisor
switches to *careful mode*: completed results are harvested, the
remaining units are re-dispatched one at a time, and only a unit that
fails **alone** is charged an attempt.  Multi-cell units (batched sweep
columns) are split into singletons on the way, isolating the poison cell;
the split is result-preserving because batched and sequential evaluation
are bit-identical by construction.

Configuration errors (``ValueError``/``TypeError`` — unknown algorithm,
bad evaluator kind) are re-raised immediately: retrying a typo is useless
and quarantining it would silently turn it into a ``nan`` curve.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import (
    CancelledError,
    Future,
    TimeoutError as FutureTimeoutError,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.context import RunContext
from repro.obs.tracer import span
from repro.runtime.errors import (
    CellFailedError,
    RemoteCellError,
    config_error_of,
    is_config_error,
)

__all__ = ["PoolHandle", "RetryPolicy", "Supervisor"]


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision tunables, normally derived from the run context.

    :param max_attempts: charged attempts per unit before quarantine
        (``1`` disables retries).
    :param timeout_s: per-unit wall-clock budget for pooled dispatch;
        ``0`` disables timeouts.  In-process execution cannot be
        interrupted, so the budget applies only across a pool.
    :param backoff_base_s: floor of the decorrelated-jitter backoff slept
        between retry rounds.
    :param backoff_cap_s: ceiling of the backoff.
    :param quarantine: record-and-skip exhausted units; ``False`` raises
        :class:`~repro.runtime.errors.CellFailedError` instead.
    :param seed: seed for the backoff jitter (the only randomness here;
        results never depend on it).
    """

    max_attempts: int = 2
    timeout_s: float = 0.0
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    quarantine: bool = True
    seed: int = 0

    @classmethod
    def from_context(cls, context: RunContext) -> "RetryPolicy":
        return cls(
            max_attempts=max(1, context.max_attempts),
            timeout_s=context.cell_timeout_s,
            backoff_base_s=context.retry_backoff_s,
            quarantine=context.quarantine,
            seed=context.seed,
        )


class PoolHandle:
    """What the supervisor needs from a pool cache: get one, drop one."""

    def __init__(
        self, acquire: Callable[[], Any], discard: Callable[[], None]
    ) -> None:
        self.acquire = acquire
        self.discard = discard


class _Unit:
    """One dispatchable unit: a tuple of item ids plus its charge sheet."""

    __slots__ = ("ids", "attempts", "last_error")

    def __init__(self, ids: Tuple[int, ...], attempts: int = 0) -> None:
        self.ids = ids
        self.attempts = attempts
        self.last_error = ""


def _describe_error(exc: BaseException) -> str:
    if isinstance(exc, RemoteCellError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


class Supervisor:
    """Run units of work to completion under a :class:`RetryPolicy`.

    Item ids are opaque integers chosen by the caller (cell indices);
    units are tuples of ids (a batched sweep column is one unit until it
    has to split).  Results come back as ``{item_id: result}`` plus the
    list of quarantined item ids; quarantine details (label, attempts,
    traceback) are recorded on the context's telemetry.  ``on_result``
    (if given) fires once per completed item, in the submitting process,
    the moment its unit finishes — the checkpoint journal hangs off it so
    a crash mid-sweep keeps every cell completed so far.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        context: RunContext,
        describe: Optional[Callable[[Tuple[int, ...]], str]] = None,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> None:
        self._policy = policy
        self._context = context
        self._describe = describe or (lambda ids: f"cells {list(ids)}")
        self._on_result = on_result
        self._rng = random.Random(policy.seed ^ 0x5EE)
        self._prev_backoff = policy.backoff_base_s

    def _deliver(
        self, results: Dict[int, Any], ids: Tuple[int, ...], out: Sequence[Any]
    ) -> None:
        """Record a unit's per-item results, notifying ``on_result`` as we
        go — that is the hook checkpointing journals hang off, so it must
        fire the moment an item completes, not when the sweep ends."""
        for item_id, value in zip(ids, out):
            results[item_id] = value
            if self._on_result is not None:
                self._on_result(item_id, value)

    # -- shared bookkeeping -------------------------------------------------

    def _backoff(self) -> None:
        """Decorrelated jitter: sleep U(base, 3 × previous), capped."""
        delay = min(
            self._policy.backoff_cap_s,
            self._rng.uniform(
                self._policy.backoff_base_s, max(self._prev_backoff * 3, self._policy.backoff_base_s)
            ),
        )
        self._prev_backoff = delay
        if delay > 0:
            time.sleep(delay)

    def _charge(
        self,
        unit: _Unit,
        error: str,
        requeue: List[_Unit],
        quarantined: List[int],
        *,
        timeout: bool,
    ) -> None:
        """Charge a unit one attributed attempt; requeue, or quarantine."""
        unit.attempts += 1
        unit.last_error = error
        telemetry = self._context.telemetry
        if unit.attempts >= self._policy.max_attempts:
            if not self._policy.quarantine:
                raise CellFailedError(
                    f"{self._describe(unit.ids)} failed after "
                    f"{unit.attempts} attempts: {error}"
                )
            telemetry.metrics.incr("runtime.quarantines")
            label = self._describe(unit.ids)
            telemetry.quarantines.append(
                {"label": label, "attempts": unit.attempts, "error": error}
            )
            quarantined.extend(unit.ids)
            return
        telemetry.metrics.incr("runtime.retries")
        if timeout:
            telemetry.metrics.incr("runtime.timeouts")
        requeue.extend(self._split(unit))

    @staticmethod
    def _split(unit: _Unit) -> List[_Unit]:
        """Singleton units isolating each item (attempts carry over)."""
        if len(unit.ids) <= 1:
            return [unit]
        return [_Unit((i,), unit.attempts) for i in unit.ids]

    # -- in-process execution ----------------------------------------------

    def run_local(
        self,
        groups: Sequence[Tuple[int, ...]],
        evaluate: Callable[[Tuple[int, ...]], List[Any]],
    ) -> Tuple[Dict[int, Any], List[int]]:
        """Evaluate every group in-process, with retries and quarantine.

        :param groups: item-id tuples (batched columns stay whole unless
            they fail and split).
        :param evaluate: maps an id tuple to the per-item results, in id
            order.  Must be pure — retries re-invoke it.
        :returns: ``({item_id: result}, quarantined item ids)``.
        """
        results: Dict[int, Any] = {}
        quarantined: List[int] = []
        pending = [_Unit(tuple(ids)) for ids in groups if ids]
        while pending:
            unit = pending.pop(0)
            try:
                out = evaluate(unit.ids)
            except Exception as exc:
                if is_config_error(exc):
                    raise config_error_of(exc) from exc
                requeue: List[_Unit] = []
                with span("runtime.retry", context=self._context,
                          unit=self._describe(unit.ids)):
                    self._charge(
                        unit, _describe_error(exc), requeue, quarantined,
                        timeout=False,
                    )
                if requeue:
                    self._backoff()
                    pending = requeue + pending
                continue
            self._deliver(results, unit.ids, out)
        return results, quarantined

    # -- pooled execution ---------------------------------------------------

    def run_pooled(
        self,
        groups: Sequence[Tuple[int, ...]],
        worker_fn: Callable[..., Any],
        make_payload: Callable[[Tuple[int, ...]], Any],
        pool: PoolHandle,
        merge_telemetry: Callable[[Any], None],
    ) -> Tuple[Dict[int, Any], List[int]]:
        """Dispatch every group across a worker pool, supervised.

        ``worker_fn(payload)`` must return ``(per_item_results,
        telemetry)`` with one result per id, in id order.  Submission
        order is preserved within a round, and results are keyed by item
        id, so callers reassemble deterministic output regardless of
        scheduling.

        A ``KeyboardInterrupt`` (or any ``BaseException``) cancels the
        outstanding futures and discards the pool before propagating, so
        an interrupted sweep reaps its workers deterministically instead
        of leaving them to the ``atexit`` hook.

        :returns: ``({item_id: result}, quarantined item ids)``.
        """
        results: Dict[int, Any] = {}
        quarantined: List[int] = []
        pending = [_Unit(tuple(ids)) for ids in groups if ids]
        careful = False  # one unit at a time, for exact failure attribution
        while pending:
            if careful:
                batch, pending = [pending[0]], pending[1:]
            else:
                batch, pending = pending, []
            requeue, broke = self._dispatch_round(
                batch, worker_fn, make_payload, pool,
                merge_telemetry, results, quarantined,
                attribute=careful,
            )
            if broke and not careful:
                careful = True
            if requeue:
                self._backoff()
            pending = requeue + pending
        return results, quarantined

    def _dispatch_round(
        self,
        batch: List[_Unit],
        worker_fn: Callable[..., Any],
        make_payload: Callable[[Tuple[int, ...]], Any],
        pool: PoolHandle,
        merge_telemetry: Callable[[Any], None],
        results: Dict[int, Any],
        quarantined: List[int],
        *,
        attribute: bool,
    ) -> Tuple[List[_Unit], bool]:
        """Submit one round; collect, requeue or quarantine each unit.

        When ``attribute`` is ``False`` (the optimistic concurrent round)
        a pool breakage or timeout charges *no one* — the survivors are
        harvested, everything unfinished splits and requeues, and the
        caller switches to careful mode.  When ``True`` (careful mode,
        one unit in flight) any failure is that unit's own and is
        charged.
        """
        executor = pool.acquire()
        futures: List[Tuple[_Unit, Future]] = []
        requeue: List[_Unit] = []
        broke = False
        try:
            for unit in batch:
                futures.append(
                    (unit, executor.submit(worker_fn, make_payload(unit.ids)))
                )
            timeout = self._policy.timeout_s or None
            for unit, future in futures:
                if broke:
                    # The pool is gone: harvest what finished, requeue the
                    # rest without charging anyone (attribution unknown).
                    self._harvest_or_requeue(
                        unit, future, merge_telemetry, results, requeue,
                        quarantined,
                    )
                    continue
                try:
                    out, telemetry = future.result(timeout=timeout)
                except FutureTimeoutError:
                    # Discarding the pool is the only way to reap the
                    # (possibly hung) worker; survivors are harvested in
                    # the `broke` branch above.
                    pool.discard()
                    broke = True
                    if attribute:
                        self._charge(
                            unit,
                            f"timed out after {self._policy.timeout_s:.1f} s",
                            requeue, quarantined, timeout=True,
                        )
                    else:
                        requeue.extend(self._split(unit))
                    continue
                except BrokenProcessPool as exc:
                    pool.discard()
                    broke = True
                    if attribute:
                        self._charge(
                            unit, _describe_error(exc), requeue, quarantined,
                            timeout=False,
                        )
                    else:
                        requeue.extend(self._split(unit))
                    continue
                except Exception as exc:
                    # The worker raised and survived: the pool is healthy
                    # and the failure is exactly this unit's.
                    if is_config_error(exc):
                        raise config_error_of(exc) from exc
                    self._charge(
                        unit, _describe_error(exc), requeue, quarantined,
                        timeout=False,
                    )
                    continue
                merge_telemetry(telemetry)
                self._deliver(results, unit.ids, out)
        except BaseException:
            # KeyboardInterrupt & friends: cancel everything still queued
            # and reap the workers now, not at interpreter exit.
            for _, future in futures:
                future.cancel()
            pool.discard()
            raise
        return requeue, broke

    def _harvest_or_requeue(
        self,
        unit: _Unit,
        future: Future,
        merge_telemetry: Callable[[Any], None],
        results: Dict[int, Any],
        requeue: List[_Unit],
        quarantined: List[int],
    ) -> None:
        """After a pool breakage: keep finished work, requeue the rest."""
        try:
            out, telemetry = future.result(timeout=0)
        except (CancelledError, FutureTimeoutError, BrokenProcessPool):
            # Victims of the breakage, not suspects: requeue unbumped.
            requeue.extend(self._split(unit))
            return
        except Exception as exc:
            if is_config_error(exc):
                raise config_error_of(exc) from exc
            if isinstance(exc, RemoteCellError):
                # An ordinary worker exception that happened to land in a
                # broken round is still attributable to its unit.
                self._charge(
                    unit, _describe_error(exc), requeue, quarantined,
                    timeout=False,
                )
            else:
                requeue.extend(self._split(unit))
            return
        merge_telemetry(telemetry)
        self._deliver(results, unit.ids, out)
