"""LP backend dispatcher.

``"interior-point"`` (the default, mirroring the paper's Step 1) and
``"simplex"`` are our from-scratch solvers; ``"scipy"`` wraps
``scipy.optimize.linprog`` and exists so the test suite can cross-validate
the from-scratch implementations against an independent solver; no
fallback ladder includes it.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

from repro.context import RunContext, current_context
from repro.lp.interior_point import IPMOptions, solve_interior_point
from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.lp.simplex import SimplexOptions, solve_simplex
from repro.obs.tracer import span

__all__ = ["FALLBACK_LADDER", "available_backends", "solve", "solve_with_fallback"]


#: The LP fallback ladder below the primary backend: our sparse IPM first,
#: then the from-scratch simplex as the numerically independent retry.
FALLBACK_LADDER: Tuple[str, ...] = ("interior-point", "simplex")


def _solve_scipy(problem: LinearProgram) -> LPResult:
    """Cross-check backend built on scipy's HiGHS interface."""
    from scipy.optimize import linprog

    bounds = [(0.0, ub if ub != float("inf") else None) for ub in problem.upper_bounds]
    result = linprog(
        c=problem.c,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        bounds=bounds,
        method="highs",
    )
    status_map = {
        0: LPStatus.OPTIMAL,
        1: LPStatus.ITERATION_LIMIT,
        2: LPStatus.INFEASIBLE,
        3: LPStatus.UNBOUNDED,
        4: LPStatus.NUMERICAL_ERROR,
    }
    status = status_map.get(result.status, LPStatus.NUMERICAL_ERROR)
    return LPResult(
        status=status,
        x=result.x if status.ok else None,
        objective=float(result.fun) if status.ok else float("nan"),
        iterations=int(getattr(result, "nit", 0) or 0),
        backend="scipy",
        message=str(result.message),
    )


_BACKENDS: Dict[str, Callable[[LinearProgram], LPResult]] = {
    "interior-point": lambda p: solve_interior_point(p, IPMOptions()),
    "simplex": lambda p: solve_simplex(p, SimplexOptions()),
    "scipy": _solve_scipy,
}


def available_backends() -> Tuple[str, ...]:
    """Names accepted by :func:`solve`."""
    return tuple(_BACKENDS)


def solve(
    problem: LinearProgram,
    method: str = "interior-point",
    cache: Optional["LPSolveCache"] = None,
    context: Optional[RunContext] = None,
) -> LPResult:
    """Solve ``problem`` with the named backend.

    :param problem: the LP to solve.
    :param method: one of :func:`available_backends`.
    :param cache: optional :class:`~repro.caching.lp_cache.LPSolveCache`;
        bit-identical (problem, method) pairs return the stored result
        without solving.  Defaults to the context's own solve cache (on by
        default; ``lp_cache_capacity=0`` turns it off, reference mode
        bypasses it).
    :param context: run configuration and telemetry sink; defaults to the
        active :func:`~repro.context.current_context`.  Every call records
        one solve (wall time, iterations, cache hit).
    :raises ValueError: on an unknown backend name.
    """
    try:
        backend = _BACKENDS[method]
    except KeyError:
        raise ValueError(
            f"unknown LP backend {method!r}; choose from {available_backends()}"
        ) from None

    ctx = context if context is not None else current_context()
    if cache is None and not ctx.reference:
        # Reference mode solves uncached (seed-era behaviour; explicit
        # ``cache=`` arguments still win for differential tests).
        cache = ctx.lp_cache

    with span("solve", context=ctx, backend=method):
        start = time.perf_counter()
        key = None
        if cache is not None:
            from repro.caching.lp_cache import fingerprint_problem

            key = fingerprint_problem(problem, method)
            hit = cache.lookup(key)
            if hit is not None:
                ctx.telemetry.record_solve(
                    wall_time_s=time.perf_counter() - start,
                    iterations=0,
                    cache_hit=True,
                )
                return hit

        result = backend(problem)
        if cache is not None and key is not None:
            cache.insert(key, result)
        ctx.telemetry.record_solve(
            wall_time_s=time.perf_counter() - start,
            iterations=result.iterations,
        )
        return result


def solve_with_fallback(
    problem: LinearProgram,
    methods: Optional[Tuple[str, ...]] = None,
    context: Optional[RunContext] = None,
) -> LPResult:
    """Solve ``problem``, degrading through a ladder of backends.

    Each method is tried in order until one returns an ``OPTIMAL`` result;
    a success on any rung below the first is counted in the context's
    telemetry (``lp.fallback.<backend>``, the ``--stats`` fallback line).
    When every rung fails the *last* result is returned — status intact,
    never raised — so callers decide whether a non-optimal status is fatal
    for them.

    :param methods: the ladder, first entry primary; defaults to
        :data:`FALLBACK_LADDER`.
    :param context: run configuration and telemetry sink; defaults to the
        active :func:`~repro.context.current_context`.
    :raises ValueError: when ``methods`` is empty or names an unknown
        backend.
    """
    ladder = FALLBACK_LADDER if methods is None else methods
    if not ladder:
        raise ValueError("solve_with_fallback needs at least one backend")
    ctx = context if context is not None else current_context()
    result: Optional[LPResult] = None
    for rung, method in enumerate(ladder):
        result = solve(problem, method, context=ctx)
        if result.status.ok:
            if rung > 0:
                ctx.telemetry.metrics.incr(f"lp.fallback.{method}")
            return result
    assert result is not None
    return result
