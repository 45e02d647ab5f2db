"""Mehrotra predictor–corrector primal–dual interior-point LP solver.

LP-HTA's Step 1 calls for an interior-point solve of the relaxation P2 (the
paper cites Karmarkar [17]); this module implements the method that replaced
Karmarkar's projective algorithm in practice: the primal–dual path-following
scheme with Mehrotra's predictor–corrector (Mehrotra, SIAM J. Optim. 1992),
solving the normal equations :math:`A D A^T \\Delta y = r` with a dense
Cholesky factorisation per iteration — or, when the standard form carries a
SciPy sparse matrix, with a sparse LU factorisation (``splu``) of the same
regularised normal matrix.  The dense path is untouched and remains the
reference (reference mode, and the fallback ladder's dense retry).

The solver works on :class:`~repro.lp.problem.StandardFormLP`
(min c·x, Ax = b, x ≥ 0) and is exposed through
:func:`~repro.lp.backends.solve` under the name ``"interior-point"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.sparse.linalg import splu

from repro.lp.problem import LinearProgram, StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.obs.tracer import traced

__all__ = ["IPMOptions", "solve_interior_point", "solve_interior_point_batch"]

_BACKEND_NAME = "interior-point"


class _NumericalBreakdown(Exception):
    """Internal: a Newton system produced non-finite values."""


@dataclass(frozen=True)
class IPMOptions:
    """Tunables for the interior-point solver.

    :param tolerance: relative duality-gap / residual target.
    :param max_iterations: iteration cap before giving up.
    :param step_fraction: fraction of the max step to the boundary taken
        (the classic 0.9995 damping).
    :param divergence_threshold: treat the problem as infeasible/unbounded
        when iterates blow up beyond this magnitude.
    :param fallback_tolerance: accept the best iterate seen at this looser
        tolerance when the numerics break down before the strict target is
        met (near-degenerate vertices can push μ below machine precision
        between two iterations that each miss one criterion).
    :param stall_iterations: give up (``ITERATION_LIMIT``, with best-iterate
        salvage) when this many consecutive iterations fail to improve the
        best error seen — a divergent or cycling block then stops burning
        iterations long before ``max_iterations``.  Healthy Mehrotra runs
        improve almost every iteration, so the default is far outside their
        envelope.  ``0`` disables the guard.
    """

    tolerance: float = 1e-9
    max_iterations: int = 200
    step_fraction: float = 0.9995
    divergence_threshold: float = 1e14
    fallback_tolerance: float = 1e-6
    stall_iterations: int = 60


def _initial_point(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mehrotra's heuristic starting point (strictly positive x, s)."""
    m = a.shape[0]
    gram = a @ a.T + 1e-10 * np.eye(m)
    try:
        factor = cho_factor(gram)
        x = a.T @ cho_solve(factor, b)
        y = cho_solve(factor, a @ c)
    except (LinAlgError, ValueError):
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        y, *_ = np.linalg.lstsq(a.T, c, rcond=None)
    s = c - a.T @ y
    return _mehrotra_shift(x, y, s)


def _initial_point_sparse(
    a: "sp.csr_array", b: np.ndarray, c: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mehrotra's starting point computed with a sparse LU of the Gram
    matrix; falls back to dense least squares if the factorisation fails."""
    m = a.shape[0]
    gram = (a @ a.T).tocsc() + 1e-10 * sp.eye_array(m, format="csc")
    try:
        factor = splu(gram.tocsc())
        x = a.T @ factor.solve(b)
        y = factor.solve(a @ c)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise RuntimeError("non-finite Gram solve")
    except (RuntimeError, ValueError):
        dense = a.toarray()
        x, *_ = np.linalg.lstsq(dense, b, rcond=None)
        y, *_ = np.linalg.lstsq(dense.T, c, rcond=None)
    s = c - a.T @ y
    return _mehrotra_shift(x, y, s)


def _mehrotra_shift(
    x: np.ndarray, y: np.ndarray, s: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shift (x, s) strictly inside the positive orthant (Mehrotra's rule)."""
    delta_x = max(-1.5 * float(np.min(x, initial=0.0)), 0.0)
    delta_s = max(-1.5 * float(np.min(s, initial=0.0)), 0.0)
    x = x + delta_x
    s = s + delta_s

    dot = float(x @ s)
    if dot <= 0:
        x = np.maximum(x, 1.0)
        s = np.maximum(s, 1.0)
        dot = float(x @ s)
    sum_x = float(np.sum(x))
    sum_s = float(np.sum(s))
    x = x + 0.5 * dot / max(sum_s, 1e-12)
    s = s + 0.5 * dot / max(sum_x, 1e-12)
    return x, y, s


def _max_step(values: np.ndarray, directions: np.ndarray) -> float:
    """Largest α ∈ (0, 1] keeping ``values + α·directions`` non-negative."""
    negative = directions < 0
    if not np.any(negative):
        return 1.0
    ratios = -values[negative] / directions[negative]
    return float(min(1.0, np.min(ratios)))


def _solve_standard_form(lp: StandardFormLP, options: IPMOptions) -> LPResult:
    """Run the predictor–corrector loop on a standard-form LP."""
    a, b, c = lp.a, lp.b, lp.c
    m, n = a.shape
    sparse = sp.issparse(a)
    if sparse:
        a = sp.csr_array(a, dtype=float)

    if n == 0:
        feasible = bool(np.allclose(b, 0.0))
        return LPResult(
            status=LPStatus.OPTIMAL if feasible else LPStatus.INFEASIBLE,
            x=np.zeros(0) if feasible else None,
            objective=0.0,
            iterations=0,
            backend=_BACKEND_NAME,
        )
    if m == 0:
        # No constraints: minimum of c·x over x ≥ 0.
        if np.any(c < 0):
            return LPResult(LPStatus.UNBOUNDED, None, -np.inf, 0, _BACKEND_NAME)
        return LPResult(LPStatus.OPTIMAL, np.zeros(n), 0.0, 0, _BACKEND_NAME)

    if sparse:
        x, y, s = _initial_point_sparse(a, b, c)
    else:
        x, y, s = _initial_point(a, b, c)
    norm_b = 1.0 + float(np.linalg.norm(b))
    norm_c = 1.0 + float(np.linalg.norm(c))

    best_err = float("inf")
    best: Optional[np.ndarray] = None
    last_improve = 0

    def salvage(failure: LPResult) -> LPResult:
        """Return the best iterate when it already met the loose target.

        Pushing μ toward machine precision can blow up the Newton system
        one iteration *after* an essentially-optimal point; losing that
        point to a NUMERICAL_ERROR would misreport a solved problem.
        """
        if best is not None and best_err < options.fallback_tolerance:
            return LPResult(
                status=LPStatus.OPTIMAL,
                x=best,
                objective=float(c @ best),
                iterations=failure.iterations,
                backend=_BACKEND_NAME,
                message="converged at reduced tolerance",
            )
        return failure

    for iteration in range(1, options.max_iterations + 1):
        r_primal = a @ x - b
        r_dual = a.T @ y + s - c
        mu = float(x @ s) / n

        primal_err = float(np.linalg.norm(r_primal)) / norm_b
        dual_err = float(np.linalg.norm(r_dual)) / norm_c
        gap = abs(float(c @ x) - float(b @ y)) / (1.0 + abs(float(c @ x)))

        err = max(primal_err, dual_err, gap)
        if err < best_err:
            best_err = err
            best = x.copy()
            last_improve = iteration
        if err < options.tolerance:
            return LPResult(
                status=LPStatus.OPTIMAL,
                x=x,
                objective=float(c @ x),
                iterations=iteration - 1,
                backend=_BACKEND_NAME,
            )
        if (
            float(np.max(np.abs(x))) > options.divergence_threshold
            or float(np.max(np.abs(y))) > options.divergence_threshold
        ):
            return salvage(LPResult(
                status=LPStatus.NUMERICAL_ERROR,
                x=None,
                objective=float("nan"),
                iterations=iteration,
                backend=_BACKEND_NAME,
                message="iterates diverged (problem may be infeasible or unbounded)",
            ))
        if (
            options.stall_iterations > 0
            and iteration - last_improve >= options.stall_iterations
        ):
            return salvage(LPResult(
                status=LPStatus.ITERATION_LIMIT,
                x=None,
                objective=float("nan"),
                iterations=iteration,
                backend=_BACKEND_NAME,
                message=(
                    f"stalled: no progress in {options.stall_iterations}"
                    " iterations"
                ),
            ))

        # Diagonal of X S^{-1}, clipped: near a vertex some s_i underflows
        # and the raw ratio overflows, poisoning the normal matrix.
        with np.errstate(over="ignore", divide="ignore"):
            d = np.clip(x / np.maximum(s, 1e-300), 1e-12, 1e12)
        if sparse:
            normal = (a.multiply(d) @ a.T).tocsc()
            if not np.all(np.isfinite(normal.data)):
                return salvage(LPResult(
                    status=LPStatus.NUMERICAL_ERROR,
                    x=None,
                    objective=float("nan"),
                    iterations=iteration,
                    backend=_BACKEND_NAME,
                    message="non-finite normal equations",
                ))
            # Same Tikhonov regularisation as the dense path, applied via a
            # sparse identity so the pattern stays factorisable.
            reg = 1e-12 * (1.0 + float(normal.diagonal().sum()) / m)
            eye = sp.eye_array(m, format="csc")
            try:
                factor = splu((normal + reg * eye).tocsc())
                solve_normal = factor.solve
            except (RuntimeError, ValueError):
                try:
                    factor = splu((normal + (reg + 1e-6) * eye).tocsc())
                    solve_normal = factor.solve
                except (RuntimeError, ValueError):
                    return salvage(LPResult(
                        status=LPStatus.NUMERICAL_ERROR,
                        x=None,
                        objective=float("nan"),
                        iterations=iteration,
                        backend=_BACKEND_NAME,
                        message="normal equations not positive definite",
                    ))
        else:
            normal = (a * d) @ a.T
            if not np.all(np.isfinite(normal)):
                return salvage(LPResult(
                    status=LPStatus.NUMERICAL_ERROR,
                    x=None,
                    objective=float("nan"),
                    iterations=iteration,
                    backend=_BACKEND_NAME,
                    message="non-finite normal equations",
                ))
            normal[np.diag_indices_from(normal)] += 1e-12 * (1.0 + np.trace(normal) / m)
            try:
                factor = cho_factor(normal)
            except (LinAlgError, ValueError):
                normal[np.diag_indices_from(normal)] += 1e-6
                try:
                    factor = cho_factor(normal)
                except (LinAlgError, ValueError):
                    return salvage(LPResult(
                        status=LPStatus.NUMERICAL_ERROR,
                        x=None,
                        objective=float("nan"),
                        iterations=iteration,
                        backend=_BACKEND_NAME,
                        message="normal equations not positive definite",
                    ))
            solve_normal = lambda rhs, _f=factor: cho_solve(_f, rhs)  # noqa: E731

        def newton_direction(rxs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Solve the KKT system for a given complementarity residual.

            Raises :class:`_NumericalBreakdown` if the system degenerates
            (tiny s with large residuals — the signature of an infeasible
            or unbounded instance pushed past the numerics).
            """
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                s_safe = np.maximum(s, 1e-300)
                x_safe = np.maximum(x, 1e-300)
                rhs = -r_primal - a @ (d * r_dual) + a @ (rxs / s_safe)
                if not np.all(np.isfinite(rhs)):
                    raise _NumericalBreakdown
                dy = solve_normal(rhs)
                if not np.all(np.isfinite(dy)):
                    raise _NumericalBreakdown
                dx = d * (a.T @ dy + r_dual) - rxs / s_safe
                ds = -(rxs + s * dx) / x_safe
            if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(ds))):
                raise _NumericalBreakdown
            return dx, dy, ds

        try:
            # Predictor (affine-scaling) direction.
            dx_aff, dy_aff, ds_aff = newton_direction(x * s)
            alpha_p_aff = _max_step(x, dx_aff)
            alpha_d_aff = _max_step(s, ds_aff)
            mu_aff = float(
                (x + alpha_p_aff * dx_aff) @ (s + alpha_d_aff * ds_aff)
            ) / n
            sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

            # Corrector direction with centering.
            rxs = x * s + dx_aff * ds_aff - sigma * mu
            dx, dy, ds = newton_direction(rxs)
        except _NumericalBreakdown:
            return salvage(LPResult(
                status=LPStatus.NUMERICAL_ERROR,
                x=None,
                objective=float("nan"),
                iterations=iteration,
                backend=_BACKEND_NAME,
                message="Newton system degenerated (likely infeasible/unbounded)",
            ))

        alpha_p = options.step_fraction * _max_step(x, dx)
        alpha_d = options.step_fraction * _max_step(s, ds)
        x = x + alpha_p * dx
        y = y + alpha_d * dy
        s = s + alpha_d * ds

        if np.any(x <= 0) or np.any(s <= 0):
            return salvage(LPResult(
                status=LPStatus.NUMERICAL_ERROR,
                x=None,
                objective=float("nan"),
                iterations=iteration,
                backend=_BACKEND_NAME,
                message="iterate left the positive orthant",
            ))

    return salvage(LPResult(
        status=LPStatus.ITERATION_LIMIT,
        x=None,
        objective=float("nan"),
        iterations=options.max_iterations,
        backend=_BACKEND_NAME,
        message="no convergence within the iteration cap",
    ))


def solve_interior_point_batch(
    problems: Sequence[Union[LinearProgram, StandardFormLP]],
    options: IPMOptions = IPMOptions(),
) -> List[LPResult]:
    """Solve many independent LPs, one :func:`solve_interior_point` each.

    The generic backend's entry point for batched LP-HTA Step 1: the
    sequential loop is the only generic Mehrotra loop (it also serves the
    fallback ladder), so a batch is a list of solves.

    :param problems: the LPs to solve.
    :param options: shared solver tunables.
    :returns: one :class:`LPResult` per input, in input order.
    """
    return [solve_interior_point(problem, options) for problem in problems]


@traced("lp.interior_point")
def solve_interior_point(
    problem: Union[LinearProgram, StandardFormLP],
    options: IPMOptions = IPMOptions(),
) -> LPResult:
    """Solve an LP with the Mehrotra predictor–corrector method.

    Accepts either a bounded-variable :class:`LinearProgram` (converted to
    standard form internally; the returned ``x`` is in the original variable
    space) or a :class:`StandardFormLP`.

    :param problem: the LP to solve.
    :param options: solver tunables.
    """
    if isinstance(problem, LinearProgram):
        standard = problem.to_standard_form()
        result = _solve_standard_form(standard, options)
        if result.status.ok:
            x = standard.extract_original(result.x)
            return LPResult(
                status=result.status,
                x=x,
                objective=problem.objective(x),
                iterations=result.iterations,
                backend=result.backend,
                message=result.message,
            )
        return result
    return _solve_standard_form(problem, options)
