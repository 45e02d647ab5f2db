"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Complements the interior-point solver: the simplex produces vertex (basic)
solutions, gives clean infeasible/unbounded verdicts, and is the reference
implementation our property-based tests cross-check the IPM against.
Suitable for the small and mid-sized LPs in this library; the interior-point
method is the default for the large relaxations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from repro.lp.problem import LinearProgram, StandardFormLP, is_sparse_matrix
from repro.lp.result import LPResult, LPStatus
from repro.obs.tracer import traced

__all__ = ["SimplexOptions", "solve_simplex"]

_BACKEND_NAME = "simplex"


@dataclass(frozen=True)
class SimplexOptions:
    """Tunables for the simplex solver.

    :param tolerance: feasibility / optimality tolerance.
    :param max_iterations: pivot cap across both phases (0 = automatic).
    """

    tolerance: float = 1e-9
    max_iterations: int = 0

    def iteration_cap(self, num_rows: int, num_vars: int) -> int:
        """The pivot budget: explicit cap, or a generous size-based default."""
        if self.max_iterations > 0:
            return self.max_iterations
        return 50 * (num_rows + num_vars) + 1000


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Gauss–Jordan pivot of ``tableau`` on (row, col), in place.

    One rank-1 update instead of a Python loop over rows: zeroing the
    pivot row's own factor makes the outer product a no-op there.
    """
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])


def _run_simplex(
    tableau: np.ndarray,
    basis: List[int],
    num_solve_vars: int,
    tolerance: float,
    max_iterations: int,
) -> Tuple[str, int]:
    """Iterate pivots until optimality/unboundedness; returns (verdict, count).

    The last tableau row is the objective row (reduced costs, minimisation);
    the last column is the right-hand side.  Bland's rule: entering variable
    is the lowest-index column with a negative reduced cost, leaving variable
    is the lowest-index row among minimum-ratio candidates.
    """
    num_rows = tableau.shape[0] - 1
    for iteration in range(max_iterations):
        reduced = tableau[-1, :num_solve_vars]
        candidates = np.flatnonzero(reduced < -tolerance)
        if candidates.size == 0:
            return "optimal", iteration
        col = int(candidates[0])

        ratios = np.full(num_rows, np.inf)
        column = tableau[:num_rows, col]
        positive = column > tolerance
        ratios[positive] = tableau[:num_rows, -1][positive] / column[positive]
        if not np.any(np.isfinite(ratios)):
            return "unbounded", iteration
        best = float(np.min(ratios))
        # Bland tie-break: among minimum-ratio rows, leave the basic
        # variable with the smallest index.
        tied = np.flatnonzero(ratios <= best + tolerance)
        row = int(min(tied, key=lambda r: basis[r]))

        _pivot(tableau, row, col)
        basis[row] = col
    return "iteration_limit", max_iterations


def _solve_standard_form(lp: StandardFormLP, options: SimplexOptions) -> LPResult:
    """Two-phase simplex on a standard-form LP."""
    # The tableau method is inherently dense; densify sparse inputs up front.
    a = lp.a.toarray() if is_sparse_matrix(lp.a) else lp.a.copy()
    b = lp.b.copy()
    c = lp.c
    m, n = a.shape

    if n == 0:
        feasible = bool(np.allclose(b, 0.0))
        return LPResult(
            status=LPStatus.OPTIMAL if feasible else LPStatus.INFEASIBLE,
            x=np.zeros(0) if feasible else None,
            objective=0.0,
            iterations=0,
            backend=_BACKEND_NAME,
        )

    # Normalise to b >= 0 so the artificial basis is feasible.
    negative = b < 0
    a[negative] *= -1.0
    b[negative] *= -1.0

    cap = options.iteration_cap(m, n)

    # ---- Phase 1: minimise the sum of artificial variables -------------
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    # Objective row: sum of artificials, expressed in the non-basic vars.
    tableau[-1, :n] = -a.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    basis = list(range(n, n + m))

    verdict, phase1_iters = _run_simplex(
        tableau, basis, n + m, options.tolerance, cap
    )
    if verdict == "iteration_limit":
        return LPResult(
            LPStatus.ITERATION_LIMIT, None, float("nan"), phase1_iters, _BACKEND_NAME,
            message="phase 1 hit the pivot cap",
        )
    phase1_value = -tableau[-1, -1]
    if phase1_value > 1e-7:
        return LPResult(
            LPStatus.INFEASIBLE, None, float("nan"), phase1_iters, _BACKEND_NAME,
            message=f"phase-1 optimum {phase1_value:.3e} > 0",
        )

    # Drive remaining artificials out of the basis (degenerate rows).
    for row in range(m):
        if basis[row] >= n:
            pivot_col = None
            for col in range(n):
                if abs(tableau[row, col]) > options.tolerance:
                    pivot_col = col
                    break
            if pivot_col is None:
                # Redundant constraint; the artificial stays at zero.
                continue
            _pivot(tableau, row, pivot_col)
            basis[row] = pivot_col

    # ---- Phase 2: original objective over the feasible basis -----------
    phase2 = np.zeros((m + 1, n + 1))
    phase2[:m, :n] = tableau[:m, :n]
    phase2[:m, -1] = tableau[:m, -1]
    phase2[-1, :n] = c
    # Express the objective in terms of the non-basic variables.
    for row, var in enumerate(basis):
        if var < n and phase2[-1, var] != 0.0:
            phase2[-1] -= phase2[-1, var] * phase2[row]

    verdict, phase2_iters = _run_simplex(phase2, basis, n, options.tolerance, cap)
    iterations = phase1_iters + phase2_iters
    if verdict == "unbounded":
        return LPResult(
            LPStatus.UNBOUNDED, None, float("-inf"), iterations, _BACKEND_NAME
        )
    if verdict == "iteration_limit":
        return LPResult(
            LPStatus.ITERATION_LIMIT, None, float("nan"), iterations, _BACKEND_NAME,
            message="phase 2 hit the pivot cap",
        )

    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            x[var] = phase2[row, -1]
    x = np.maximum(x, 0.0)  # clean up -1e-17 style noise
    return LPResult(
        status=LPStatus.OPTIMAL,
        x=x,
        objective=float(c @ x),
        iterations=iterations,
        backend=_BACKEND_NAME,
    )


@traced("lp.simplex")
def solve_simplex(
    problem: Union[LinearProgram, StandardFormLP],
    options: SimplexOptions = SimplexOptions(),
) -> LPResult:
    """Solve an LP with the two-phase primal simplex method.

    Accepts either a bounded-variable :class:`LinearProgram` (converted to
    standard form; the returned ``x`` is in the original variable space) or
    a :class:`StandardFormLP`.

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
