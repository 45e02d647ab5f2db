"""LP problem representation and standard-form conversion.

A :class:`LinearProgram` is the bounded-variable form our builders emit:

.. math::

   \\min c^T x \\quad \\text{s.t.} \\quad A_{ub} x \\le b_{ub},
   \\; A_{eq} x = b_{eq}, \\; 0 \\le x \\le u.

Solvers work on :class:`StandardFormLP` (:math:`\\min c^T x`, :math:`Ax=b`,
:math:`x \\ge 0`), produced by :meth:`LinearProgram.to_standard_form`, which
adds one slack per inequality row and one per finite upper bound.

Constraint matrices may be dense :class:`numpy.ndarray`\\ s or SciPy sparse
matrices; the builders emit CSR outside reference mode.  A
sparse :class:`LinearProgram` produces a sparse standard form, whose entries
are *exactly* the dense ones (assembly places coefficients, it never sums
them), so both representations solve bit-identically wherever the solver
performs the same floating-point operations.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Union

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

    #: A constraint matrix: dense ndarray or any SciPy sparse container.
    MatrixLike = Union[np.ndarray, sp.spmatrix, sp.sparray]

__all__ = ["LinearProgram", "StandardFormLP", "is_sparse_matrix"]


def is_sparse_matrix(obj: Any) -> bool:
    """``scipy.sparse.issparse(obj)``, without importing SciPy.

    A SciPy sparse container cannot exist before ``scipy.sparse`` has been
    imported, so while it is absent from ``sys.modules`` the answer is no.
    """
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(obj)


def _as_matrix(mat: MatrixLike) -> MatrixLike:
    """Normalise a constraint block: CSR float for sparse, ndarray float else."""
    if is_sparse_matrix(mat):
        import scipy.sparse as sp

        return sp.csr_array(mat, dtype=float)
    return np.asarray(mat, dtype=float)


@dataclass(frozen=True)
class StandardFormLP:
    """An LP in standard equality form: min c·x, A x = b, x ≥ 0.

    :param c: objective, length n.
    :param a: constraint matrix, shape (m, n).
    :param b: right-hand side, length m.
    :param num_original: how many leading variables map back to the source
        :class:`LinearProgram`'s variables (the rest are slacks).
    """

    c: np.ndarray
    a: MatrixLike
    b: np.ndarray
    num_original: int

    def __post_init__(self) -> None:
        m, n = self.a.shape
        if self.c.shape != (n,):
            raise ValueError(f"c must have length {n}, got {self.c.shape}")
        if self.b.shape != (m,):
            raise ValueError(f"b must have length {m}, got {self.b.shape}")
        if not 0 <= self.num_original <= n:
            raise ValueError("num_original out of range")

    @property
    def num_rows(self) -> int:
        """m, the number of equality constraints."""
        return self.a.shape[0]

    @property
    def num_vars(self) -> int:
        """n, the number of non-negative variables (original + slack)."""
        return self.a.shape[1]

    @property
    def is_sparse(self) -> bool:
        """Whether the constraint matrix is a SciPy sparse container."""
        return is_sparse_matrix(self.a)

    def extract_original(self, x: np.ndarray) -> np.ndarray:
        """Project a standard-form solution back to the original variables."""
        return np.asarray(x[: self.num_original], dtype=float).copy()


class LinearProgram:
    """A bounded-variable linear program.

    Any of the constraint blocks may be omitted.  Variables are always
    non-negative; pass ``np.inf`` entries in ``upper_bounds`` for unbounded
    variables.

    :param c: objective coefficients (minimisation), length n.
    :param a_ub: inequality matrix (rows: constraints), or ``None``.
    :param b_ub: inequality right-hand sides.
    :param a_eq: equality matrix, or ``None``.
    :param b_eq: equality right-hand sides.
    :param upper_bounds: per-variable upper bounds, or ``None`` for all-∞.
    """

    def __init__(
        self,
        c: np.ndarray,
        a_ub: Optional[MatrixLike] = None,
        b_ub: Optional[np.ndarray] = None,
        a_eq: Optional[MatrixLike] = None,
        b_eq: Optional[np.ndarray] = None,
        upper_bounds: Optional[np.ndarray] = None,
    ) -> None:
        self.c = np.asarray(c, dtype=float)
        if self.c.ndim != 1:
            raise ValueError("c must be one-dimensional")
        n = self.c.shape[0]

        if (a_ub is None) != (b_ub is None):
            raise ValueError("a_ub and b_ub must be given together")
        if (a_eq is None) != (b_eq is None):
            raise ValueError("a_eq and b_eq must be given together")

        self.a_ub = None if a_ub is None else _as_matrix(a_ub)
        self.b_ub = None if b_ub is None else np.asarray(b_ub, dtype=float)
        self.a_eq = None if a_eq is None else _as_matrix(a_eq)
        self.b_eq = None if b_eq is None else np.asarray(b_eq, dtype=float)

        if self.a_ub is not None:
            if self.a_ub.ndim != 2 or self.a_ub.shape[1] != n:
                raise ValueError(f"a_ub must have {n} columns")
            if self.b_ub.shape != (self.a_ub.shape[0],):
                raise ValueError("b_ub length must match a_ub rows")
        if self.a_eq is not None:
            if self.a_eq.ndim != 2 or self.a_eq.shape[1] != n:
                raise ValueError(f"a_eq must have {n} columns")
            if self.b_eq.shape != (self.a_eq.shape[0],):
                raise ValueError("b_eq length must match a_eq rows")

        if upper_bounds is None:
            self.upper_bounds = np.full(n, np.inf)
        else:
            self.upper_bounds = np.asarray(upper_bounds, dtype=float)
            if self.upper_bounds.shape != (n,):
                raise ValueError(f"upper_bounds must have length {n}")
            if np.any(self.upper_bounds < 0):
                raise ValueError("upper bounds must be non-negative")

    @property
    def num_vars(self) -> int:
        """Number of decision variables."""
        return self.c.shape[0]

    @property
    def is_sparse(self) -> bool:
        """Whether any constraint block is a SciPy sparse container."""
        return is_sparse_matrix(self.a_ub) or is_sparse_matrix(self.a_eq)

    def objective(self, x: np.ndarray) -> float:
        """Evaluate :math:`c^T x`."""
        return float(self.c @ x)

    def residuals(self, x: np.ndarray) -> dict:
        """Constraint violations of ``x`` (all ≤ tol means feasible).

        Returns a dict with the maximum violation per constraint family.
        """
        out = {
            "lower": float(np.max(np.maximum(-x, 0.0), initial=0.0)),
            "upper": float(
                np.max(np.maximum(x - self.upper_bounds, 0.0), initial=0.0)
            ),
        }
        if self.a_ub is not None:
            out["ub"] = float(
                np.max(np.maximum(self.a_ub @ x - self.b_ub, 0.0), initial=0.0)
            )
        if self.a_eq is not None:
            out["eq"] = float(np.max(np.abs(self.a_eq @ x - self.b_eq), initial=0.0))
        return out

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Whether ``x`` satisfies every constraint within ``tol``."""
        return all(value <= tol for value in self.residuals(x).values())

    def to_standard_form(self) -> StandardFormLP:
        """Convert to equality standard form by adding slack variables.

        Column layout: original variables, then one slack per inequality
        row, then one slack per *finite* upper bound.
        """
        n = self.num_vars
        num_ub_rows = 0 if self.a_ub is None else self.a_ub.shape[0]
        finite_bounds = np.flatnonzero(np.isfinite(self.upper_bounds))
        num_bound_rows = finite_bounds.shape[0]
        num_eq_rows = 0 if self.a_eq is None else self.a_eq.shape[0]

        total_rows = num_ub_rows + num_bound_rows + num_eq_rows
        total_vars = n + num_ub_rows + num_bound_rows

        b = np.zeros(total_rows)
        c = np.zeros(total_vars)
        c[:n] = self.c

        if self.is_sparse:
            import scipy.sparse as sp

            # Same layout as the dense branch, assembled as COO triplets.
            # Assembly only *places* coefficients (no summation), so the
            # resulting matrix is entry-for-entry equal to the dense one.
            rows_parts = []
            cols_parts = []
            data_parts = []
            row = 0
            if self.a_ub is not None:
                coo = sp.coo_array(self.a_ub)
                rows_parts.append(coo.row + row)
                cols_parts.append(coo.col)
                data_parts.append(coo.data)
                slack = np.arange(num_ub_rows)
                rows_parts.append(slack + row)
                cols_parts.append(slack + n)
                data_parts.append(np.ones(num_ub_rows))
                b[row : row + num_ub_rows] = self.b_ub
                row += num_ub_rows
            if num_bound_rows:
                bound_rows = np.arange(num_bound_rows)
                rows_parts.append(bound_rows + row)
                cols_parts.append(finite_bounds)
                data_parts.append(np.ones(num_bound_rows))
                rows_parts.append(bound_rows + row)
                cols_parts.append(bound_rows + n + num_ub_rows)
                data_parts.append(np.ones(num_bound_rows))
                b[row : row + num_bound_rows] = self.upper_bounds[finite_bounds]
                row += num_bound_rows
            if self.a_eq is not None:
                coo = sp.coo_array(self.a_eq)
                rows_parts.append(coo.row + row)
                cols_parts.append(coo.col)
                data_parts.append(coo.data)
                b[row : row + num_eq_rows] = self.b_eq
                row += num_eq_rows
            if rows_parts:
                coords = (
                    np.concatenate(rows_parts),
                    np.concatenate(cols_parts),
                )
                a = sp.csr_array(
                    sp.coo_array(
                        (np.concatenate(data_parts), coords),
                        shape=(total_rows, total_vars),
                    )
                )
            else:
                a = sp.csr_array((total_rows, total_vars), dtype=float)
            return StandardFormLP(c=c, a=a, b=b, num_original=n)

        a = np.zeros((total_rows, total_vars))

        row = 0
        if self.a_ub is not None:
            a[row : row + num_ub_rows, :n] = self.a_ub
            a[row : row + num_ub_rows, n : n + num_ub_rows] = np.eye(num_ub_rows)
            b[row : row + num_ub_rows] = self.b_ub
            row += num_ub_rows
        for offset, var in enumerate(finite_bounds):
            a[row, var] = 1.0
            a[row, n + num_ub_rows + offset] = 1.0
            b[row] = self.upper_bounds[var]
            row += 1
        if self.a_eq is not None:
            a[row : row + num_eq_rows, :n] = self.a_eq
            b[row : row + num_eq_rows] = self.b_eq
            row += num_eq_rows

        return StandardFormLP(c=c, a=a, b=b, num_original=n)
