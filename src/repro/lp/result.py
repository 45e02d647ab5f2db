"""Solver result types shared by all LP backends."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["LPResult", "LPStatus"]


class LPStatus(enum.Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_ERROR = "numerical_error"

    @property
    def ok(self) -> bool:
        """Whether a usable optimal solution was produced."""
        return self is LPStatus.OPTIMAL


@dataclass(frozen=True)
class LPResult:
    """Solution of a linear program.

    :param status: solve outcome; ``x`` and ``objective`` are only
        meaningful when ``status.ok``.
    :param x: primal solution in the *original* variable space.
    :param objective: objective value :math:`c^T x`.
    :param iterations: solver iterations performed.
    :param backend: name of the backend that produced the result.
    :param message: free-form diagnostic detail.
    """

    status: LPStatus
    x: Optional[np.ndarray]
    objective: float
    iterations: int
    backend: str
    message: str = ""

    def require_ok(self) -> np.ndarray:
        """Return ``x``, raising if the solve did not reach optimality."""
        if not self.status.ok or self.x is None:
            raise RuntimeError(
                f"LP solve failed: status={self.status.value} "
                f"backend={self.backend} message={self.message!r}"
            )
        return self.x
