"""Linear-programming substrate, implemented from scratch.

LP-HTA's Step 1 solves the relaxed problem P2 with an interior-point method
(the paper cites Karmarkar [17]).  This package provides:

- :class:`LinearProgram` — a bounded-variable LP and its standard form,
- :func:`solve_interior_point` — a Mehrotra predictor–corrector primal–dual
  interior-point solver (the modern production descendant of [17]),
- :func:`solve_simplex` — a dense two-phase simplex, used for cross-checks
  and for small exact subproblems,
- :func:`solve` — a backend dispatcher (including an optional scipy backend
  used only to validate our solvers in the test suite).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "problem": ("LinearProgram", "StandardFormLP"),
        "result": ("LPResult", "LPStatus"),
        "interior_point": ("solve_interior_point",),
        "simplex": ("solve_simplex",),
        "structured": ("GroupedBoundedLP", "solve_structured"),
        "backends": ("available_backends", "solve"),
    },
)
