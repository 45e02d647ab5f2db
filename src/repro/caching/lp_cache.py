"""Keyed cache of LP solve results.

Grid sweeps and repeated figure cells frequently rebuild *identical*
relaxations (same profile point, same seed, same algorithm).  Solving the
same LP twice is pure waste, so :func:`repro.lp.backends.solve` accepts an
:class:`LPSolveCache`: the problem's arrays are hashed into a fingerprint
and previously solved instances are returned without touching a solver.

The fingerprint covers every array that defines the problem (objective,
both constraint blocks, upper bounds) plus the backend name, hashed with
SHA-256 over the raw float64 buffers — two problems share a key only when
they are bit-identical, so a hit can simply return the stored
:class:`~repro.lp.result.LPResult` (results are immutable).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.caching.cache import CacheStats
from repro.context import Telemetry
from repro.lp.problem import is_sparse_matrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lp.problem import LinearProgram
    from repro.lp.result import LPResult
    from repro.lp.structured import GroupedBoundedLP

__all__ = [
    "LPSolveCache",
    "fingerprint_grouped",
    "fingerprint_problem",
]


def _update(digest: "hashlib._Hash", label: bytes, array: Optional[np.ndarray]) -> None:
    """Feed one (possibly absent) array into the digest, unambiguously.

    Sparse matrices are hashed over their canonical CSR structure (shape,
    indptr, indices, data) so two solves with the same sparse constraints
    share a key — and never collide with a dense matrix of equal values.
    """
    digest.update(label)
    if array is None:
        digest.update(b"<none>")
        return
    if is_sparse_matrix(array):
        import scipy.sparse as sp

        csr = sp.csr_array(array, dtype=float)
        digest.update(b"<csr>")
        digest.update(str(csr.shape).encode())
        digest.update(np.ascontiguousarray(csr.indptr).tobytes())
        digest.update(np.ascontiguousarray(csr.indices).tobytes())
        digest.update(np.ascontiguousarray(csr.data, dtype=float).tobytes())
        return
    arr = np.ascontiguousarray(array, dtype=float)
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())


def fingerprint_problem(problem: "LinearProgram", method: str) -> str:
    """A collision-resistant key for (problem, backend).

    Two calls produce the same key iff every defining array of the problem
    is bit-identical and the backend name matches.
    """
    digest = hashlib.sha256()
    digest.update(method.encode())
    _update(digest, b"c", problem.c)
    _update(digest, b"a_ub", problem.a_ub)
    _update(digest, b"b_ub", problem.b_ub)
    _update(digest, b"a_eq", problem.a_eq)
    _update(digest, b"b_eq", problem.b_eq)
    _update(digest, b"ub", problem.upper_bounds)
    return digest.hexdigest()


def fingerprint_grouped(lp: "GroupedBoundedLP", method: str) -> str:
    """The :func:`fingerprint_problem` analogue for the P2-shaped form.

    Covers the objective, the group partition, both coupling blocks and
    the bounds — everything :class:`~repro.lp.structured.GroupedBoundedLP`
    is defined by — so the structured IPM path can share the same cache as
    the generic dispatcher.
    """
    digest = hashlib.sha256()
    digest.update(method.encode())
    _update(digest, b"c", lp.c)
    _update(digest, b"gi", lp.group_index)
    _update(digest, b"gr", lp.group_rhs)
    _update(digest, b"ca", lp.coupling_a)
    _update(digest, b"cb", lp.coupling_b)
    _update(digest, b"ub", lp.upper)
    return digest.hexdigest()


class LPSolveCache:
    """LRU cache of LP results keyed by problem fingerprint.

    :param capacity: maximum number of stored results (> 0).
    :param telemetry: optional :class:`~repro.context.Telemetry` sink;
        every lookup is counted there as a hit or miss, so caches created
        by a :class:`~repro.context.RunContext` report into the same
        counters as the solves themselves.
    """

    def __init__(
        self, capacity: int = 128, telemetry: Optional[Telemetry] = None
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.stats = CacheStats()
        self.telemetry = telemetry
        self._entries: "OrderedDict[str, LPResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> Optional["LPResult"]:
        """The cached result for ``key``, or ``None`` (counts hit/miss)."""
        result = self._entries.get(key)
        if self.telemetry is not None:
            self.telemetry.metrics.incr(
                "lp.cache.hits" if result is not None else "lp.cache.misses"
            )
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._entries.move_to_end(key)
        return result

    def insert(self, key: str, result: "LPResult") -> None:
        """Store a result, evicting the least recently used past capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = result
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the stats survive)."""
        self._entries.clear()
