"""Structured interior-point solver for P2-shaped linear programs.

The relaxation P2 (Section III-A) has a very particular shape:

.. math::

   \\min c^T x \\quad \\text{s.t.} \\quad
   \\sum_{i \\in g} x_i = b_g \\; \\forall g, \\quad
   R x \\le r, \\quad 0 \\le x \\le u,

where the groups *g* partition the variables (one group per task: C4) and
the coupling block *R* has only a few rows (one per device plus one for the
base station: C2/C3).  A generic dense solver pays O((nm)³) per iteration;
here the normal-equations matrix :math:`A \\Theta A^T` is block
``[[diagonal, U], [Uᵀ, small]]``, so each Newton step costs
O(n·K + K³) with K = #coupling rows — effectively linear in the number of
tasks.  This is what lets the figure benches sweep to 900 tasks.

The algorithm is the same Mehrotra predictor–corrector as
:mod:`repro.lp.interior_point`, extended with native variable upper bounds
(no slack blow-up) following the standard bounded-variable derivation
(Wright, *Primal-Dual Interior-Point Methods*, ch. 10).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.context import current_context
from repro.lp._structured_reference import solve_structured_reference
from repro.lp.result import LPResult, LPStatus

__all__ = [
    "GroupedBoundedLP",
    "StructuredIPMOptions",
    "solve_structured",
    "solve_structured_batch",
]

_BACKEND_NAME = "structured-ipm"


@dataclass(frozen=True)
class StructuredIPMOptions:
    """Tunables for the structured solver.

    :param tolerance: relative residual / complementarity target.  The
        default stops at 1e-8: the scaling-matrix clipping puts the
        achievable floor near 1e-9, where the last digits cost dozens of
        stalled iterations for nothing the rounding step could ever see.
    :param max_iterations: iteration cap.
    :param step_fraction: damping of the step to the boundary.
    """

    tolerance: float = 1e-8
    max_iterations: int = 200
    step_fraction: float = 0.9995


class GroupedBoundedLP:
    """A P2-shaped LP: partitioned equality groups + few coupling rows.

    :param c: objective, length n.
    :param group_index: for each variable, the index of its equality group
        (every variable belongs to exactly one group).
    :param group_rhs: right-hand side :math:`b_g` per group.
    :param coupling_a: coupling inequality matrix, shape (K, n); may be
        empty (K = 0).
    :param coupling_b: coupling right-hand sides, length K.
    :param upper: per-variable upper bounds (np.inf allowed).
    """

    def __init__(
        self,
        c: np.ndarray,
        group_index: np.ndarray,
        group_rhs: np.ndarray,
        coupling_a: Optional[np.ndarray] = None,
        coupling_b: Optional[np.ndarray] = None,
        upper: Optional[np.ndarray] = None,
    ) -> None:
        self.c = np.asarray(c, dtype=float)
        n = self.c.shape[0]
        self.group_index = np.asarray(group_index, dtype=int)
        if self.group_index.shape != (n,):
            raise ValueError("group_index must map every variable")
        self.group_rhs = np.asarray(group_rhs, dtype=float)
        num_groups = self.group_rhs.shape[0]
        if num_groups == 0:
            raise ValueError("need at least one equality group")
        if self.group_index.min(initial=0) < 0 or (
            n > 0 and self.group_index.max() >= num_groups
        ):
            raise ValueError("group_index out of range")

        if coupling_a is None:
            coupling_a = np.zeros((0, n))
            coupling_b = np.zeros(0)
        self.coupling_a = np.asarray(coupling_a, dtype=float)
        self.coupling_b = np.asarray(coupling_b, dtype=float)
        if self.coupling_a.shape[1] != n:
            raise ValueError(f"coupling_a must have {n} columns")
        if self.coupling_b.shape != (self.coupling_a.shape[0],):
            raise ValueError("coupling_b length must match coupling_a rows")

        self.upper = (
            np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
        )
        if self.upper.shape != (n,):
            raise ValueError(f"upper must have length {n}")
        if np.any(self.upper <= 0):
            raise ValueError("upper bounds must be positive (use np.inf for none)")

    @property
    def num_vars(self) -> int:
        """n, the number of decision variables."""
        return self.c.shape[0]

    @property
    def num_groups(self) -> int:
        """Number of equality groups."""
        return self.group_rhs.shape[0]

    @property
    def num_coupling(self) -> int:
        """K, the number of coupling inequality rows."""
        return self.coupling_a.shape[0]

    def group_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-group sums of a per-variable vector (G·values)."""
        return np.bincount(self.group_index, weights=values, minlength=self.num_groups)

    def objective(self, x: np.ndarray) -> float:
        """Evaluate :math:`c^T x`."""
        return float(self.c @ x)

    def residuals(self, x: np.ndarray) -> dict:
        """Max violation per constraint family for a candidate ``x``."""
        out = {
            "lower": float(np.max(np.maximum(-x, 0.0), initial=0.0)),
            "upper": float(np.max(np.maximum(x - self.upper, 0.0), initial=0.0)),
            "groups": float(
                np.max(np.abs(self.group_sums(x) - self.group_rhs), initial=0.0)
            ),
        }
        if self.num_coupling:
            out["coupling"] = float(
                np.max(
                    np.maximum(self.coupling_a @ x - self.coupling_b, 0.0), initial=0.0
                )
            )
        return out

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Whether ``x`` satisfies every constraint within ``tol``."""
        return all(v <= tol for v in self.residuals(x).values())


def solve_structured(
    lp: GroupedBoundedLP, options: StructuredIPMOptions = StructuredIPMOptions()
) -> LPResult:
    """Solve one :class:`GroupedBoundedLP` with the structured Mehrotra IPM.

    A batch of one: :func:`solve_structured_batch` is the only optimised
    loop.  In reference mode the seed solver runs instead.

    :param lp: the structured LP.
    :param options: solver tunables.
    """
    if current_context().reference:
        # Differential-testing / benchmarking hook: run the seed solver.
        return solve_structured_reference(lp, options)
    return solve_structured_batch([lp], options)[0]


#: Rows of :attr:`_Layout.dots`, one per-block dot product each: the
#: per-variable family (w·v, x·z, r_u·r_u, r_dx·r_dx), the per-coupling
#: family (s·z_s, r_c·r_c, r_ds·r_ds) and the per-group r_g·r_g.  The
#: affine-step dots reuse rows w·v, x·z and s·z_s.
_WV, _XZ, _RU, _RDX, _SZ, _RC, _RDS, _RG = range(8)


def _segments(*families: np.ndarray):
    """``(starts, nonempty)`` for :func:`_segment_min` over the
    concatenation of per-block families (each a per-block size array): the
    ``reduceat`` starts of the non-empty segments, and which segments
    those are (None when none is empty)."""
    sizes = np.concatenate(families)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    nonempty = sizes > 0
    if nonempty.all():
        return starts, None
    return starts[nonempty], nonempty


def _segment_min(values: np.ndarray, starts: np.ndarray, nonempty) -> np.ndarray:
    """Per-block minimum of a concatenated vector, +inf for an empty block.

    ``reduceat`` returns an element rather than the identity for an empty
    segment, so empty segments are left out of ``starts`` and filled here.
    """
    if nonempty is None:
        return np.minimum.reduceat(values, starts)
    out = np.full(nonempty.shape[0], np.inf)
    if starts.size:
        out[nonempty] = np.minimum.reduceat(values, starts)
    return out


class _Group:
    """A run of same-shape blocks: B blocks of K coupling rows, n variables,
    m equality groups and nb bounded variables each.

    Holds the run's constant stacks — coupling rows ``r_mat`` (B, K, n)
    and group indices ``gi`` (B, 1, n) — its scaled rows ``rt`` and, once a
    :class:`_Layout` places the run, ``(B, …)`` views of that layout's
    buffers, so every per-block product of an iteration is one stacked
    call for the run.
    """

    __slots__ = (
        "count", "k", "n", "m", "nb", "r_mat", "r_t", "gi", "u_rows", "u_len",
        "v_in", "theta_in", "k_in", "theta_s_in", "g_in",
        "n_out", "k_out", "k_out2", "g_out", "schur", "schur_diag",
        "rt", "ut", "u",
    )

    def __init__(
        self,
        shape,
        r_mat: Optional[np.ndarray],
        gi: np.ndarray,
        rt: Optional[np.ndarray] = None,
    ) -> None:
        self.k, self.n, self.m, self.nb = shape
        self.count = gi.shape[0]
        self.r_mat = r_mat
        self.gi = gi
        if self.k:
            self.r_t = r_mat.transpose(0, 2, 1)
            self.rt = np.empty(r_mat.shape) if rt is None else rt
            rows = np.arange(self.count * self.k).reshape(self.count, self.k, 1)
            self.u_rows = rows * self.m
            self.u_len = self.count * self.k * self.m

    def take(self, keep: np.ndarray) -> "_Group":
        """The run's kept blocks (itself when it keeps all of them).

        The survivors' coupling rows are gathered into the leading rows of
        the ``rt`` scratch stack, and the old coupling stack becomes the
        new scratch: compaction allocates no stack.
        """
        if keep.all():
            return self
        shape = (self.k, self.n, self.m, self.nb)
        if not self.k:
            return _Group(shape, None, self.gi[keep])
        kept = np.flatnonzero(keep)
        count = kept.shape[0]
        r_mat = np.take(self.r_mat, kept, axis=0, out=self.rt[:count], mode="clip")
        return _Group(shape, r_mat, self.gi[kept], self.r_mat[:count])


class _Layout:
    """Where each active block sits in the compacted state vectors.

    Blocks are ordered by shape, so each :class:`_Group` is a contiguous
    run in every concatenated family.  Built once up front and again only
    when blocks freeze: the per-iteration loop never re-derives offsets,
    buffers or views.  Operands of the stacked products are copied into
    ``*_in`` buffers and results land in ``*_out`` buffers, so the views
    outlive the state vectors the loop rebinds.  A rebuilt layout takes
    leading slices of its predecessor's operand, result and dot buffers
    (``pool``): the active set only shrinks, so compaction allocates none
    of them.
    """

    def __init__(
        self,
        groups: List[_Group],
        per_block: Sequence[np.ndarray],
        c: np.ndarray,
        u: np.ndarray,
        group_rhs: np.ndarray,
        coupling_b: np.ndarray,
        metrics,
        pool: Optional[dict] = None,
    ) -> None:
        self.groups = groups
        self.per_block = per_block
        self.idx, self.norm_b, self.norm_c = per_block
        self.c = c
        self.u = u
        self.group_rhs = group_rhs
        self.coupling_b = coupling_b
        self.metrics = metrics
        self.bounded = np.isfinite(u)
        self.all_bounded = bool(self.bounded.all())
        counts = [grp.count for grp in groups]
        self.num_blocks = sum(counts)
        self.n_sizes = np.repeat([grp.n for grp in groups], counts)
        self.k_sizes = np.repeat([grp.k for grp in groups], counts)
        self.g_sizes = np.repeat([grp.m for grp in groups], counts)
        # Complementarity pairs per block: x·z, s·z_s and the bounded w·v.
        self.num_comp = np.repeat(
            [float(grp.n + grp.k + grp.nb) for grp in groups], counts
        )
        self.v_off = np.concatenate(([0], np.cumsum(self.n_sizes))).tolist()
        n_tot = self.v_off[-1]
        k_tot = int(self.k_sizes.sum())
        self.g_tot = int(self.g_sizes.sum())
        b_tot = int(self.bounded.sum())
        n, k = self.n_sizes, self.k_sizes
        # Step-length families (x, s, w | z, z_s, v) and orthant families
        # (x, z, s, z_s), each concatenated family-major.
        self.step_seg = _segments(n, k, n, n, k, n)
        self.orthant_seg = _segments(n, n, k, k)
        # Which step ratios test a bound (w and v only where bounded).
        self.step_mask = None
        if not self.all_bounded:
            free_n = np.ones(n_tot, dtype=bool)
            free_k = np.ones(k_tot, dtype=bool)
            self.step_mask = np.concatenate(
                (free_n, free_k, self.bounded, free_n, free_k, self.bounded)
            )

        self.pool = {} if pool is None else pool

        def buffer(name, *shape):
            base = self.pool.get(name)
            if base is None:
                base = self.pool[name] = np.empty(shape)
            return base[..., : shape[-1]]

        # Operand and result buffers of the stacked products.  K = 0 runs
        # never write theirs, so their result slices stay zero.
        self.v_in, self.n_out = buffer("v_in", n_tot), buffer("n_out", n_tot)
        self.k_in, self.k_out = buffer("k_in", k_tot), buffer("k_out", k_tot)
        self.k_out2, self.rhs = buffer("k_out2", k_tot), buffer("rhs", k_tot)
        self.g_in, self.g_out = buffer("g_in", self.g_tot), buffer("g_out", self.g_tot)
        self.n_out.fill(0.0)
        self.g_out.fill(0.0)
        # Dot operands, one row per dot: left and right rows per family
        # (w, x, r_u, r_dx | v, z, r_u, r_dx and s, r_c, r_ds | z_s, r_c,
        # r_ds); r_g is its own right operand.  When some variable is
        # unbounded, w and v get a buffer of their bounded entries and the
        # per-variable dots start at x.  A run whose family is empty writes
        # no dot, leaving its rows at the empty dot's 0.0.
        self.dot_n = buffer("dot_n", 2, 4, n_tot)
        self.dot_k = buffer("dot_k", 2, 3, k_tot)
        self.dot_g = buffer("dot_g", 1, self.g_tot)
        dot_wv = (
            self.dot_n[:, :1] if self.all_bounded else buffer("dot_wv", 2, 1, b_tot)
        )
        # The named rows the loop fills, and the squares' right operands.
        (left_n, right_n), (left_k, right_k) = self.dot_n, self.dot_k
        self.w_row, self.v_row = dot_wv[:, 0]
        self.x_row, self.z_row = left_n[_XZ], right_n[_XZ]
        self.ru_row, self.rdx_row = left_n[_RU], left_n[_RDX]
        self.s_row, self.zs_row = left_k[0], right_k[0]
        self.rc_row, self.rds_row = left_k[1], left_k[2]
        self.rg_row = self.dot_g[0]
        self.squares = ((right_n[_RU:], left_n[_RU:]), (right_k[1:], left_k[1:]))
        first = _WV if self.all_bounded else _XZ
        self.dots = buffer("dots", 8, self.num_blocks)
        self.dots.fill(0.0)
        self.conv_dots = []  # (left, right, out) of the convergence test
        self.aff_dots = []   # ... of the affine-step complementarity

        gi_parts = []
        self.k_groups = [grp for grp in groups if grp.k]
        b0 = v0 = k0 = g0 = c0 = 0
        for grp in groups:
            size, n_b, k_b, m_b, nb_b = grp.count, grp.n, grp.k, grp.m, grp.nb
            b1, v1, k1 = b0 + size, v0 + size * n_b, k0 + size * k_b
            g1, c1 = g0 + size * m_b, c0 + size * nb_b
            metrics.observe("lp.shape_group", float(size))
            offsets = g0 + m_b * np.arange(size)
            gi_parts.append((grp.gi[:, 0] + offsets[:, None]).ravel())
            if n_b:
                left, right = self.dot_n[:, first:, v0:v1].reshape(
                    2, 4 - first, size, n_b
                )
                self.conv_dots.append((left, right, self.dots[first:_SZ, b0:b1]))
                aff = _RU - first
                self.aff_dots.append(
                    (left[:aff], right[:aff], self.dots[first:_RU, b0:b1])
                )
            if k_b:
                left, right = self.dot_k[:, :, k0:k1].reshape(2, 3, size, k_b)
                self.conv_dots.append((left, right, self.dots[_SZ:_RG, b0:b1]))
                self.aff_dots.append((left[:1], right[:1], self.dots[_SZ:_RC, b0:b1]))
            square = self.dot_g[:, g0:g1].reshape(1, size, m_b)
            self.conv_dots.append((square, square, self.dots[_RG:, b0:b1]))
            if nb_b and not self.all_bounded:
                left, right = dot_wv[:, :, c0:c1].reshape(2, 1, size, nb_b)
                out = self.dots[_WV:_XZ, b0:b1]
                self.conv_dots.append((left, right, out))
                self.aff_dots.append((left, right, out))
            if k_b:
                grp.v_in = self.v_in[v0:v1].reshape(size, n_b, 1)
                grp.theta_in = self.v_in[v0:v1].reshape(size, 1, n_b)
                grp.n_out = self.n_out[v0:v1].reshape(size, n_b, 1)
                grp.k_in = self.k_in[k0:k1].reshape(size, k_b, 1)
                grp.theta_s_in = self.k_in[k0:k1].reshape(size, k_b)
                grp.k_out = self.k_out[k0:k1].reshape(size, k_b, 1)
                grp.k_out2 = self.k_out2[k0:k1].reshape(size, k_b, 1)
                grp.g_in = self.g_in[g0:g1].reshape(size, m_b, 1)
                grp.g_out = self.g_out[g0:g1].reshape(size, m_b, 1)
            b0, v0, k0, g0, c0 = b1, v1, k1, g1, c1
        self.gi_off = np.concatenate(gi_parts)

        # The Schur systems of equal-K runs (adjacent: the order is by K
        # first) share one stack, solved by one ``np.linalg.solve``; each
        # run builds its matrices in its own slice.
        self.k_stacks = []
        k0 = 0
        for size_k, run in itertools.groupby(self.k_groups, key=lambda grp: grp.k):
            run = list(run)
            total = sum(grp.count for grp in run)
            schur = np.empty((total, size_k, size_k))
            diag = schur.reshape(total, size_k * size_k)[:, :: size_k + 1]
            j = 0
            for grp in run:
                grp.schur = schur[j : j + grp.count]
                grp.schur_diag = diag[j : j + grp.count]
                j += grp.count
            k1 = k0 + total * size_k
            self.k_stacks.append((
                schur,
                self.rhs[k0:k1].reshape(total, size_k, 1),
                self.k_in[k0:k1].reshape(total, size_k, 1),
            ))
            k0 = k1

    def spread(self, per_block: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Per-block values expanded to per-element (a batch of one
        broadcasts its length-1 array instead)."""
        return per_block if self.num_blocks == 1 else np.repeat(per_block, sizes)

    def compact(self, keep: np.ndarray, n_arrays, k_arrays, g_arrays, b_arrays):
        """The layout of the kept blocks, and each per-variable,
        per-coupling, per-group and per-block array gathered down to the
        kept blocks' slices (before the new layout reuses the buffers)."""
        keep_v = np.repeat(keep, self.n_sizes)
        keep_k = np.repeat(keep, self.k_sizes)
        keep_g = np.repeat(keep, self.g_sizes)
        gathered = (
            [a[keep_v] for a in n_arrays],
            [a[keep_k] for a in k_arrays],
            [a[keep_g] for a in g_arrays],
            [a[keep] for a in b_arrays],
        )
        groups = []
        b0 = 0
        for grp in self.groups:
            kept = keep[b0 : b0 + grp.count]
            if kept.any():
                groups.append(grp.take(kept))
            grp.ut = grp.u = None  # free the last Schur build early
            b0 += grp.count
        lay = _Layout(
            groups,
            [a[keep] for a in self.per_block],
            self.c[keep_v],
            self.u[keep_v],
            self.group_rhs[keep_g],
            self.coupling_b[keep_k],
            self.metrics,
            self.pool,
        )
        return (lay,) + gathered


def solve_structured_batch(
    blocks: Sequence[GroupedBoundedLP],
    options: StructuredIPMOptions = StructuredIPMOptions(),
) -> List[LPResult]:
    """Solve many independent :class:`GroupedBoundedLP` blocks in lockstep.

    Each block's variable vector is (x, s) with s the coupling slacks; its
    equality system is ``[[G, 0], [R, I]] (x, s) = (b_g, r)``, and the
    normal equations are solved by eliminating the diagonal group block
    (Schur complement on the K×K coupling block).

    The active blocks are concatenated into one block-diagonal
    mega-problem and every Mehrotra iteration advances all of them at
    once.  Elementwise work (residuals, scaling, directions, updates) and
    the group ``bincount`` sums run on the concatenated state vectors.
    The blocks are ordered by shape (K, n, m, bounded count), so blocks of
    one shape form a contiguous run, a *shape group*.  The pieces that
    must not mix run once per shape group as stacked calls on ``(B, …)``
    views: coupling matvecs and Schur builds are ``np.matmul`` on stacks,
    the complementarity and residual dots are ``np.vecdot``, the Schur
    traces sum a prebuilt diagonal view (the reduction
    ``np.trace(axis1=1, axis2=2)`` makes) and the per-group coupling sums
    are one ``bincount`` with per-block offsets.  Each stacked item runs
    the same BLAS kernel on the same memory layout as the block's own 2-D
    call, so its summation order is the block's own.  Step-length minima
    and the orthant test are ``np.minimum.reduceat`` over the block
    offsets (a minimum is exact in any order), and the Schur systems are
    solved stacked, one ``np.linalg.solve`` per coupling size K (a stacked
    LAPACK solve equals the per-matrix one bit for bit).  The per-block μ, error and σ
    arithmetic runs once over arrays of all blocks; only σ = (μ_aff/μ)³ is
    taken with Python's float power, which ``ndarray ** 3`` does not
    reproduce.  Every block therefore follows the **bit-identical iterate
    trajectory** of its own :func:`solve_structured`, whatever shared its
    shape group.  ``tests/test_lp_batch.py::TestStackedKernels`` pins the
    stacked-equals-per-slice assumption for the installed numpy and BLAS.

    Compaction: a block that converges, or leaves the positive orthant,
    has its :class:`LPResult` recorded with its own iteration count and
    then leaves the state — the survivors' slices of every state vector
    (and of the residuals the iteration still uses) are gathered into
    shorter vectors, and the shape groups' stacks, offsets and buffers are
    rebuilt (a group that lost no block keeps its stacks).  The loop thus
    sweeps only the active blocks: on one 625-block city tile that is
    424,800 element-iterations instead of the 4,387,500 a full-width sweep
    would do.  The layout is rebuilt only when the active set shrinks, so
    a batch of one never pays for it.  The loop exits as soon as every
    block is frozen.  Each layout build records its blocks per shape group
    in the ``lp.shape_group`` histogram (``--stats``: ``shape groups``).

    In reference mode every block runs the seed solver on its own, so the
    differential baselines never see the lockstep loop.

    :param blocks: independent structured LPs (any mix of sizes; ragged
        batches and a batch of one are fine).
    :param options: shared solver tunables.
    :returns: one :class:`LPResult` per block, in input order.
    """
    if not blocks:
        return []
    context = current_context()
    if context.reference:
        return [solve_structured_reference(lp, options) for lp in blocks]

    shapes = [
        (lp.num_coupling, lp.num_vars, lp.num_groups, int(np.isfinite(lp.upper).sum()))
        for lp in blocks
    ]
    order = sorted(range(len(blocks)), key=shapes.__getitem__)
    groups = []
    for shape, run in itertools.groupby(order, key=shapes.__getitem__):
        members = [blocks[b] for b in run]
        groups.append(_Group(
            shape,
            np.stack([lp.coupling_a for lp in members]) if shape[0] else None,
            np.stack([lp.group_index for lp in members])[:, None, :],
        ))
    ordered = [blocks[b] for b in order]
    lay = _Layout(
        groups,
        [
            np.array(order),
            np.array([
                1.0
                + float(np.linalg.norm(lp.group_rhs))
                + float(np.linalg.norm(lp.coupling_b))
                for lp in ordered
            ]),
            np.array([1.0 + float(np.linalg.norm(lp.c)) for lp in ordered]),
        ],
        np.concatenate([lp.c for lp in ordered]),
        np.concatenate([lp.upper for lp in ordered]),
        np.concatenate([lp.group_rhs for lp in ordered]),
        np.concatenate([lp.coupling_b for lp in ordered]),
        context.telemetry.metrics,
    )

    def masked(values: np.ndarray, fill: float) -> np.ndarray:
        # Identity when every variable is bounded (the real-workload case),
        # per-element identical to each block's own where_bounded otherwise.
        return values if lay.all_bounded else np.where(lay.bounded, values, fill)

    def bounded_only(values: np.ndarray) -> np.ndarray:
        # The bounded entries, in block order (each block's w[bounded]).
        return values if lay.all_bounded else values[lay.bounded]

    # ---- starting point (same expressions as the seed solver) -----------
    bounded, u = lay.bounded, lay.u
    x = np.where(bounded, np.minimum(u * 0.5, 1.0), 1.0)
    x = np.maximum(x, 1e-3)
    s = np.ones(lay.coupling_b.shape[0])
    w = np.where(bounded, u - x, 1.0)
    w = np.maximum(w, 1e-3)
    y_g = np.zeros(lay.g_tot)
    y_r = np.zeros(lay.coupling_b.shape[0])
    z = np.ones(u.shape[0])
    z_s = np.ones(lay.coupling_b.shape[0])
    v = np.where(bounded, 1.0, 0.0)

    results: List[Optional[LPResult]] = [None] * len(blocks)
    tolerance = options.tolerance
    step_fraction = options.step_fraction
    inf = np.inf

    def block_steps(neg_values, dx, ds, dw, dz, dz_s, dv):
        """Per-block boundary steps, shape (2, blocks): row 0 is alpha_p,
        row 1 alpha_d.  Each is Python's ``min(1.0, a, b, c)`` over the
        block's minima of its three ratio families (x, s, w primal; z,
        z_s, v dual): a family minimum replaces the running value only if
        strictly smaller, so a NaN one is skipped, not propagated."""
        deltas = np.concatenate((dx, ds, dw, dz, dz_s, dv))
        falling = deltas < 0
        if lay.step_mask is not None:
            falling &= lay.step_mask
        minima = _segment_min(
            np.where(falling, neg_values / deltas, inf), *lay.step_seg
        ).reshape(2, 3, -1)
        alpha = np.empty(minima.shape[::2])
        alpha.fill(1.0)
        for family in range(3):
            m = minima[:, family]
            np.copyto(alpha, m, where=m < alpha)
        return alpha

    def complementarity(dots_list):
        """Fill the dot rows, one ``np.vecdot`` per shape group and family;
        returns each block's (x·z + s·z_s + w·v) / num_comp."""
        for left, right, out in dots_list:
            np.vecdot(left, right, out=out)
        dots = lay.dots
        return (dots[_XZ] + dots[_SZ] + dots[_WV]) / lay.num_comp

    # One errstate for the whole solve: the scaling divisions may
    # overflow/divide harmlessly (they are clipped right after), and the
    # fused ratio tests evaluate both np.where branches, whose masked-out
    # branch may hit 0/0 before being discarded.  Settings only silence
    # warnings; no numerics change.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for iteration in range(1, options.max_iterations + 1):
            # ---- residuals: stacked matvecs + global elementwise --------
            lay.v_in[...] = x
            lay.k_in[...] = y_r
            for grp in lay.k_groups:
                np.matmul(grp.r_mat, grp.v_in, out=grp.k_out)
                np.matmul(grp.r_t, grp.k_in, out=grp.n_out)
            # The residuals land in their dot rows, which nothing else
            # writes before the next iteration.
            r_groups = np.subtract(
                np.bincount(lay.gi_off, weights=x, minlength=lay.g_tot),
                lay.group_rhs,
                out=lay.rg_row,
            )
            r_coupling = np.subtract(lay.k_out + s, lay.coupling_b, out=lay.rc_row)
            r_upper = masked(x + w - lay.u, 0.0)
            r_dual_x = np.subtract(
                lay.n_out + y_g[lay.gi_off] + z - v, lay.c, out=lay.rdx_row
            )
            r_dual_s = np.add(y_r, z_s, out=lay.rds_row)

            # ---- per-block convergence (own mu / residual norms) --------
            lay.w_row[...], lay.v_row[...] = bounded_only(w), bounded_only(v)
            lay.x_row[...], lay.z_row[...], lay.ru_row[...] = x, z, r_upper
            lay.s_row[...], lay.zs_row[...] = s, z_s
            for right, left in lay.squares:
                right[...] = left
            mu = complementarity(lay.conv_dots)
            root = np.sqrt(lay.dots)
            primal_err = (root[_RG] + root[_RC] + root[_RU]) / lay.norm_b
            dual_err = (root[_RDX] + root[_RDS]) / lay.norm_c
            # Python's max(primal_err, dual_err, mu) < tolerance: a later
            # value replaces the running one only if strictly larger, so a
            # NaN dual error or mu is skipped and a NaN primal error blocks.
            converged = (primal_err < tolerance) & ~(
                np.fmax(dual_err, mu) >= tolerance
            )
            frozen = np.count_nonzero(converged)
            if frozen:
                for b in np.flatnonzero(converged).tolist():
                    solution = x[lay.v_off[b] : lay.v_off[b + 1]].copy()
                    index = int(lay.idx[b])
                    results[index] = LPResult(
                        status=LPStatus.OPTIMAL,
                        x=solution,
                        objective=blocks[index].objective(solution),
                        iterations=iteration - 1,
                        backend=_BACKEND_NAME,
                    )
                if frozen == lay.num_blocks:
                    break
                (
                    lay,
                    (x, w, z, v, r_upper, r_dual_x),
                    (s, z_s, y_r, r_coupling, r_dual_s),
                    (y_g, r_groups),
                    (mu,),
                ) = lay.compact(
                    ~converged,
                    (x, w, z, v, r_upper, r_dual_x),
                    (s, z_s, y_r, r_coupling, r_dual_s),
                    (y_g, r_groups),
                    (mu,),
                )
            gi_off = lay.gi_off
            neg_values = -np.concatenate((x, s, w, z, z_s, v))

            # ---- scaling (global) + Schur complements (stacked) ---------
            x_safe = np.maximum(x, 1e-300)
            w_safe = np.maximum(w, 1e-300)
            s_safe = np.maximum(s, 1e-300)
            v_over_w = v / w_safe
            d_x = z / x_safe + masked(v_over_w, 0.0)
            d_s = z_s / s_safe
            # np.clip's value, without its Python-level dispatch.
            theta_x = 1.0 / np.minimum(np.maximum(d_x, 1e-12), 1e12)
            theta_s = 1.0 / np.minimum(np.maximum(d_s, 1e-12), 1e12)
            diag_g = np.maximum(
                np.bincount(gi_off, weights=theta_x, minlength=lay.g_tot), 1e-300
            )
            neg_r_groups = -r_groups
            neg_r_coupling = -r_coupling
            vw_r_upper = v_over_w * r_upper

            lay.v_in[...] = theta_x
            lay.k_in[...] = theta_s
            lay.g_in[...] = diag_g
            for grp in lay.k_groups:
                rt = np.multiply(grp.r_mat, grp.theta_in, out=grp.rt)
                # Block b's row k, variable j adds into bin (b·K + k)·m +
                # gi[j]: each block's own ``bincount`` order.  ut[b] is its
                # u_block.T, u_block[b] its F-ordered u_block.
                ut = np.bincount(
                    (grp.u_rows + grp.gi).ravel(),
                    weights=rt.ravel(),
                    minlength=grp.u_len,
                ).reshape(grp.count, grp.k, grp.m)
                u_block = ut.transpose(0, 2, 1)
                schur = grp.schur
                np.matmul(rt, grp.r_t, out=schur)
                grp.schur_diag += grp.theta_s_in
                schur -= np.matmul(ut, u_block / grp.g_in)
                # The diagonal view's row sums are np.trace(axis1=1, axis2=2).
                trace = np.add.reduce(grp.schur_diag, axis=1)
                grp.schur_diag += (1e-12 * (1.0 + trace / grp.k))[:, None]
                grp.ut, grp.u = ut, u_block

            def newton(rxz, rwv, rsz):
                """One lockstep KKT solve for given complementarity residuals."""
                g_x = np.add(
                    r_dual_x - rxz / x_safe,
                    masked(rwv / w_safe - vw_r_upper, 0.0),
                    out=lay.v_in,
                )
                rhs_g = neg_r_groups - np.bincount(
                    gi_off, weights=theta_x * g_x, minlength=lay.g_tot
                )
                g_s = r_dual_s - rsz / s_safe
                np.divide(rhs_g, diag_g, out=lay.g_in)
                for grp in lay.k_groups:
                    np.matmul(grp.rt, grp.v_in, out=grp.k_out)
                    np.matmul(grp.ut, grp.g_in, out=grp.k_out2)
                rhs_r = neg_r_coupling - lay.k_out - theta_s * g_s
                np.subtract(rhs_r, lay.k_out2, out=lay.rhs)
                for schur, rhs, dy in lay.k_stacks:
                    dy[...] = np.linalg.solve(schur, rhs)
                dy_r = lay.k_in
                for grp in lay.k_groups:
                    np.matmul(grp.u, grp.k_in, out=grp.g_out)
                    np.matmul(grp.r_t, grp.k_in, out=grp.n_out)
                dy_g = (rhs_g - lay.g_out) / diag_g
                at_dy = dy_g[gi_off] + lay.n_out
                dx = theta_x * (at_dy + g_x)
                dz = -(rxz + z * dx) / x_safe
                dw = masked(-r_upper - dx, 0.0)
                dv = masked(-(rwv + v * dw) / w_safe, 0.0)
                ds = theta_s * (dy_r + g_s)
                dz_s = -(rsz + z_s * ds) / s_safe
                return dx, ds, dw, dy_g, dy_r, dz, dz_s, dv

            # ---- predictor ----------------------------------------------
            rxz_aff = x * z
            rwv_aff = masked(w * v, 0.0)
            rsz_aff = s * z_s
            aff = newton(rxz_aff, rwv_aff, rsz_aff)
            dx_a, ds_a, dw_a, _, _, dz_a, dzs_a, dv_a = aff
            ap_a, ad_a = block_steps(
                neg_values, dx_a, ds_a, dw_a, dz_a, dzs_a, dv_a
            )
            ap_v = lay.spread(ap_a, lay.n_sizes)
            ad_v = lay.spread(ad_a, lay.n_sizes)
            ap_k = lay.spread(ap_a, lay.k_sizes)
            ad_k = lay.spread(ad_a, lay.k_sizes)
            lay.w_row[...] = bounded_only(w + ap_v * dw_a)
            lay.v_row[...] = bounded_only(v + ad_v * dv_a)
            np.add(x, ap_v * dx_a, out=lay.x_row)
            np.add(z, ad_v * dz_a, out=lay.z_row)
            np.add(s, ap_k * ds_a, out=lay.s_row)
            np.add(z_s, ad_k * dzs_a, out=lay.zs_row)
            mu_aff = complementarity(lay.aff_dots)
            sigma = np.array([
                ratio ** 3 if mu_b > 0 else 0.0
                for ratio, mu_b in zip((mu_aff / mu).tolist(), mu.tolist())
            ])

            # ---- corrector ----------------------------------------------
            sm_blocks = sigma * mu
            sm_v = lay.spread(sm_blocks, lay.n_sizes)
            sm_k = lay.spread(sm_blocks, lay.k_sizes)
            rxz = rxz_aff + dx_a * dz_a - sm_v
            rwv = masked(rwv_aff + dw_a * dv_a - sm_v, 0.0)
            rsz = rsz_aff + ds_a * dzs_a - sm_k
            dx, ds, dw, dy_g, dy_r_c, dz, dz_s, dv = newton(rxz, rwv, rsz)

            ap, ad = step_fraction * block_steps(
                neg_values, dx, ds, dw, dz, dz_s, dv
            )
            ap_v = lay.spread(ap, lay.n_sizes)
            ap_k = lay.spread(ap, lay.k_sizes)
            ad_v = lay.spread(ad, lay.n_sizes)
            ad_k = lay.spread(ad, lay.k_sizes)
            ad_g = lay.spread(ad, lay.g_sizes)
            x += ap_v * dx
            s += ap_k * ds
            y_g += ad_g * dy_g
            y_r += ad_k * dy_r_c
            z += ad_v * dz
            z_s += ad_k * dz_s
            if lay.all_bounded:
                w += ap_v * dw
                v += ad_v * dv
            else:
                w = np.where(lay.bounded, w + ap_v * dw, w)
                v = np.where(lay.bounded, v + ad_v * dv, v)

            # ---- per-block orthant check --------------------------------
            outside = _segment_min(
                np.concatenate((x, z, s, z_s)), *lay.orthant_seg
            ) <= 0
            if np.count_nonzero(outside):
                left = outside.reshape(4, -1).any(axis=0)
                for b in np.flatnonzero(left).tolist():
                    results[int(lay.idx[b])] = LPResult(
                        status=LPStatus.NUMERICAL_ERROR,
                        x=None,
                        objective=float("nan"),
                        iterations=iteration,
                        backend=_BACKEND_NAME,
                        message="iterate left the positive orthant",
                    )
                if np.count_nonzero(left) == lay.num_blocks:
                    break
                lay, (x, w, z, v), (s, z_s, y_r), (y_g,), _ = lay.compact(
                    ~left, (x, w, z, v), (s, z_s, y_r), (y_g,), ()
                )

    for b, result in enumerate(results):
        if result is None:
            results[b] = LPResult(
                status=LPStatus.ITERATION_LIMIT,
                x=None,
                objective=float("nan"),
                iterations=options.max_iterations,
                backend=_BACKEND_NAME,
                message="no convergence within the iteration cap",
            )
    return results  # type: ignore[return-value]
