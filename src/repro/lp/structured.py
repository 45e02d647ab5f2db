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
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

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


class _Block:
    """Per-block bookkeeping for :func:`solve_structured_batch`."""

    __slots__ = (
        "idx", "lp", "sl", "ks", "gs", "n", "k", "m", "r_mat", "bounded",
        "u_off", "schur_diag", "norm_b", "norm_c", "num_comp", "mu",
        "rt", "u_block", "schur", "rhs",
    )


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


class _Layout:
    """Where each active block sits in the compacted state vectors.

    Built once up front and again only when blocks freeze, so the
    per-iteration loop never re-derives offsets, K-groups or buffers.
    """

    def __init__(
        self,
        blocks: List[_Block],
        c: np.ndarray,
        u: np.ndarray,
        group_rhs: np.ndarray,
        coupling_b: np.ndarray,
    ) -> None:
        self.blocks = blocks
        self.c = c
        self.u = u
        self.group_rhs = group_rhs
        self.coupling_b = coupling_b
        self.bounded = np.isfinite(u)
        self.all_bounded = bool(self.bounded.all())
        self.n_sizes = np.array([blk.n for blk in blocks], dtype=np.intp)
        self.k_sizes = np.array([blk.k for blk in blocks], dtype=np.intp)
        self.g_sizes = np.array([blk.m for blk in blocks], dtype=np.intp)
        v_off = np.concatenate(([0], np.cumsum(self.n_sizes)))
        k_off = np.concatenate(([0], np.cumsum(self.k_sizes)))
        g_off = np.concatenate(([0], np.cumsum(self.g_sizes)))
        n_tot = int(v_off[-1])
        k_tot = int(k_off[-1])
        self.g_tot = int(g_off[-1])
        by_k: Dict[int, List[_Block]] = {}
        for b, blk in enumerate(blocks):
            blk.sl = slice(int(v_off[b]), int(v_off[b + 1]))
            blk.ks = slice(int(k_off[b]), int(k_off[b + 1]))
            blk.gs = slice(int(g_off[b]), int(g_off[b + 1]))
            if blk.k:
                by_k.setdefault(blk.k, []).append(blk)
        self.k_blocks = [blk for blk in blocks if blk.k]
        self.gi_off = np.concatenate(
            [blk.lp.group_index + blk.gs.start for blk in blocks]
        )
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

        # The Schur systems of equal-K blocks are solved as one stack; each
        # block writes its matrix and right-hand side into its own row.
        self.k_groups = []
        for size, group in by_k.items():
            schur = np.empty((len(group), size, size))
            rhs = np.empty((len(group), size))
            for j, blk in enumerate(group):
                blk.schur = schur[j]
                blk.rhs = rhs[j]
            starts = np.array([blk.ks.start for blk in group], dtype=np.intp)
            k_idx = (starts[:, None] + np.arange(size)).ravel()
            self.k_groups.append((k_idx, schur, rhs))

        # Per-block matvec landing buffers: K-coupled blocks refill their
        # slices every iteration, K = 0 blocks keep zeros.
        self.mv = np.zeros(k_tot)        # r_mat @ x
        self.at_y = np.zeros(n_tot)      # r_mat.T @ y_r
        self.rtgx = np.zeros(k_tot)      # rt @ g_x
        self.ub_dyr = np.zeros(self.g_tot)  # u_block @ dy_r
        self.at_dyr = np.zeros(n_tot)    # r_mat.T @ dy_r
        self.dy_r = np.zeros(k_tot)

    def spread(self, per_block: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Per-block values expanded to per-element (a batch of one
        broadcasts its length-1 array instead)."""
        return per_block if len(self.blocks) == 1 else np.repeat(per_block, sizes)

    def compact(self, keep: np.ndarray, n_arrays, k_arrays, g_arrays):
        """The layout of the kept blocks, and each per-variable, per-coupling
        and per-group array gathered down to the kept blocks' slices."""
        keep_v = np.repeat(keep, self.n_sizes)
        keep_k = np.repeat(keep, self.k_sizes)
        keep_g = np.repeat(keep, self.g_sizes)
        kept = _Layout(
            [blk for blk, k in zip(self.blocks, keep) if k],
            self.c[keep_v],
            self.u[keep_v],
            self.group_rhs[keep_g],
            self.coupling_b[keep_k],
        )
        return (
            kept,
            [a[keep_v] for a in n_arrays],
            [a[keep_k] for a in k_arrays],
            [a[keep_g] for a in g_arrays],
        )


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
    The pieces that must not mix run per block: coupling matvecs, Schur
    builds and complementarity/error dots on each block's contiguous
    slice, so their BLAS summation order is the block's own.  Step-length
    minima and the orthant test are ``np.minimum.reduceat`` over the
    block offsets (a minimum is exact in any order), and the Schur systems
    are solved stacked, one ``np.linalg.solve`` per coupling size K (a
    stacked LAPACK solve equals the per-matrix one bit for bit).  Every
    block therefore follows the **bit-identical iterate trajectory** of
    its own :func:`solve_structured`.

    Compaction: a block that converges, or leaves the positive orthant,
    has its :class:`LPResult` recorded with its own iteration count and
    then leaves the state — the survivors' slices of every state vector
    (and of the residuals the iteration still uses) are gathered into
    shorter vectors and the offsets, K-groups and buffers are rebuilt.
    The loop thus sweeps only the active blocks: on one 625-block city
    tile that is 424,800 element-iterations instead of the 4,387,500 a
    full-width sweep would do.  The layout is rebuilt only when the
    active set shrinks, so a batch of one never pays for it.  The loop
    exits as soon as every block is frozen.

    In reference mode every block runs the seed solver on its own, so the
    differential baselines never see the lockstep loop.

    :param blocks: independent structured LPs (any mix of sizes; ragged
        batches and a batch of one are fine).
    :param options: shared solver tunables.
    :returns: one :class:`LPResult` per block, in input order.
    """
    if not blocks:
        return []
    if current_context().reference:
        return [solve_structured_reference(lp, options) for lp in blocks]

    info: List[_Block] = []
    for b, lp in enumerate(blocks):
        blk = _Block()
        blk.idx = b
        blk.lp = lp
        blk.n = lp.num_vars
        blk.k = lp.num_coupling
        blk.m = lp.num_groups
        blk.r_mat = lp.coupling_a
        bounded_b = np.isfinite(lp.upper)
        blk.bounded = None if bool(bounded_b.all()) else bounded_b
        blk.u_off = (
            (np.arange(blk.k)[:, None] * blk.m + lp.group_index[None, :]).ravel()
            if blk.k
            else None
        )
        blk.schur_diag = np.diag_indices(blk.k) if blk.k else None
        blk.norm_b = (
            1.0
            + float(np.linalg.norm(lp.group_rhs))
            + float(np.linalg.norm(lp.coupling_b))
        )
        blk.norm_c = 1.0 + float(np.linalg.norm(lp.c))
        blk.num_comp = blk.n + blk.k + int(bounded_b.sum())
        blk.mu = 0.0
        info.append(blk)
    lay = _Layout(
        info,
        np.concatenate([lp.c for lp in blocks]),
        np.concatenate([lp.upper for lp in blocks]),
        np.concatenate([lp.group_rhs for lp in blocks]),
        np.concatenate([lp.coupling_b for lp in blocks]),
    )

    def masked(values: np.ndarray, fill: float) -> np.ndarray:
        # Identity when every variable is bounded (the real-workload case),
        # per-element identical to each block's own where_bounded otherwise.
        return values if lay.all_bounded else np.where(lay.bounded, values, fill)

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
        alpha = 1.0
        for family in range(3):
            m = minima[:, family]
            alpha = np.where(m < alpha, m, alpha)
        return alpha

    # One errstate for the whole solve: the scaling divisions may
    # overflow/divide harmlessly (they are clipped right after), and the
    # fused ratio tests evaluate both np.where branches, whose masked-out
    # branch may hit 0/0 before being discarded.  Settings only silence
    # warnings; no numerics change.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for iteration in range(1, options.max_iterations + 1):
            active = lay.blocks

            # ---- residuals: per-block matvecs + global elementwise ------
            mv, at_y = lay.mv, lay.at_y
            for blk in lay.k_blocks:
                mv[blk.ks] = blk.r_mat @ x[blk.sl]
                at_y[blk.sl] = blk.r_mat.T @ y_r[blk.ks]
            r_groups = (
                np.bincount(lay.gi_off, weights=x, minlength=lay.g_tot)
                - lay.group_rhs
            )
            r_coupling = mv + s - lay.coupling_b
            r_upper = masked(x + w - lay.u, 0.0)
            r_dual_x = at_y + y_g[lay.gi_off] + z - v - lay.c
            r_dual_s = y_r + z_s

            # ---- per-block convergence (own mu / residual norms) --------
            keep = []
            for blk in active:
                sl, ks, gs = blk.sl, blk.ks, blk.gs
                if blk.bounded is None:
                    wb, vb = w[sl], v[sl]
                else:
                    wb, vb = w[sl][blk.bounded], v[sl][blk.bounded]
                mu_b = (
                    float(x[sl] @ z[sl])
                    + float(s[ks] @ z_s[ks])
                    + float(wb @ vb)
                ) / blk.num_comp
                rg = r_groups[gs]
                rc = r_coupling[ks]
                ru = r_upper[sl]
                primal_err = (
                    math.sqrt(float(rg @ rg))
                    + math.sqrt(float(rc @ rc))
                    + math.sqrt(float(ru @ ru))
                ) / blk.norm_b
                rdx = r_dual_x[sl]
                rds = r_dual_s[ks]
                dual_err = (
                    math.sqrt(float(rdx @ rdx)) + math.sqrt(float(rds @ rds))
                ) / blk.norm_c
                converged = max(primal_err, dual_err, mu_b) < tolerance
                if converged:
                    solution = x[sl].copy()
                    results[blk.idx] = LPResult(
                        status=LPStatus.OPTIMAL,
                        x=solution,
                        objective=blk.lp.objective(solution),
                        iterations=iteration - 1,
                        backend=_BACKEND_NAME,
                    )
                else:
                    blk.mu = mu_b
                keep.append(not converged)
            if not all(keep):
                if not any(keep):
                    break
                (
                    lay,
                    (x, w, z, v, r_upper, r_dual_x),
                    (s, z_s, y_r, r_coupling, r_dual_s),
                    (y_g, r_groups),
                ) = lay.compact(
                    np.array(keep),
                    (x, w, z, v, r_upper, r_dual_x),
                    (s, z_s, y_r, r_coupling, r_dual_s),
                    (y_g, r_groups),
                )
                active = lay.blocks
            k_blocks = lay.k_blocks
            gi_off = lay.gi_off
            neg_values = -np.concatenate((x, s, w, z, z_s, v))

            # ---- scaling (global) + Schur complements (per block) -------
            x_safe = np.maximum(x, 1e-300)
            w_safe = np.maximum(w, 1e-300)
            s_safe = np.maximum(s, 1e-300)
            v_over_w = v / w_safe
            d_x = z / x_safe + masked(v_over_w, 0.0)
            d_s = z_s / s_safe
            theta_x = 1.0 / np.clip(d_x, 1e-12, 1e12)
            theta_s = 1.0 / np.clip(d_s, 1e-12, 1e12)
            diag_g = np.maximum(
                np.bincount(gi_off, weights=theta_x, minlength=lay.g_tot), 1e-300
            )
            neg_r_groups = -r_groups
            neg_r_coupling = -r_coupling
            vw_r_upper = v_over_w * r_upper

            for blk in k_blocks:
                rt = blk.r_mat * theta_x[blk.sl]
                u_block = (
                    np.bincount(
                        blk.u_off, weights=rt.ravel(), minlength=blk.m * blk.k
                    )
                    .reshape(blk.k, blk.m)
                    .T
                )
                schur = rt @ blk.r_mat.T
                schur[blk.schur_diag] += theta_s[blk.ks]
                schur -= u_block.T @ (u_block / diag_g[blk.gs][:, None])
                schur[blk.schur_diag] += 1e-12 * (
                    1.0 + schur.trace() / max(blk.k, 1)
                )
                blk.rt = rt
                blk.u_block = u_block
                blk.schur[...] = schur

            def newton(rxz, rwv, rsz):
                """One lockstep KKT solve for given complementarity residuals."""
                g_x = r_dual_x - rxz / x_safe
                g_x = g_x + masked(rwv / w_safe - vw_r_upper, 0.0)
                rhs_g = neg_r_groups - np.bincount(
                    gi_off, weights=theta_x * g_x, minlength=lay.g_tot
                )
                g_s = r_dual_s - rsz / s_safe
                rtgx = lay.rtgx
                for blk in k_blocks:
                    rtgx[blk.ks] = blk.rt @ g_x[blk.sl]
                rhs_r = neg_r_coupling - rtgx - theta_s * g_s
                dg_inv_rhs = rhs_g / diag_g
                for blk in k_blocks:
                    blk.rhs[...] = (
                        rhs_r[blk.ks] - blk.u_block.T @ dg_inv_rhs[blk.gs]
                    )
                dy_r = lay.dy_r
                for k_idx, schur, rhs in lay.k_groups:
                    dy_r[k_idx] = np.linalg.solve(schur, rhs[..., None]).ravel()
                ub_dyr, at_dyr = lay.ub_dyr, lay.at_dyr
                for blk in k_blocks:
                    dy_b = dy_r[blk.ks]
                    ub_dyr[blk.gs] = blk.u_block @ dy_b
                    at_dyr[blk.sl] = blk.r_mat.T @ dy_b
                dy_g = (rhs_g - ub_dyr) / diag_g
                at_dy = dy_g[gi_off] + at_dyr
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
            sigma_mu = []
            for blk, ap_b, ad_b in zip(active, ap_a.tolist(), ad_a.tolist()):
                sl, ks = blk.sl, blk.ks
                xa = x[sl] + ap_b * dx_a[sl]
                za = z[sl] + ad_b * dz_a[sl]
                if blk.bounded is None:
                    wb, dwb = w[sl], dw_a[sl]
                    vb, dvb = v[sl], dv_a[sl]
                else:
                    bb = blk.bounded
                    wb, dwb = w[sl][bb], dw_a[sl][bb]
                    vb, dvb = v[sl][bb], dv_a[sl][bb]
                mu_aff = (
                    float(xa @ za)
                    + (
                        float(
                            (s[ks] + ap_b * ds_a[ks])
                            @ (z_s[ks] + ad_b * dzs_a[ks])
                        )
                        if blk.k
                        else 0.0
                    )
                    + float((wb + ap_b * dwb) @ (vb + ad_b * dvb))
                ) / blk.num_comp
                sigma = (mu_aff / blk.mu) ** 3 if blk.mu > 0 else 0.0
                sigma_mu.append(sigma * blk.mu)

            # ---- corrector ----------------------------------------------
            sm_blocks = np.array(sigma_mu)
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
            if outside.any():
                left = outside.reshape(4, -1).any(axis=0)
                for blk in itertools.compress(active, left):
                    results[blk.idx] = LPResult(
                        status=LPStatus.NUMERICAL_ERROR,
                        x=None,
                        objective=float("nan"),
                        iterations=iteration,
                        backend=_BACKEND_NAME,
                        message="iterate left the positive orthant",
                    )
                if left.all():
                    break
                lay, (x, w, z, v), (s, z_s, y_r), (y_g,) = lay.compact(
                    ~left, (x, w, z, v), (s, z_s, y_r), (y_g,)
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
