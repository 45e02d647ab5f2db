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

import math
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


class _Block:
    """Per-block bookkeeping for :func:`solve_structured_batch`."""

    __slots__ = (
        "idx", "lp", "sl", "ks", "gs", "n", "k", "m", "r_mat", "bounded",
        "u_off", "schur_diag", "norm_b", "norm_c", "num_comp", "mu",
        "rt", "u_block", "schur",
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

    The blocks are concatenated into one block-diagonal mega-problem and
    every Mehrotra iteration advances all of them at once: elementwise work
    (residuals, scaling, directions, updates) runs on the concatenated
    state vectors, while the per-block pieces that must not mix — coupling
    matvecs, the K×K Schur factorisations, complementarity/error dots,
    step-length minima and convergence decisions — run on each block's
    contiguous slice.  Because the per-slice operations see exactly the
    arrays a batch of one would, and a min/bincount/dot over a block's
    slice of the concatenation equals the same reduction over the
    standalone block, every block follows the **bit-identical iterate
    trajectory** of its own :func:`solve_structured` (the only tolerated
    deviation is the sign of floating-point zeros in masked fill
    positions, which can never change a magnitude or comparison).

    Per-block convergence masking: a block that converges (or leaves the
    positive orthant) is *frozen* — its :class:`LPResult` is recorded with
    its own iteration count, its state slices are overwritten with benign
    constants so the global elementwise passes stay finite, and its
    per-block work (factorise/solve/reduce) is skipped while the
    stragglers continue.  The loop exits as soon as every block is frozen.

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

    num = len(blocks)
    n_sizes = np.array([lp.num_vars for lp in blocks], dtype=np.intp)
    k_sizes = np.array([lp.num_coupling for lp in blocks], dtype=np.intp)
    g_sizes = np.array([lp.num_groups for lp in blocks], dtype=np.intp)
    v_off = np.concatenate(([0], np.cumsum(n_sizes)))
    k_off = np.concatenate(([0], np.cumsum(k_sizes)))
    g_off = np.concatenate(([0], np.cumsum(g_sizes)))
    n_tot = int(v_off[-1])
    k_tot = int(k_off[-1])
    g_tot = int(g_off[-1])

    c = np.concatenate([lp.c for lp in blocks])
    u = np.concatenate([lp.upper for lp in blocks])
    group_rhs = np.concatenate([lp.group_rhs for lp in blocks])
    coupling_b = np.concatenate([lp.coupling_b for lp in blocks])
    gi_off = np.concatenate(
        [lp.group_index + g_off[b] for b, lp in enumerate(blocks)]
    )
    bounded = np.isfinite(u)
    all_bounded = bool(bounded.all())

    def masked(values: np.ndarray, fill: float) -> np.ndarray:
        # Identity when every variable is bounded (the real-workload case),
        # per-element identical to each block's own where_bounded otherwise.
        return values if all_bounded else np.where(bounded, values, fill)

    info: List[_Block] = []
    for b, lp in enumerate(blocks):
        blk = _Block()
        blk.idx = b
        blk.lp = lp
        blk.n = lp.num_vars
        blk.k = lp.num_coupling
        blk.m = lp.num_groups
        blk.sl = slice(int(v_off[b]), int(v_off[b + 1]))
        blk.ks = slice(int(k_off[b]), int(k_off[b + 1]))
        blk.gs = slice(int(g_off[b]), int(g_off[b + 1]))
        blk.r_mat = lp.coupling_a
        bounded_b = bounded[blk.sl]
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

    # ---- starting point (same expressions as the seed solver) -----------
    x = np.where(bounded, np.minimum(u * 0.5, 1.0), 1.0)
    x = np.maximum(x, 1e-3)
    s = np.ones(k_tot)
    w = np.where(bounded, u - x, 1.0)
    w = np.maximum(w, 1e-3)
    y_g = np.zeros(g_tot)
    y_r = np.zeros(k_tot)
    z = np.ones(n_tot)
    z_s = np.ones(k_tot)
    v = np.where(bounded, 1.0, 0.0)

    # Per-block matvec landing buffers: active slices are refilled every
    # iteration, frozen slices are zeroed once at freeze time so the global
    # elementwise passes never mix in stale values.
    mv = np.zeros(k_tot)        # r_mat @ x
    at_y = np.zeros(n_tot)      # r_mat.T @ y_r
    rtgx = np.zeros(k_tot)      # rt @ g_x
    ub_dyr = np.zeros(g_tot)    # u_block @ dy_r
    at_dyr = np.zeros(n_tot)    # r_mat.T @ dy_r
    dy_r = np.zeros(k_tot)

    # Per-block step lengths / centering, expanded to per-element arrays by
    # np.repeat; frozen blocks keep 0.0 so their state is a fixed point of
    # the global update (x + 0*dx is bitwise x).
    ap_blocks = np.zeros(num)
    ad_blocks = np.zeros(num)
    sm_blocks = np.zeros(num)

    results: List[Optional[LPResult]] = [None] * num
    active = list(info)

    def freeze(blk: _Block, result: LPResult) -> None:
        results[blk.idx] = result
        sl, ks, gs = blk.sl, blk.ks, blk.gs
        x[sl] = 1.0
        w[sl] = 1.0
        z[sl] = 1.0
        v[sl] = 1.0
        s[ks] = 1.0
        z_s[ks] = 1.0
        y_r[ks] = 0.0
        y_g[gs] = 0.0
        mv[ks] = 0.0
        at_y[sl] = 0.0
        rtgx[ks] = 0.0
        ub_dyr[gs] = 0.0
        at_dyr[sl] = 0.0
        dy_r[ks] = 0.0
        ap_blocks[blk.idx] = 0.0
        ad_blocks[blk.idx] = 0.0
        sm_blocks[blk.idx] = 0.0
        blk.rt = None
        blk.u_block = None
        blk.schur = None

    tolerance = options.tolerance
    step_fraction = options.step_fraction
    inf = np.inf

    # One errstate for the whole solve: the scaling divisions may
    # overflow/divide harmlessly (they are clipped right after), and the
    # fused ratio tests evaluate both np.where branches, whose masked-out
    # branch may hit 0/0 before being discarded.  Settings only silence
    # warnings; no numerics change.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for iteration in range(1, options.max_iterations + 1):
            if not active:
                break

            # ---- residuals: per-block matvecs + global elementwise ------
            for blk in active:
                if blk.k:
                    mv[blk.ks] = blk.r_mat @ x[blk.sl]
                    at_y[blk.sl] = blk.r_mat.T @ y_r[blk.ks]
            r_groups = np.bincount(gi_off, weights=x, minlength=g_tot) - group_rhs
            r_coupling = mv + s - coupling_b
            r_upper = masked(x + w - u, 0.0)
            r_dual_x = at_y + y_g[gi_off] + z - v - c
            r_dual_s = y_r + z_s

            # ---- per-block convergence (own mu / residual norms) --------
            still = []
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
                if max(primal_err, dual_err, mu_b) < tolerance:
                    solution = x[sl].copy()
                    freeze(
                        blk,
                        LPResult(
                            status=LPStatus.OPTIMAL,
                            x=solution,
                            objective=blk.lp.objective(solution),
                            iterations=iteration - 1,
                            backend=_BACKEND_NAME,
                        ),
                    )
                else:
                    blk.mu = mu_b
                    still.append(blk)
            active = still
            if not active:
                break

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
                np.bincount(gi_off, weights=theta_x, minlength=g_tot), 1e-300
            )
            neg_r_groups = -r_groups
            neg_r_coupling = -r_coupling
            vw_r_upper = v_over_w * r_upper

            for blk in active:
                if not blk.k:
                    continue
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
                blk.schur = schur

            def newton(rxz, rwv, rsz):
                """One lockstep KKT solve for given complementarity residuals."""
                g_x = r_dual_x - rxz / x_safe
                g_x = g_x + masked(rwv / w_safe - vw_r_upper, 0.0)
                rhs_g = neg_r_groups - np.bincount(
                    gi_off, weights=theta_x * g_x, minlength=g_tot
                )
                g_s = r_dual_s - rsz / s_safe
                for blk in active:
                    if blk.k:
                        rtgx[blk.ks] = blk.rt @ g_x[blk.sl]
                rhs_r = neg_r_coupling - rtgx - theta_s * g_s
                dg_inv_rhs = rhs_g / diag_g
                for blk in active:
                    if not blk.k:
                        continue
                    ks, gs = blk.ks, blk.gs
                    dy_r[ks] = np.linalg.solve(
                        blk.schur, rhs_r[ks] - blk.u_block.T @ dg_inv_rhs[gs]
                    )
                    ub_dyr[gs] = blk.u_block @ dy_r[ks]
                    at_dyr[blk.sl] = blk.r_mat.T @ dy_r[ks]
                dy_g = (rhs_g - ub_dyr) / diag_g
                at_dy = dy_g[gi_off] + at_dyr
                dx = theta_x * (at_dy + g_x)
                dz = -(rxz + z * dx) / x_safe
                dw = masked(-r_upper - dx, 0.0)
                dv = masked(-(rwv + v * dw) / w_safe, 0.0)
                ds = theta_s * (dy_r + g_s)
                dz_s = -(rsz + z_s * ds) / s_safe
                return dx, ds, dw, dy_g, dy_r, dz, dz_s, dv

            def ratios(values, deltas):
                return np.where(deltas < 0, -values / deltas, inf)

            def ratios_bounded(values, deltas):
                if all_bounded:
                    return np.where(deltas < 0, -values / deltas, inf)
                return np.where((deltas < 0) & bounded, -values / deltas, inf)

            def block_steps(dx, ds, dw, dz, dz_s, dv):
                """Per-block boundary steps: min over each block's slice of
                the fused per-family ratio arrays (equals the min over the
                block's own concatenated families)."""
                rat_x = ratios(x, dx)
                rat_s = ratios(s, ds)
                rat_w = ratios_bounded(w, dw)
                rat_z = ratios(z, dz)
                rat_zs = ratios(z_s, dz_s)
                rat_v = ratios_bounded(v, dv)
                out = []
                for blk in active:
                    sl, ks = blk.sl, blk.ks
                    ap = min(
                        1.0,
                        float(rat_x[sl].min(initial=inf)),
                        float(rat_s[ks].min(initial=inf)),
                        float(rat_w[sl].min(initial=inf)),
                    )
                    ad = min(
                        1.0,
                        float(rat_z[sl].min(initial=inf)),
                        float(rat_zs[ks].min(initial=inf)),
                        float(rat_v[sl].min(initial=inf)),
                    )
                    out.append((ap, ad))
                return out

            # ---- predictor ----------------------------------------------
            rxz_aff = x * z
            rwv_aff = masked(w * v, 0.0)
            rsz_aff = s * z_s
            aff = newton(rxz_aff, rwv_aff, rsz_aff)
            dx_a, ds_a, dw_a, _, _, dz_a, dzs_a, dv_a = aff
            for blk, (ap_b, ad_b) in zip(
                active, block_steps(dx_a, ds_a, dw_a, dz_a, dzs_a, dv_a)
            ):
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
                sm_blocks[blk.idx] = sigma * blk.mu

            # ---- corrector ----------------------------------------------
            sm_v = np.repeat(sm_blocks, n_sizes)
            sm_k = np.repeat(sm_blocks, k_sizes)
            rxz = rxz_aff + dx_a * dz_a - sm_v
            rwv = masked(rwv_aff + dw_a * dv_a - sm_v, 0.0)
            rsz = rsz_aff + ds_a * dzs_a - sm_k
            dx, ds, dw, dy_g, dy_r_c, dz, dz_s, dv = newton(rxz, rwv, rsz)

            for blk, (ap_b, ad_b) in zip(
                active, block_steps(dx, ds, dw, dz, dz_s, dv)
            ):
                ap_blocks[blk.idx] = step_fraction * ap_b
                ad_blocks[blk.idx] = step_fraction * ad_b

            ap_v = np.repeat(ap_blocks, n_sizes)
            ap_k = np.repeat(ap_blocks, k_sizes)
            ad_v = np.repeat(ad_blocks, n_sizes)
            ad_k = np.repeat(ad_blocks, k_sizes)
            ad_g = np.repeat(ad_blocks, g_sizes)
            x += ap_v * dx
            s += ap_k * ds
            y_g += ad_g * dy_g
            y_r += ad_k * dy_r_c
            z += ad_v * dz
            z_s += ad_k * dz_s
            if all_bounded:
                w += ap_v * dw
                v += ad_v * dv
            else:
                w = np.where(bounded, w + ap_v * dw, w)
                v = np.where(bounded, v + ad_v * dv, v)

            # ---- per-block orthant check --------------------------------
            still = []
            for blk in active:
                sl, ks = blk.sl, blk.ks
                if (
                    x[sl].min(initial=inf) <= 0
                    or z[sl].min(initial=inf) <= 0
                    or (
                        blk.k
                        and (s[ks].min() <= 0 or z_s[ks].min() <= 0)
                    )
                ):
                    freeze(
                        blk,
                        LPResult(
                            status=LPStatus.NUMERICAL_ERROR,
                            x=None,
                            objective=float("nan"),
                            iterations=iteration,
                            backend=_BACKEND_NAME,
                            message="iterate left the positive orthant",
                        ),
                    )
                else:
                    still.append(blk)
            active = still

    for blk in active:
        results[blk.idx] = LPResult(
            status=LPStatus.ITERATION_LIMIT,
            x=None,
            objective=float("nan"),
            iterations=options.max_iterations,
            backend=_BACKEND_NAME,
            message="no convergence within the iteration cap",
        )
    return results  # type: ignore[return-value]
