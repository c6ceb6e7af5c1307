"""Gaussian process regression on observed deformations.

Each inlier reference point carries one fused deformation label with its own
noise variance (heteroscedastic regression); the correspondence layer fuses
the candidate annotations by precision weighting before they reach the solver.

The scalar part of the kernel gives the stacked covariance G (x) I_d, so the
predictive mean and variance come from one Cholesky factorization of the
(C x C) matrix A = G_CC + diag(sigma2) applied to the d coordinate columns.
A low-rank coordinate-coupling term U diag(lam) U^T, when present, is a prior
N(0, diag(lam)) on the weights of U's m columns: their posterior reuses the
factor of A and needs one (m x m) factorization more, of their precision.

The dense work allocates only what it returns, besides row blocks of
core.ROW_BLOCK rows: the (C x C) block A is gathered a row block at a time
into the caller's workspace (a registration passes the buffer its P used) and
factored there in place.  The mean is g @ scatter(w), the weights
w = A^{-1} labels placed at the inlier rows, so no (N_R x C) gather is made.
The variance solve v = L^{-1} G_Cx runs one row block of G_xC at a time, each
gathered into the same block buffer and overwritten by its solve.  A is
factored and solved without SciPy's finiteness scans, each a boolean mask of
A's size: the Gram was checked finite when it was assembled, and the noise
is checked at the entry.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

from .core import NoAnnotationError, NumericalError, PosteriorDeformation, buffer_view, row_blocks
from .kernels import GramMatrix


def _chol(a: np.ndarray, what: str):
    """Lower Cholesky factor of the symmetric `a`, overwriting it: a.T is the
    Fortran-ordered view LAPACK factors without a copy.  `a` must be finite:
    SciPy's scan for that would make a boolean mask of its size."""
    try:
        return cho_factor(a.T, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError as exc:
        raise NumericalError(f"{what} factorization failed after jitter: {exc}") from exc


def gpr_posterior(
    gram: GramMatrix,
    inliers: np.ndarray,
    delta_hat: np.ndarray,
    sigma2_eff: np.ndarray,
    *,
    work: Optional[np.ndarray] = None,
) -> PosteriorDeformation:
    """Posterior deformation at every reference point given inlier labels.

    inliers:    (C,) reference indices carrying labels.
    delta_hat:  (C, d) fused deformations, aligned with `inliers`.
    sigma2_eff: (C,) per-label noise variances, positive and finite.
    work:       flat float buffer of at least C*C entries that A is gathered
                into and factored in; a new one when None.  Its contents are
                overwritten.

    Returns the mean for all N_R points (missing points are predicted from
    the prior cross-covariance alone) and the per-point variance scalar
    var_diag with block covariance var_diag[i] * I_d; with a low-rank term,
    a prior on the weights of its basis U, var_diag[i] is the block trace
    divided by d.  var_diag is clamped at 0 against rounding.  Solves add
    gram.jitter, the value the Gram matrix was checked with.
    """
    inliers = np.asarray(inliers, dtype=int)
    delta_hat = np.atleast_2d(np.asarray(delta_hat, dtype=float))
    sigma2_eff = np.asarray(sigma2_eff, dtype=float)
    if inliers.size == 0:
        raise NoAnnotationError("posterior needs at least one labelled point")
    # also False for NaN; with the Gram finite (see assemble_gram), this
    # makes the observed block finite, so its factorization need not scan it
    if not np.all((0.0 < sigma2_eff) & (sigma2_eff < np.inf)):
        raise ValueError("sigma2_eff must be positive and finite")

    g, n, c = gram.g, gram.n, inliers.size
    if inliers.min() < 0 or inliers.max() >= n:
        raise IndexError("inliers must index the reference points")

    # A = G_CC one row block at a time: the block's rows of g are gathered
    # into one (block, N_R) buffer, then their inlier columns into A; "wrap"
    # writes into out unbuffered
    a = buffer_view(work, (c, c))
    g_rows = np.empty((row_blocks(c)[0].stop, n))
    for blk in row_blocks(c):
        rows = np.take(g, inliers[blk], axis=0, out=g_rows[: blk.stop - blk.start], mode="wrap")
        np.take(rows, inliers, axis=1, out=a[blk], mode="wrap")
    del g_rows, rows
    a[np.diag_indices_from(a)] += sigma2_eff + gram.jitter
    factor = _chol(a, "observed-block")
    # A^{-1} labels, the weights of the mean; non-finite labels give a
    # non-finite mean, which PosteriorDeformation rejects
    w = cho_solve(factor, delta_hat, check_finite=False)
    mu_lowrank, d_var = 0.0, 0.0
    if gram.lowrank_u is not None:
        w, mu_lowrank, d_var = _lowrank_correction(gram, inliers, factor, w)
    mu = g @ _scatter(n, inliers, w) + mu_lowrank

    # v = L^-1 G_Cx one row block of G_xC at a time: take() gathers the block
    # C-ordered into one buffer, whose transpose is the Fortran-ordered
    # right-hand side the solve overwrites in place
    blocks = row_blocks(n)
    g_bc = np.empty((blocks[0].stop, c))
    v_sq = np.empty(n)
    for blk in blocks:
        # the indices were checked above; "wrap" writes into out unbuffered
        rhs = np.take(g[blk], inliers, axis=1, out=g_bc[: blk.stop - blk.start], mode="wrap")
        v = solve_triangular(factor[0], rhs.T, lower=True, overwrite_b=True, check_finite=False)
        v_sq[blk] = np.einsum("ij,ij->j", v, v)
    var = np.diag(g) - v_sq + d_var
    return PosteriorDeformation(mu=mu, var_diag=np.maximum(var, 0.0))


def _scatter(n: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(n, k) zeros with the rows of the (len(rows), k) `values` at `rows`, so
    g @ _scatter(...) is G_xC values without gathering G_xC."""
    out = np.zeros((n, values.shape[1]))
    out[rows] = values
    return out


def _lowrank_correction(gram: GramMatrix, inliers, factor, alpha):
    """What the term U diag(lam) U^T, a prior N(0, diag(lam)) on the weights b
    of the basis U (Rasmussen & Williams 2006, sec. 2.7), changes in the
    scalar posterior: the weights w of the mean's scalar part g @ scatter(w),
    the mean's low-rank part U b, and the variance term."""
    g, u, lam, d, n = gram.g, gram.lowrank_u, gram.lowrank_lam, gram.dim, gram.n
    c, m = inliers.size, lam.size
    u_c = u[(inliers[:, None] * d + np.arange(d)).ravel()]  # (c*d, m)

    # z = (A (x) I_d)^{-1} U_C and S^{-1} = diag(1/lam) + U_C^T z
    z = cho_solve(factor, u_c.reshape(c, -1), check_finite=False).reshape(u_c.shape)
    s_inv = np.diag(1.0 / lam) + u_c.T @ z
    s_factor = _chol(0.5 * (s_inv + s_inv.T), "low-rank weight precision")

    # b = S U_C^T alpha, the weights' posterior mean
    b = cho_solve(s_factor, u_c.T @ alpha.reshape(-1))
    w = alpha - (z @ b).reshape(c, d)

    # per-point block traces over d of R S R^T, R = U - (g (x) I) z: the
    # column sums of |L_S^{-1} R^T|^2, a sum of squares, never negative
    r = u - (g @ _scatter(n, inliers, z.reshape(c, d * m))).reshape(n * d, m)
    t = solve_triangular(s_factor[0], r.T, lower=True)
    return w, (u @ b).reshape(n, d), np.sum(t.reshape(m, n, d) ** 2, axis=(0, 2)) / d


__all__ = ["gpr_posterior"]
