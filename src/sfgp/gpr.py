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

The posterior is built from kernel blocks (see kernels.GPPrior), and the dense
work allocates only what it returns, besides row blocks of core.ROW_BLOCK
rows.  A's upper triangle is filled from kernel blocks of the inlier points
into the caller's workspace (a registration passes the buffer its P used)
and factored there in place.  Then one loop runs over row blocks of the
reference: each block k(x_blk, x_C) gives the mean rows k w, with
w = A^{-1} labels (and k z for the low-rank term), before the triangular
solve v = L^{-1} k(x_C, x_blk) overwrites it for the variance.  A is
factored and solved without SciPy's finiteness scans, each a boolean mask of
A's size: a prior with a finite k0 has finite kernel blocks, and the noise
is checked at the entry.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

from .core import (
    AllMissingError, NumericalError, PosteriorDeformation, buffer_view, gemm, row_blocks,
)
from .kernels import GPPrior


def _chol(a: np.ndarray, what: str):
    """Lower Cholesky factor of the symmetric `a`, overwriting it: a.T is the
    Fortran-ordered view LAPACK factors without a copy, reading its lower
    triangle, the upper one of `a`.  `a` must be finite: SciPy's scan for
    that would make a boolean mask of its size."""
    try:
        return cho_factor(a.T, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError as exc:
        raise NumericalError(f"{what} factorization failed after jitter: {exc}") from exc


def gpr_posterior(
    prior: GPPrior,
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
    work:       flat float buffer of at least C*C entries that A is filled
                and factored in; a new one when None.  Its contents are
                overwritten.

    Returns the mean for all N_R points (missing points are predicted from
    the prior cross-covariance alone) and the per-point variance scalar
    var_diag with block covariance var_diag[i] * I_d; with a low-rank term,
    a prior on the weights of its basis U, var_diag[i] is the block trace
    divided by d.  var_diag is clamped at 0 against rounding.  Solves add
    prior.jitter to the noise.  Raises NumericalError when A is not
    positive definite in floating point.
    """
    inliers = np.asarray(inliers, dtype=int)
    delta_hat = np.atleast_2d(np.asarray(delta_hat, dtype=float))
    sigma2_eff = np.asarray(sigma2_eff, dtype=float)
    if inliers.size == 0:
        raise AllMissingError("posterior needs at least one labelled point")
    # also False for NaN; with the kernel finite (see gp_prior), this makes
    # the observed block finite, so its factorization need not scan it
    if not np.all((0.0 < sigma2_eff) & (sigma2_eff < np.inf)):
        raise ValueError("sigma2_eff must be positive and finite")

    n, d, c = prior.n, prior.dim, inliers.size
    if inliers.min() < 0 or inliers.max() >= n:
        raise IndexError("inliers must index the reference points")

    factor = _chol(prior.upper_gram(inliers, sigma2_eff + prior.jitter, work=work),
                   "observed-block")
    # A^{-1} labels, the weights of the mean; non-finite labels give a
    # non-finite mean, which PosteriorDeformation rejects
    w = cho_solve(factor, delta_hat, check_finite=False)
    lowrank = prior.lowrank_u is not None
    if lowrank:
        w, b, z, s_factor = _lowrank_weights(prior, inliers, factor, w)
    mu = np.empty((n, d))
    var = np.full(n, prior.k0)

    # one pass over row blocks of k(x, x_C), each evaluated into one block
    # buffer: its transpose is the Fortran-ordered right-hand side the
    # variance solve overwrites in place
    blocks = row_blocks(n)
    buf = np.empty(blocks[0].stop * c)
    for blk in blocks:
        kb = prior.block(blk, inliers, out=buffer_view(buf, (blk.stop - blk.start, c)))
        gemm(kb, w, out=mu[blk])
        if lowrank:
            var[blk] += _lowrank_variance(prior, blk, kb, z, s_factor)
        v = solve_triangular(factor[0], kb.T, lower=True, overwrite_b=True, check_finite=False)
        var[blk] -= np.einsum("ij,ij->j", v, v)
    if lowrank:
        mu += gemm(prior.lowrank_u, b).reshape(n, d)
    return PosteriorDeformation(mu=mu, var_diag=np.maximum(var, 0.0))


def _lowrank_weights(prior: GPPrior, inliers, factor, alpha):
    """What the term U diag(lam) U^T, a prior N(0, diag(lam)) on the weights b
    of the basis U (Rasmussen & Williams 2006, sec. 2.7), changes in the
    scalar posterior: the weights w of the mean's scalar part k w, the
    weights' posterior mean b, z = (A (x) I_d)^{-1} U_C as a (C, d m) array,
    and the Cholesky factor of their posterior precision S^{-1}."""
    u, lam, d = prior.lowrank_u, prior.lowrank_lam, prior.dim
    c, m = inliers.size, lam.size
    u_c = u[(inliers[:, None] * d + np.arange(d)).ravel()]  # (c*d, m)

    # S^{-1} = diag(1/lam) + U_C^T z
    z = cho_solve(factor, u_c.reshape(c, -1), check_finite=False)
    z_rows = z.reshape(c * d, m)
    s_inv = np.diag(1.0 / lam) + gemm(u_c.T, z_rows)
    s_factor = _chol(0.5 * (s_inv + s_inv.T), "low-rank weight precision")

    # b = S U_C^T alpha
    b = cho_solve(s_factor, gemm(u_c.T, alpha.reshape(-1, 1)))
    w = alpha - gemm(z_rows, b).reshape(c, d)
    return w, b, z, s_factor


def _lowrank_variance(prior: GPPrior, blk: slice, kb, z, s_factor) -> np.ndarray:
    """The low-rank term's share of the variance of the points in blk, from
    their kernel block kb = k(x_blk, x_C): the block traces over d of
    R S R^T, R = U - (k (x) I) z, that is the column sums of
    |L_S^{-1} R^T|^2, a sum of squares, never negative."""
    d, m = prior.dim, prior.lowrank_lam.size
    nb = blk.stop - blk.start
    r = prior.lowrank_u[blk.start * d : blk.stop * d] - gemm(kb, z).reshape(nb * d, m)
    t = solve_triangular(s_factor[0], r.T, lower=True)
    return np.sum(t.reshape(m, nb, d) ** 2, axis=(0, 2)) / d


__all__ = ["gpr_posterior"]
