"""Gaussian process regression on observed deformations.

Each inlier reference point carries one fused deformation label with its own
noise variance (heteroscedastic regression); the correspondence layer fuses
the candidate annotations by precision weighting before they reach the solver.

The scalar part of the kernel gives the stacked covariance G (x) I_d, so the
predictive mean and variance come from one Cholesky factorization of the
(C x C) matrix A = G_CC + diag(sigma2) applied to the d coordinate columns.
A low-rank coordinate-coupling term U diag(lam) U^T, when present, adds a
correction on top of that solve: the matrix inversion lemma reuses the factor
of A and needs only an (m x m) capacitance factorization more.

The dense work allocates only what it returns, besides one (C x C) and one
(N_R x C) buffer: A is factored in place, and the variance solve
v = L^{-1} G_Cx overwrites the gathered cross-covariance G_xC once the mean
and the low-rank correction have used it.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

from .core import NoAnnotationError, NumericalError, PosteriorDeformation
from .kernels import GramMatrix


def _chol(a: np.ndarray, what: str):
    """Lower Cholesky factor of the symmetric `a`, overwriting it: a.T is the
    Fortran-ordered view LAPACK factors without a copy."""
    try:
        return cho_factor(a.T, lower=True, overwrite_a=True)
    except LinAlgError as exc:
        raise NumericalError(f"{what} factorization failed after jitter: {exc}") from exc


def gpr_posterior(
    gram: GramMatrix,
    inliers: np.ndarray,
    delta_hat: np.ndarray,
    sigma2_eff: np.ndarray,
) -> PosteriorDeformation:
    """Posterior deformation at every reference point given inlier labels.

    inliers:    (C,) reference indices carrying labels.
    delta_hat:  (C, d) fused deformations, aligned with `inliers`.
    sigma2_eff: (C,) per-label noise variances, strictly positive.

    Returns the mean for all N_R points (missing points are predicted from
    the prior cross-covariance alone) and the per-point variance scalar
    var_diag with block covariance var_diag[i] * I_d; with a low-rank term
    var_diag[i] is the block trace divided by d.  var_diag is clamped at 0
    against rounding.  Solves add gram.jitter, the value the Gram matrix was
    checked with.
    """
    inliers = np.asarray(inliers, dtype=int)
    delta_hat = np.atleast_2d(np.asarray(delta_hat, dtype=float))
    sigma2_eff = np.asarray(sigma2_eff, dtype=float)
    if inliers.size == 0:
        raise NoAnnotationError("posterior needs at least one labelled point")
    if np.any(sigma2_eff <= 0.0):
        raise ValueError("sigma2_eff must be strictly positive")

    g = gram.g
    a = g[np.ix_(inliers, inliers)]  # fancy indexing copies
    a[np.diag_indices_from(a)] += sigma2_eff + gram.jitter
    factor = _chol(a, "observed-block")
    alpha = cho_solve(factor, delta_hat)
    # take() gathers G_xC C-ordered, so G_Cx = g_xc.T is the Fortran-ordered
    # right-hand side the variance solve overwrites in place
    g_xc = np.take(g, inliers, axis=1)
    mu = g_xc @ alpha
    d_var = 0.0
    if gram.lowrank_u is not None:
        d_mu, d_var = _lowrank_correction(gram, inliers, factor, g_xc, alpha, delta_hat)
        mu += d_mu
    v = solve_triangular(factor[0], g_xc.T, lower=True, overwrite_b=True)
    var = np.diag(g) - np.einsum("ij,ij->j", v, v) + d_var
    return PosteriorDeformation(mu=mu, var_diag=np.maximum(var, 0.0))


def _lowrank_correction(gram: GramMatrix, inliers, factor, g_xc, alpha, delta_hat):
    """What the term U diag(lam) U^T adds to the scalar posterior mean and
    variance, through the inversion lemma on the scalar factor of A."""
    u, lam, d, n = gram.lowrank_u, gram.lowrank_lam, gram.dim, gram.n
    c, m = inliers.size, lam.size
    u_c = u[(inliers[:, None] * d + np.arange(d)).ravel()]  # (c*d, m)

    z = cho_solve(factor, u_c.reshape(c, -1)).reshape(u_c.shape)  # (A (x) I_d)^{-1} U_C
    ucz = u_c.T @ z
    cap = np.diag(1.0 / lam) + ucz  # capacitance matrix
    cap_factor = _chol(0.5 * (cap + cap.T), "low-rank capacitance")

    # mean: w, the fully corrected solve of the labels, is alpha minus the
    # capacitance term; mu = K_{R R_C} w
    corr = (z @ cho_solve(cap_factor, z.T @ delta_hat.reshape(-1))).reshape(c, d)
    w = alpha - corr
    d_mu = (u @ (lam * (u_c.T @ w.reshape(-1)))).reshape(n, d) - g_xc @ corr

    # variance: per-point block traces of the prior, cross, middle and
    # capacitance terms of K - K_{R R_C} M^{-1} K_{R_C R}, over d
    u_r = u.reshape(n, d, m)
    y1 = np.einsum("nc,cdm->ndm", g_xc, z.reshape(c, d, m))  # (g (x) I) A^{-1} U_C rows
    prior = np.einsum("iak,k->i", u_r**2, lam)
    cross = np.einsum("iak,k,iak->i", y1, lam, u_r)
    mid = np.einsum("iak,kl,ial->i", u_r, (lam[:, None] * ucz) * lam[None, :], u_r)
    y = y1.reshape(n * d, m) + u @ (lam[:, None] * ucz)
    t = solve_triangular(cap_factor[0], y.T, lower=True)
    capacitance = np.sum(t.reshape(m, n, d) ** 2, axis=(0, 2))
    return d_mu, (prior - 2.0 * cross - mid + capacitance) / d


__all__ = ["gpr_posterior"]
