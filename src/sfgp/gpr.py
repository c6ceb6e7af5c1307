"""Gaussian process regression on observed deformations.

Each inlier reference point carries one fused deformation label with its own
noise variance (heteroscedastic regression); the correspondence layer fuses
the candidate annotations by precision weighting before they reach the solver.

With a purely scalar kernel the stacked covariance is G (x) I_d, so the
predictive mean and variance come from a single Cholesky factorization of the
(C x C) matrix G_CC + diag(sigma2) applied to the d coordinate columns.  When
a low-rank coordinate-coupling correction U diag(lam) U^T is present, solves
go through the matrix inversion lemma against that same scalar factorization.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

from .core import NoAnnotationError, NumericalError, PosteriorDeformation
from .kernels import GramMatrix


def _chol(a: np.ndarray, what: str):
    try:
        return cho_factor(a, lower=True)
    except LinAlgError as exc:
        raise NumericalError(f"{what} factorization failed after jitter: {exc}") from exc


def gpr_posterior(
    gram: GramMatrix,
    inliers: np.ndarray,
    delta_hat: np.ndarray,
    sigma2_eff: np.ndarray,
    jitter: float = 0.0,
) -> PosteriorDeformation:
    """Posterior deformation at every reference point given inlier labels.

    inliers:    (C,) reference indices carrying labels.
    delta_hat:  (C, d) fused deformations, aligned with `inliers`.
    sigma2_eff: (C,) per-label noise variances, strictly positive.

    Returns the mean for all N_R points (missing points are predicted from
    the prior cross-covariance alone) and the per-point variance scalar
    var_diag with block covariance var_diag[i] * I_d; on the coordinate
    coupled path var_diag[i] is the block trace divided by d.
    """
    inliers = np.asarray(inliers, dtype=int)
    delta_hat = np.atleast_2d(np.asarray(delta_hat, dtype=float))
    sigma2_eff = np.asarray(sigma2_eff, dtype=float)
    if inliers.size == 0:
        raise NoAnnotationError("posterior needs at least one labelled point")
    if np.any(sigma2_eff <= 0.0):
        raise ValueError("sigma2_eff must be strictly positive")

    if gram.lowrank_u is None:
        mu, var = _posterior_isotropic(gram.g, inliers, delta_hat, sigma2_eff, jitter)
    else:
        mu, var = _posterior_lowrank(gram, inliers, delta_hat, sigma2_eff, jitter)
    var = np.maximum(var, -jitter)
    return PosteriorDeformation(mu=mu, var_diag=var)


def _posterior_isotropic(g, inliers, delta_hat, sigma2_eff, jitter):
    a = g[np.ix_(inliers, inliers)].copy()
    a[np.diag_indices_from(a)] += sigma2_eff + jitter
    factor = _chol(a, "observed-block")
    alpha = cho_solve(factor, delta_hat)
    g_xc = g[:, inliers]
    mu = g_xc @ alpha
    v = solve_triangular(factor[0], g_xc.T, lower=True)
    var = np.diag(g) - np.sum(v**2, axis=0)
    return mu, var


def _posterior_lowrank(gram: GramMatrix, inliers, delta_hat, sigma2_eff, jitter):
    g, u, lam, d = gram.g, gram.lowrank_u, gram.lowrank_lam, gram.dim
    n = gram.n
    c = inliers.size
    m = lam.size

    a = g[np.ix_(inliers, inliers)].copy()
    a[np.diag_indices_from(a)] += sigma2_eff + jitter
    factor = _chol(a, "observed-block")

    coord_idx = (inliers[:, None] * d + np.arange(d)).ravel()
    u_c = u[coord_idx]  # (c*d, m)

    def solve_base(x):
        # (A (x) I_d)^{-1} x for stacked coordinate vectors/matrices
        cols = x.reshape(c, -1)
        return cho_solve(factor, cols).reshape(x.shape)

    z = solve_base(u_c)                      # A^{-1} U_C
    cap = np.diag(1.0 / lam) + u_c.T @ z     # capacitance matrix
    cap_factor = _chol(0.5 * (cap + cap.T), "low-rank capacitance")

    def solve_full(x):
        # (A (x) I_d + U_C lam U_C^T)^{-1} x via the inversion lemma
        ax = solve_base(x)
        return ax - z @ cho_solve(cap_factor, z.T @ x)

    # mean: K_{R R_C} w with w the fully corrected solve of the labels
    w = solve_full(delta_hat.reshape(-1))
    w_mat = w.reshape(c, d)
    mu = g[:, inliers] @ w_mat + (u @ (lam * (u_c.T @ w))).reshape(n, d)

    # variance: per-point block traces of K - K_{R R_C} M^{-1} K_{R_C R}
    u_r = u.reshape(n, d, m)
    prior_tr = d * np.diag(g) + np.einsum("iak,k->i", u_r**2, lam)

    z_r = z.reshape(c, d, m)
    y1 = np.einsum("nc,cdm->ndm", g[:, inliers], z_r)      # (g (x) I) A^{-1} U_C rows
    ucz = u_c.T @ z                                        # U_C^T A^{-1} U_C
    w_mid = (lam[:, None] * ucz) * lam[None, :]

    v = solve_triangular(factor[0], g[inliers, :], lower=True)
    base_tr = d * np.sum(v**2, axis=0)
    base_tr += 2.0 * np.einsum("iak,k,iak->i", y1, lam, u_r)
    base_tr += np.einsum("iak,kl,ial->i", u_r, w_mid, u_r)

    y = y1.reshape(n * d, m) + u @ (lam[:, None] * ucz)
    t = solve_triangular(cap_factor[0], y.T, lower=True)
    sub_tr = np.sum(t.reshape(m, n, d) ** 2, axis=(0, 2))

    var = (prior_tr - base_tr + sub_tr) / d
    return mu, var


__all__ = ["gpr_posterior"]
