"""Independent oracles shared across the test suite.

Everything here works on small dense expanded matrices and deliberately
avoids the structured code paths it is used to check.
"""
import numpy as np
from scipy.spatial import cKDTree

from sfgp.core import PointSet


def random_points(rng, n, d, min_sep=0.1, box=1.0):
    """Uniform points with a minimum pairwise separation (keeps the dense
    oracles well conditioned)."""
    pts = []
    while len(pts) < n:
        cand = rng.uniform(-box, box, size=d)
        if all(np.linalg.norm(cand - p) >= min_sep for p in pts):
            pts.append(cand)
    return np.asarray(pts)


def dense_gram(prior):
    """Scalar (N, N) Gram matrix of a GPPrior by the direct formula: the sum
    over its SE parts (a2, l) of a2 exp(-|x_i - x_j|^2 / (2 l^2)), with the
    squared distances taken from coordinate differences."""
    x = prior.points
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
    g = np.zeros_like(d2)
    for a2, ell in prior.se_parts:
        g += a2 * np.exp(-d2 / (2.0 * ell**2))
    return g


def expand_kernel(prior):
    """Full (N*d, N*d) covariance of a GPPrior, point-major layout."""
    k = np.kron(dense_gram(prior), np.eye(prior.dim))
    if prior.lowrank_u is not None:
        k = k + prior.lowrank_u @ np.diag(prior.lowrank_lam) @ prior.lowrank_u.T
    return k


def dense_gpr(prior, inliers, delta_hat, sigma2_eff, jitter):
    """Joint-normal conditioning on the expanded covariance matrix."""
    d = prior.dim
    n = prior.n
    k = expand_kernel(prior)
    coord = (np.asarray(inliers)[:, None] * d + np.arange(d)).ravel()
    noise = np.kron(np.diag(np.asarray(sigma2_eff) + jitter), np.eye(d))
    kcc = k[np.ix_(coord, coord)] + noise
    kxc = k[:, coord]
    mu = (kxc @ np.linalg.solve(kcc, np.asarray(delta_hat).reshape(-1))).reshape(n, d)
    cov = k - kxc @ np.linalg.solve(kcc, kxc.T)
    var = np.array([np.trace(cov[i * d : (i + 1) * d, i * d : (i + 1) * d]) / d for i in range(n)])
    return mu, var


def responsibilities_oracle(target_pts, rbar_pts, sigma2, post_var, omega):
    """Direct (non log-space) evaluation of the mixture responsibilities."""
    n_r, d = rbar_pts.shape
    n_s = target_pts.shape[0]
    phi = np.zeros((n_r, n_s))
    for i in range(n_r):
        for j in range(n_s):
            sq = np.sum((target_pts[j] - rbar_pts[i]) ** 2)
            base = (2.0 * np.pi * sigma2[i]) ** (-d / 2.0) * np.exp(-sq / (2.0 * sigma2[i]))
            phi[i, j] = base * np.exp(-d * post_var[i] / (2.0 * sigma2[i]))
    denom = omega * n_r / n_s + (1.0 - omega) * phi.sum(axis=0)
    return (1.0 - omega) * phi / denom[None, :]


def direct_deformation_update(g, d, p, target_pts, ref_pts, sigma2):
    """Posterior deformation straight from the dense coupled-update formulas:
    covariance (K^-1 + D_nu D_sigma^-1)^-1 and the matching mean."""
    n_r = g.shape[0]
    nu = p.sum(axis=1)
    k = np.kron(g, np.eye(d))
    d_nu = np.kron(np.diag(nu), np.eye(d))
    d_s = np.kron(np.diag(sigma2), np.eye(d))
    sigma_v = np.linalg.inv(np.linalg.inv(k) + d_nu @ np.linalg.inv(d_s))
    p_tilde = np.kron(p, np.eye(d))
    delta = np.linalg.solve(d_nu, p_tilde @ target_pts.reshape(-1)) - ref_pts.reshape(-1)
    mu = (sigma_v @ d_nu @ np.linalg.solve(d_s, delta)).reshape(n_r, d)
    var = np.array(
        [np.trace(sigma_v[i * d : (i + 1) * d, i * d : (i + 1) * d]) / d for i in range(n_r)]
    )
    return mu, var


def literal_variance_update(p, target_pts, rbar_pts, post_var):
    """Per-point variance update in its raw expanded-matrix form, as a check
    on the algebraically simplified implementation."""
    n_r, d = rbar_pts.shape
    nu = p.sum(axis=1)
    p_tilde = np.kron(p, np.eye(d))
    s = target_pts.reshape(-1)
    pss = p_tilde @ (s * s)
    ps = p_tilde @ s
    out = np.empty(n_r)
    for i in range(n_r):
        blk = slice(i * d, (i + 1) * d)
        term = (np.sum(pss[blk]) - 2.0 * rbar_pts[i] @ ps[blk]) / nu[i]
        out[i] = (term + np.sum(rbar_pts[i] ** 2) + d * post_var[i]) / d
    return out


def row_moments(p, target_pts):
    """(nu, ps, pss): the row sums of P, P S and P |s|^2, dense, the inputs
    of the variance update."""
    return p.sum(axis=1), p @ target_pts, p @ np.sum(target_pts**2, axis=1)


def kdtree_sigma2_init(points):
    """Squared mean nearest-neighbour distance from a kd-tree query; the
    second neighbour of each point is its nearest other point."""
    dist, _ = cKDTree(points).query(points, k=2)
    return float(np.mean(dist[:, 1]) ** 2)


def fibonacci_sphere(n, radius=0.5):
    """n nearly uniform points on a sphere."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    ring = np.sqrt(1.0 - z * z)
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    return radius * np.column_stack([ring * np.cos(phi), ring * np.sin(phi), z])


def pointset(pts):
    return PointSet(points=np.asarray(pts, dtype=float))
