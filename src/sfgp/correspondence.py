"""Soft correspondence between a deformed reference and a target shape.

Each target point is explained by a mixture over reference points (isotropic
Gaussian per reference point, individual variance) plus a uniform outlier
component with weight omega.  Responsibilities feed the fusion, which forms
the precision-fused deformation labels and the inlier/missing partition in
one pass, and the expected match counts used by the variance update.

P is the one (N_R, N_S) array of a correspondence step, written to the
caller's `out` buffer (a view of the registration workspace) when one is
given: the kept weights W of the fusion, the row moments of P the variance
update reads, and the distances of the closest-point baseline are formed one
row block (core.ROW_BLOCK rows) at a time, each W block in one block buffer
that also holds its mask.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    AllMissingError,
    AnnotatedDeformations,
    CorrespondenceState,
    PointSet,
    gemm,
    row_blocks,
    sq_dists,
)

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class ResponsibilityInputs:
    """Inputs of one responsibility update.

    sigma2:   (N_R,) per-reference mixture variances, strictly positive.
    post_var: (N_R,) posterior variance scalars from the previous fit
              (block trace is dim * post_var), nonnegative.
    """

    target: PointSet
    deformed_ref: PointSet
    sigma2: np.ndarray
    post_var: np.ndarray
    omega: float

    def __post_init__(self):
        if not np.all(self.sigma2 > 0.0):  # also False for NaN
            raise ValueError("sigma2 must be strictly positive")
        if not np.all(self.post_var >= 0.0):
            raise ValueError("post_var must be nonnegative")
        if not 0.0 <= self.omega < 1.0:
            raise ValueError("omega must be in [0, 1)")


def responsibilities(
    inputs: ResponsibilityInputs, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """(N_R, N_S) matrix of correspondence probabilities.

    Column j holds the posterior probabilities that target point j was
    generated by each reference point, against the uniform outlier
    alternative.  Densities are handled in log space with a per-column max
    shift; the outlier mass enters through log-add, so no column ever
    produces NaN.  A column that underflows entirely with omega = 0 is
    returned as zeros and reported in a logged warning.

    The squared distances, the log-densities and the result share one
    (N_R, N_S) buffer, `out` (C-ordered) or a new array when out is None: it
    is shifted, exponentiated once and rescaled per column in place.
    """
    r_bar = inputs.deformed_ref.points
    s = inputs.target.points
    n_r, d = r_bar.shape
    n_s = s.shape[0]
    sigma2 = np.asarray(inputs.sigma2, dtype=float)
    post_var = np.asarray(inputs.post_var, dtype=float)
    omega = float(inputs.omega)

    # overflow to inf is fine here: it encodes a density of exactly zero
    with np.errstate(over="ignore"):
        p = sq_dists(r_bar, s, out=out)
        # weighted log-density with the posterior-spread discount per reference point
        p += (d * post_var)[:, None]
        p /= (2.0 * sigma2)[:, None]
        np.subtract((-0.5 * d * np.log(2.0 * np.pi * sigma2))[:, None], p, out=p)

    col_max = np.max(p, axis=0)
    dead = ~np.isfinite(col_max)
    col_max_safe = np.where(dead, 0.0, col_max)
    p -= col_max_safe
    np.exp(p, out=p)  # dead columns are all -inf and become exact zeros
    col_sum = np.sum(p, axis=0)

    if omega == 0.0:
        col_sum[dead] = 1.0
        p /= col_sum
    else:
        with np.errstate(divide="ignore"):
            log_denom = np.logaddexp(
                np.log(omega * n_r / n_s),
                np.log1p(-omega) + col_max_safe + np.log(col_sum),
            )
        p *= np.exp(np.log1p(-omega) + col_max_safe - log_denom)

    n_dead = int(np.sum(dead))
    if n_dead and omega == 0.0:
        logger.warning("responsibilities: %d fully underflowed columns", n_dead)
    return p


def get_correspondences(
    inputs: ResponsibilityInputs, p_min: float, *, out: Optional[np.ndarray] = None
) -> Tuple[CorrespondenceState, AnnotatedDeformations]:
    """Responsibilities, partition, and fused labels in one pass.

    Every pair (i, j) with p_ij > p_min annotates reference point i with the
    label s_j - r_bar_i at variance sigma2_i / p_ij; see `_fuse`.  P is
    formed in `out` as by `responsibilities`.
    """
    p = responsibilities(inputs, out=out)
    return _fuse(p, inputs.target, inputs.deformed_ref, inputs.sigma2, p_min)


def _fuse(
    p: np.ndarray, target: PointSet, deformed_ref: PointSet, sigma2: np.ndarray, p_min: float
) -> Tuple[CorrespondenceState, AnnotatedDeformations]:
    """Fuse the labels of the kept pairs, p_ij > p_min, and partition `p`.

    The precision-weighted fusion is the closed-form barycentre over
    W = P * [P > p_min]: delta_hat_i = (W S)_i / sum_j W_ij - r_bar_i and
    sigma2_eff_i = sigma2_i / sum_j W_ij.  Point i is an inlier exactly when
    sigma2_eff_i is finite; with no kept pair, or kept mass so small that the
    division overflows, its label has infinite noise, which is no label, and
    it is missing.

    The state also carries the row moments ps = P S and pss = P |s|^2, so the
    variance update needs no P.  W, nu, the kept mass, W S and the moments
    are formed in one pass over the row blocks, W in one block buffer, so no
    full-size copy of P is made.  The pass runs under errstate: a squared
    norm that overflows gives an infinite moment, not a warning.
    """
    n_r, d = p.shape[0], target.dim
    blocks = row_blocks(n_r)
    w = np.empty((blocks[0].stop, p.shape[1]))
    nu, mass, num = np.empty(n_r), np.empty(n_r), np.empty((n_r, d))
    moments = np.empty((n_r, d + 1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s_aug = np.column_stack([target.points, np.sum(target.points**2, axis=1)])
        for blk in blocks:
            # [P > p_min] * P, the mask written as 1.0 / 0.0 into the block
            # buffer, equals np.where(P > p_min, P, 0): P is finite and >= 0
            w_blk = np.greater(p[blk], p_min, out=w[: blk.stop - blk.start])
            w_blk *= p[blk]
            nu[blk] = p[blk].sum(axis=1)
            mass[blk] = w_blk.sum(axis=1)
            gemm(w_blk, target.points, out=num[blk])
            gemm(p[blk], s_aug, out=moments[blk])
        noise = sigma2 / mass
    inliers = np.isfinite(noise)
    if not inliers.any():
        raise AllMissingError("no reference point has a label of finite noise")
    state = CorrespondenceState(
        P=p, nu=nu, ps=moments[:, :d], pss=moments[:, d],
        inliers=np.flatnonzero(inliers), missing=np.flatnonzero(~inliers),
    )
    delta_hat = num[inliers]  # a copy, divided and shifted in place
    delta_hat /= mass[inliers, None]
    delta_hat -= deformed_ref.points[inliers]
    ann = AnnotatedDeformations(delta_hat=delta_hat, sigma2_eff=noise[inliers])
    return state, ann


def closest_point_correspondence(
    target: PointSet, deformed_ref: PointSet, sigma_n2: float, *,
    out: Optional[np.ndarray] = None,
) -> Tuple[CorrespondenceState, AnnotatedDeformations]:
    """Hard assignment baseline: each reference point annotates to its
    Euclidean-nearest target point with uniform variance; nothing is ever
    declared missing.  Ties break to the lowest target index.

    The one-hot P, written to `out` when one is given, goes through the same
    fusion as `get_correspondences` at p_min = 0, which keeps exactly the
    nearest pair of every row.
    """
    if sigma_n2 <= 0.0:
        raise ValueError("sigma_n2 must be positive")
    n_r = deformed_ref.n
    # argmin keeps ties at the lowest target index, unlike a kd-tree
    nearest = np.concatenate([
        np.argmin(sq_dists(deformed_ref.points[blk], target.points), axis=1)
        for blk in row_blocks(n_r)
    ])
    p = np.empty((n_r, target.n)) if out is None else out
    p.fill(0.0)
    p[np.arange(n_r), nearest] = 1.0
    return _fuse(p, target, deformed_ref, np.full(n_r, float(sigma_n2)), 0.0)


__all__ = [
    "ResponsibilityInputs",
    "responsibilities",
    "get_correspondences",
    "closest_point_correspondence",
]
