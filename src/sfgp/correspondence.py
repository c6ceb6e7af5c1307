"""Soft correspondence between a deformed reference and a target shape.

Each target point is explained by a mixture over reference points (isotropic
Gaussian per reference point, individual variance) plus a uniform outlier
component with weight omega.  Responsibilities feed three consumers: the
inlier/missing partition, the precision-fused deformation labels, and the
expected match counts used by the variance update.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (
    AllMissingError,
    AnnotatedDeformations,
    CorrespondenceState,
    PointSet,
)

logger = logging.getLogger(__name__)

# columns whose mixture weight underflowed entirely with omega = 0
underflow_column_count = 0


def reset_diagnostics() -> None:
    global underflow_column_count
    underflow_column_count = 0


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
        if np.any(self.sigma2 <= 0.0):
            raise ValueError("sigma2 must be strictly positive")
        if np.any(self.post_var < 0.0):
            raise ValueError("post_var must be nonnegative")
        if not 0.0 <= self.omega < 1.0:
            raise ValueError("omega must be in [0, 1)")


def responsibilities(inputs: ResponsibilityInputs) -> np.ndarray:
    """(N_R, N_S) matrix of correspondence probabilities.

    Column j holds the posterior probabilities that target point j was
    generated by each reference point, against the uniform outlier
    alternative.  Densities are handled in log space with a per-column max
    shift; the outlier mass enters through log-add, so no column ever
    produces NaN.  A column that underflows entirely with omega = 0 is
    returned as zeros and counted in `underflow_column_count`.
    """
    global underflow_column_count
    r_bar = inputs.deformed_ref.points
    s = inputs.target.points
    n_r, d = r_bar.shape
    n_s = s.shape[0]
    sigma2 = np.asarray(inputs.sigma2, dtype=float)
    post_var = np.asarray(inputs.post_var, dtype=float)
    omega = float(inputs.omega)

    # overflow to inf is fine here: it encodes a density of exactly zero
    with np.errstate(over="ignore"):
        sq = (
            np.sum(r_bar**2, axis=1)[:, None]
            + np.sum(s**2, axis=1)[None, :]
            - 2.0 * r_bar @ s.T
        )
        np.maximum(sq, 0.0, out=sq)
        # weighted density with the posterior-spread discount per reference point
        log_phi = (
            -0.5 * d * np.log(2.0 * np.pi * sigma2)[:, None]
            - (sq + d * post_var[:, None]) / (2.0 * sigma2[:, None])
        )

    col_max = np.max(log_phi, axis=0)
    dead = ~np.isfinite(col_max)
    col_max_safe = np.where(dead, 0.0, col_max)
    scaled = np.exp(log_phi - col_max_safe[None, :])
    col_sum = np.sum(scaled, axis=0)

    p = np.zeros((n_r, n_s))
    live = ~dead
    if omega == 0.0:
        p[:, live] = scaled[:, live] / col_sum[live]
    else:
        with np.errstate(divide="ignore"):
            log_denom = np.logaddexp(
                np.log(omega * n_r / n_s),
                np.log1p(-omega) + col_max_safe + np.log(col_sum),
            )
        p[:, live] = np.exp(
            np.log1p(-omega) + log_phi[:, live] - log_denom[None, live]
        )

    n_dead = int(np.sum(dead))
    if n_dead and omega == 0.0:
        underflow_column_count += n_dead
        logger.warning("responsibilities: %d fully underflowed columns", n_dead)
    return p


def _cutoff(p_min: float, mode: str) -> float:
    return p_min if mode == "on" else 0.0


def threshold(p: np.ndarray, p_min: float, mode: str = "on") -> CorrespondenceState:
    """Partition reference points by their above-threshold correspondences.

    mode "on" keeps pairs with p_ij > p_min; mode "off" keeps every pair with
    positive probability.  Expected match counts nu are always accumulated
    over the full row so the variance update sees the total mass.
    """
    nu = p.sum(axis=1)
    has_corr = (p > _cutoff(p_min, mode)).any(axis=1)
    return CorrespondenceState(
        P=p, nu=nu, inliers=np.flatnonzero(has_corr), missing=np.flatnonzero(~has_corr)
    )


def get_correspondences(
    inputs: ResponsibilityInputs, p_min: float, mode: str = "on"
) -> Tuple[CorrespondenceState, AnnotatedDeformations]:
    """Responsibilities, partition, and fused labels in one pass.

    Every above-cutoff pair (i, j) annotates reference point i with the label
    s_j - r_bar_i at variance sigma2_i / p_ij.  Their precision-weighted
    fusion is the closed-form barycentre over W = P * [P > cutoff]:
    delta_hat_i = (W S)_i / sum_j W_ij - r_bar_i and
    sigma2_eff_i = sigma2_i / sum_j W_ij.
    """
    p = responsibilities(inputs)
    state = threshold(p, p_min, mode)
    inliers = state.inliers
    if inliers.size == 0:
        raise AllMissingError("no reference point has an above-threshold match")

    w = np.where(p > _cutoff(p_min, mode), p, 0.0)
    mass = w.sum(axis=1)[inliers]
    # fusing on the full W and indexing the (N_R, d) result avoids copying
    # the N_R x N_S rows of W[inliers]
    num = (w @ inputs.target.points)[inliers]
    ann = AnnotatedDeformations(
        delta_hat=num / mass[:, None] - inputs.deformed_ref.points[inliers],
        sigma2_eff=inputs.sigma2[inliers] / mass,
    )
    return state, ann


def closest_point_correspondence(
    target: PointSet, deformed_ref: PointSet, sigma_n2: float
) -> Tuple[CorrespondenceState, AnnotatedDeformations]:
    """Hard assignment baseline: each reference point annotates to its
    Euclidean-nearest target point with uniform variance; nothing is ever
    declared missing.  Ties break to the lowest target index.
    """
    if sigma_n2 <= 0.0:
        raise ValueError("sigma_n2 must be positive")
    r_bar = deformed_ref.points
    s = target.points
    n_r = r_bar.shape[0]
    # chunked argmin keeps ties at the lowest target index, unlike a kd-tree
    s_sq = np.sum(s**2, axis=1)
    nearest = np.empty(n_r, dtype=int)
    for start in range(0, n_r, 1024):
        block = r_bar[start : start + 1024]
        sq = np.sum(block**2, axis=1)[:, None] + s_sq[None, :] - 2.0 * block @ s.T
        nearest[start : start + 1024] = np.argmin(sq, axis=1)

    p = np.zeros((n_r, s.shape[0]))
    p[np.arange(n_r), nearest] = 1.0
    state = CorrespondenceState(
        P=p, nu=np.ones(n_r), inliers=np.arange(n_r), missing=np.array([], dtype=int)
    )
    ann = AnnotatedDeformations(
        delta_hat=s[nearest] - r_bar, sigma2_eff=np.full(n_r, float(sigma_n2))
    )
    return state, ann


__all__ = [
    "ResponsibilityInputs",
    "responsibilities",
    "threshold",
    "get_correspondences",
    "closest_point_correspondence",
    "reset_diagnostics",
    "underflow_column_count",
]
