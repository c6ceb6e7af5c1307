"""Shared domain types for the registration engine.

All containers are frozen value objects: once constructed they are never
mutated, so they can be shared freely across threads and processes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree


class SFGPError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SFGPError, ValueError):
    """A configuration field violates its allowed range."""


class NumericalError(SFGPError):
    """A matrix factorization failed even after jitter stabilization."""


class AnchorMismatchError(SFGPError):
    """A data-driven kernel was evaluated at points other than its anchor set."""


class UnsupportedKernelEvaluation(SFGPError):
    """The kernel has no pointwise closed form (discrete kernels only)."""


class RankTooLargeError(SFGPError, ValueError):
    """Requested more principal components than the data spectrum supports."""


class NoAnnotationError(SFGPError):
    """The GP posterior was asked for without any labelled reference point."""


class AllMissingError(SFGPError):
    """Every reference point fell below the correspondence threshold."""


class NoMassError(SFGPError):
    """The responsibility matrix carries no mass at all."""


class DegenerateInstanceError(SFGPError):
    """A perturbation removed the entire point set."""


@dataclass(frozen=True)
class PointSet:
    """An ordered set of d-dimensional points with stable integer ids.

    points: (N, d) float array, arbitrary length units.
    ids:    permutation of 0..N-1; defaults to 0..N-1 in row order.
    """

    points: np.ndarray
    ids: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty (N, d) array")
        if pts.shape[1] not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {pts.shape[1]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)
        ids = self.ids
        if ids is None:
            ids = np.arange(pts.shape[0])
        ids = np.asarray(ids, dtype=int)
        if sorted(ids.tolist()) != list(range(pts.shape[0])):
            raise ValueError("ids must be a permutation of 0..N-1")
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def with_points(self, points: np.ndarray) -> "PointSet":
        return PointSet(points=points, ids=self.ids.copy())


VARIANCE_MODES = ("per_point", "scalar")
THRESHOLD_MODES = ("on", "off")
CORRESPONDENCE_MODES = ("multi_annotator", "closest_point")


@dataclass(frozen=True)
class RegistrationConfig:
    """Tunable parameters of a registration run.

    sigma2_init and jitter may be None, meaning scale-aware defaults are
    derived from the reference shape (squared mean nearest-neighbor
    distance) and the Gram diagonal respectively.
    """

    omega: float = 0.0
    p_min: float = 0.01
    sigma2_init: Optional[float] = None
    max_iters: int = 200
    rel_tol: float = 1e-5
    jitter: Optional[float] = None
    variance_mode: str = "per_point"
    threshold_mode: str = "on"
    correspondence_mode: str = "multi_annotator"


def validate_config(cfg: RegistrationConfig) -> RegistrationConfig:
    """Return cfg unchanged if every field is in range, else raise ConfigError."""
    if not 0.0 <= cfg.omega < 1.0:
        raise ConfigError("omega must be < 1 and >= 0")
    if not 0.0 < cfg.p_min < 1.0:
        raise ConfigError("p_min must be in (0, 1)")
    if cfg.sigma2_init is not None and cfg.sigma2_init <= 0.0:
        raise ConfigError("sigma2_init must be positive")
    if cfg.max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    if cfg.rel_tol < 0.0:
        raise ConfigError("rel_tol must be >= 0")
    if cfg.jitter is not None and cfg.jitter < 0.0:
        raise ConfigError("jitter must be >= 0")
    if cfg.variance_mode not in VARIANCE_MODES:
        raise ConfigError(f"variance_mode must be one of {VARIANCE_MODES}")
    if cfg.threshold_mode not in THRESHOLD_MODES:
        raise ConfigError(f"threshold_mode must be one of {THRESHOLD_MODES}")
    if cfg.correspondence_mode not in CORRESPONDENCE_MODES:
        raise ConfigError(f"correspondence_mode must be one of {CORRESPONDENCE_MODES}")
    return cfg


def default_sigma2_init(reference: PointSet) -> float:
    """Squared mean nearest-neighbor distance of the reference points."""
    if reference.n < 2:
        raise ValueError("need at least 2 points for a nearest-neighbor scale")
    tree = cKDTree(reference.points)
    dist, _ = tree.query(reference.points, k=2)
    return float(np.mean(dist[:, 1]) ** 2)


@dataclass(frozen=True)
class CorrespondenceState:
    """Soft correspondences and the inlier/missing partition they induce.

    P:       (N_R, N_S) responsibilities, entries in [0, 1].
    nu:      expected match count per reference point, summed over the
             full row of P (not only above-threshold pairs).
    inliers: reference indices with at least one above-threshold entry
             in their row of P (sorted).
    missing: the complementary reference indices (sorted).
    """

    P: np.ndarray
    nu: np.ndarray
    inliers: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        n_r = self.P.shape[0]
        part = np.concatenate([self.inliers, self.missing])
        if sorted(part.tolist()) != list(range(n_r)):
            raise ValueError("inliers and missing must partition 0..N_R-1")


@dataclass(frozen=True)
class AnnotatedDeformations:
    """Precision-fused deformation labels for the inlier reference points.

    delta_hat:  (C, d) fused deformation per inlier, aligned with the
                inlier index order of the owning CorrespondenceState.
    sigma2_eff: (C,) effective noise variance per inlier.
    """

    delta_hat: np.ndarray
    sigma2_eff: np.ndarray

    def __post_init__(self):
        if np.any(self.sigma2_eff <= 0.0):
            raise ValueError("sigma2_eff must be strictly positive")


@dataclass(frozen=True)
class PosteriorDeformation:
    """Posterior mean displacement and per-point variance scalars.

    The posterior covariance of point i is var_diag[i] * I_d; only this
    scalar diagonal is ever materialized.
    """

    mu: np.ndarray        # (N_R, d)
    var_diag: np.ndarray  # (N_R,)

    def __post_init__(self):
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.var_diag))):
            raise ValueError("posterior must be finite")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    mean_disp_change: float
    n_inliers: int
    n_missing: int
    mean_sigma2: float
    elapsed_s: float


@dataclass(frozen=True)
class RegistrationResult:
    """Output of a registration run.

    failed is True when the first iteration finds no deformations at all;
    failure_reason distinguishes that case ("first_iteration") from a
    mid-run correspondence collapse ("mid_run_collapse").
    """

    deformed_reference: PointSet
    state: Optional[CorrespondenceState]
    posterior: Optional[PosteriorDeformation]
    sigma2: np.ndarray
    iters: int
    converged: bool
    failed: bool
    failure_reason: Optional[str] = None
    trace: tuple = ()


__all__ = [
    "SFGPError",
    "ConfigError",
    "NumericalError",
    "AnchorMismatchError",
    "UnsupportedKernelEvaluation",
    "RankTooLargeError",
    "NoAnnotationError",
    "AllMissingError",
    "NoMassError",
    "DegenerateInstanceError",
    "PointSet",
    "RegistrationConfig",
    "validate_config",
    "default_sigma2_init",
    "CorrespondenceState",
    "AnnotatedDeformations",
    "PosteriorDeformation",
    "IterationRecord",
    "RegistrationResult",
]
