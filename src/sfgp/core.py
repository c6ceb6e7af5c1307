"""Shared domain types and dense helpers of the registration engine.

All containers are frozen value objects: once constructed they are never
mutated, so they can be shared freely across threads and processes.

Every dense product of a registration goes through `gemm`, that is through
SciPy's BLAS, the library that also runs the Cholesky factorizations and
triangular solves.  NumPy's matmul would run in NumPy's own copy of
OpenBLAS, whose thread pool then contends with SciPy's for the cores.  On a
2-vCPU host, 15 triangular solves of 128 right-hand sides against a factor
of order 1962 took 0.13 s alone, 0.36 s when a (128 x 3)(3 x 1962) NumPy
matmul preceded each, and 0.21 s when SciPy's dgemm made that product
(medians of 7 runs).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.blas import dgemm as _dgemm


class SFGPError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SFGPError, ValueError):
    """A configuration field violates its allowed range."""


class NumericalError(SFGPError):
    """A matrix factorization failed even after jitter stabilization."""


class AnchorMismatchError(SFGPError):
    """A data-driven kernel was evaluated at points other than its anchor set."""


class RankTooLargeError(SFGPError, ValueError):
    """Requested more principal components than the data spectrum supports."""


class NoAnnotationError(SFGPError):
    """The GP posterior was asked for without any labelled reference point."""


class AllMissingError(SFGPError):
    """No reference point has a label of finite fused noise."""


class NoMassError(SFGPError):
    """The responsibility matrix carries no mass at all."""


class DegenerateInstanceError(SFGPError):
    """A perturbation removed the entire point set."""


@dataclass(frozen=True)
class PointSet:
    """An ordered set of d-dimensional points; a point's id is its row index.

    points: (N, d) float array, arbitrary length units.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty (N, d) array")
        if pts.shape[1] not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {pts.shape[1]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


VARIANCE_MODES = ("per_point", "scalar")
CORRESPONDENCE_MODES = ("multi_annotator", "closest_point")


@dataclass(frozen=True)
class RegistrationConfig:
    """Tunable parameters of a registration run.

    sigma2_init and jitter may be None, meaning scale-aware defaults are
    derived from the reference shape (squared mean nearest-neighbor
    distance) and the Gram diagonal respectively.  p_min is the
    correspondence threshold: only pairs with p_ij > p_min annotate, so
    p_min = 0 keeps every pair of positive probability (no threshold).
    rel_tol is the stop rule: from the second iteration on, the run has
    converged once no reference point moved by more than
    rel_tol * sqrt(mean sigma2) in an iteration, so rel_tol = 0 runs to
    max_iters unless the points stop moving exactly.
    """

    omega: float = 0.0
    p_min: float = 0.01
    sigma2_init: Optional[float] = None
    max_iters: int = 200
    rel_tol: float = 1e-3
    jitter: Optional[float] = None
    variance_mode: str = "per_point"
    correspondence_mode: str = "multi_annotator"


def validate_config(cfg: RegistrationConfig) -> RegistrationConfig:
    """Return cfg unchanged if every field is in range, else raise ConfigError."""
    if not 0.0 <= cfg.omega < 1.0:
        raise ConfigError("omega must be < 1 and >= 0")
    if not 0.0 <= cfg.p_min < 1.0:
        raise ConfigError("p_min must be in [0, 1)")
    # chained comparisons are False for NaN, so these also reject it
    if cfg.sigma2_init is not None and not 0.0 < cfg.sigma2_init < np.inf:
        raise ConfigError("sigma2_init must be positive and finite")
    # bool is an int, but True is no iteration count
    if isinstance(cfg.max_iters, bool) or not isinstance(cfg.max_iters, (int, np.integer)):
        raise ConfigError(f"max_iters must be an integer, got {cfg.max_iters!r}")
    if cfg.max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    if not 0.0 <= cfg.rel_tol < np.inf:
        raise ConfigError("rel_tol must be finite and >= 0")
    if cfg.jitter is not None and not 0.0 <= cfg.jitter < np.inf:
        raise ConfigError("jitter must be finite and >= 0")
    if cfg.variance_mode not in VARIANCE_MODES:
        raise ConfigError(f"variance_mode must be one of {VARIANCE_MODES}")
    if cfg.correspondence_mode not in CORRESPONDENCE_MODES:
        raise ConfigError(f"correspondence_mode must be one of {CORRESPONDENCE_MODES}")
    return cfg


def gemm(
    a: np.ndarray, b: np.ndarray, *, out: Optional[np.ndarray] = None,
    alpha: float = 1.0, beta: float = 0.0,
) -> np.ndarray:
    """alpha * a @ b + beta * out by SciPy's dgemm (see the module
    docstring), written to `out`, a C-ordered (N, M) array, or to a new one
    when out is None.  With beta = 0 the contents of out are not read.

    a and b are read in place when C- or Fortran-ordered: in BLAS's
    column-major terms the product is out.T = alpha * b.T @ a.T + beta * out.T."""
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]))
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-ordered")
    x, trans_x = (b, 1) if b.flags.f_contiguous else (b.T, 0)
    y, trans_y = (a, 1) if a.flags.f_contiguous else (a.T, 0)
    _dgemm(alpha, x, y, beta=beta, c=out.T, trans_a=trans_x, trans_b=trans_y, overwrite_c=1)
    return out


def sq_dists(a: np.ndarray, b: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(N, M) squared Euclidean distances between the rows of a and b, as
    |a|^2 + |b|^2 - 2ab clamped at 0 against cancellation.

    The product -2 a b^T is written to `out`, a C-ordered (N, M) array, or to
    a new one when out is None; the norms are added to it in place, so
    callers may overwrite the result as their own buffer.  A registration
    passes a view of its workspace, and no (N, M) array is allocated."""
    d2 = gemm(a, b.T, out=out, alpha=-2.0)
    d2 += np.sum(a**2, axis=1)[:, None]
    d2 += np.sum(b**2, axis=1)[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


# Rows per block of the dense steps that reduce an (N_R, N_S) or (N_R, C)
# product, or evaluate the kernel, a block at a time instead of holding a
# second full-size array.  One block is the largest transient of a
# registration besides its workspace: 128 rows of 2000 doubles is 2 MB,
# against 32 MB for the workspace at N_R = N_S = 2000.
ROW_BLOCK = 128


def row_blocks(n: int) -> list:
    """Consecutive slices of at most ROW_BLOCK rows covering range(n); the
    first is the largest."""
    return [slice(i, min(i + ROW_BLOCK, n)) for i in range(0, n, ROW_BLOCK)]


def buffer_view(work: Optional[np.ndarray], shape: tuple) -> np.ndarray:
    """The first prod(shape) entries of the flat float buffer `work` as a
    C-ordered array of `shape`, or a new array when work is None."""
    if work is None:
        return np.empty(shape)
    return work[: int(np.prod(shape))].reshape(shape)


def default_sigma2_init(reference: PointSet) -> float:
    """Squared mean nearest-neighbor distance of the reference points.

    Each point's nearest other point is the row argmin of a row block of
    `sq_dists` with the self-pairs set to inf; every block is formed in one
    (ROW_BLOCK, N) buffer, so no (N, N) array is made.
    Its distance is then taken exactly, as sqrt(sum((x_nn - x)^2)): the
    |a|^2 + |b|^2 - 2ab form only picks the neighbor, and the scale has the
    bits of a kd-tree query.
    """
    pts = reference.points
    n = reference.n
    if n < 2:
        raise ValueError("need at least 2 points for a nearest-neighbor scale")
    nearest = np.empty(n, dtype=np.intp)
    blocks = row_blocks(n)
    buf = np.empty((blocks[0].stop, n))
    for blk in blocks:
        d2 = sq_dists(pts[blk], pts, out=buf[: blk.stop - blk.start])
        d2[np.arange(blk.stop - blk.start), np.arange(blk.start, blk.stop)] = np.inf
        nearest[blk] = np.argmin(d2, axis=1)
    dist = np.sqrt(np.sum((pts[nearest] - pts) ** 2, axis=1))
    return float(np.mean(dist) ** 2)


@dataclass(frozen=True)
class CorrespondenceState:
    """Soft correspondences and the inlier/missing partition they induce.

    P:       (N_R, N_S) responsibilities, entries in [0, 1].
    nu:      expected match count per reference point, summed over the
             full row of P (not only the kept pairs, p_ij > p_min).
    ps:      (N_R, d) row moments P S of the target points S.
    pss:     (N_R,) row moments P |s|^2 of their squared norms.
    inliers: reference indices whose fused label noise, sigma2_i over the
             kept mass of their row of P, is finite (sorted).
    missing: the complementary reference indices (sorted).

    nu, ps and pss are all the variance update reads of P.  Inside a
    registration, P is a view of the run's workspace, which the posterior
    overwrites: an intermediate state's P is garbage once its iteration's
    posterior starts, and only the state `register` returns owns its P.
    """

    P: np.ndarray
    nu: np.ndarray
    ps: np.ndarray
    pss: np.ndarray
    inliers: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        n_r = self.P.shape[0]
        part = np.sort(np.concatenate([self.inliers, self.missing]))
        if not np.array_equal(part, np.arange(n_r)):
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
        if not np.all(self.sigma2_eff > 0.0):  # also False for NaN
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
    """One iteration of a registration run.  max_move is the largest distance
    a reference point moved in the iteration, the quantity the stop rule reads;
    mean_sigma2 is taken after the variance update."""

    iteration: int
    max_move: float
    n_inliers: int
    n_missing: int
    mean_sigma2: float
    elapsed_s: float


STOP_REASONS = ("converged", "max_iters", "first_iteration", "mid_run_collapse")
FAILED_STOPS = ("first_iteration", "mid_run_collapse")


@dataclass(frozen=True)
class RegistrationResult:
    """Output of a registration run.

    stop_reason is one of STOP_REASONS: the stop rule fired ("converged"),
    it had not by max_iters ("max_iters"), or, in FAILED_STOPS, an E-step
    found no label of finite noise in the first iteration or a later one.
    A failed run has state None; after a mid-run collapse, deformed_reference,
    posterior and sigma2 are those of the last completed iteration.
    Otherwise state is the last iteration's E-step, recomputed once the loop
    ends so that its P holds the responsibilities again (the posterior
    reused P's buffer); its P is a view of the run's workspace, so the
    result holds the workspace until it is dropped.
    """

    deformed_reference: PointSet
    state: Optional[CorrespondenceState]
    posterior: Optional[PosteriorDeformation]
    sigma2: np.ndarray
    iters: int
    stop_reason: str
    trace: tuple = ()

    def __post_init__(self):
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"stop_reason must be one of {STOP_REASONS}")

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def failed(self) -> bool:
        return self.stop_reason in FAILED_STOPS


__all__ = [
    "SFGPError",
    "ConfigError",
    "NumericalError",
    "AnchorMismatchError",
    "RankTooLargeError",
    "NoAnnotationError",
    "AllMissingError",
    "NoMassError",
    "DegenerateInstanceError",
    "PointSet",
    "RegistrationConfig",
    "validate_config",
    "sq_dists",
    "default_sigma2_init",
    "CorrespondenceState",
    "AnnotatedDeformations",
    "PosteriorDeformation",
    "IterationRecord",
    "STOP_REASONS",
    "FAILED_STOPS",
    "RegistrationResult",
]
