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

`gemm` binds SciPy's dgemm on its first call, not at import: loading
scipy.linalg took 0.33 s of a 0.5 s `import sfgp.cli` on the same host, and
the commands that register no instance (`generate`, `eval`, the parent of a
pooled sweep) never need it.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

_dgemm = None  # SciPy's dgemm, bound by the first gemm call


class SFGPError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SFGPError, ValueError):
    """A setting is out of range: a field of a settings type, a variant name,
    a PCA rank, or a kernel's anchor or spectrum file."""


class NumericalError(SFGPError):
    """A matrix factorization failed even after jitter stabilization."""


class AllMissingError(SFGPError):
    """No reference point has a label of finite fused noise, or no row of
    the responsibilities carries mass."""


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


def is_number(value, integer: bool = False) -> bool:
    """Whether `value` is an int, or unless `integer` also a float, NumPy's
    included; Python counts a bool as an int, but True is no number here."""
    kind = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    return isinstance(value, kind) and not isinstance(value, bool)


# The named engine variants exposed on the command line.  A variant's row
# says what it runs: its sigma2 update, the `update_sigma2` mode "per_point"
# or "scalar"; whether its E-step is the closest-point rule; and whether its
# fusion reads p_min, or runs at p_min = 0.
Variant = namedtuple("Variant", "sigma2_update closest_point reads_p_min")
VARIANTS = {
    "SFGP_Full": Variant("per_point", closest_point=False, reads_p_min=True),
    "SFGP_bcpdReg": Variant("scalar", closest_point=False, reads_p_min=True),
    "GPReg_noTresh": Variant("per_point", closest_point=False, reads_p_min=False),
    "GPClosestPnt": Variant("scalar", closest_point=True, reads_p_min=False),
}


@dataclass(frozen=True)
class RegistrationConfig:
    """Tunable parameters of a registration run.

    The initial sigma2 and the prior's jitter are no settings: `register`
    derives the one from the reference (`default_sigma2_init`) and
    `kernels.gp_prior` the other from the kernel diagonal.  p_min is the
    correspondence threshold: only pairs with p_ij > p_min annotate, so
    p_min = 0 keeps every pair of positive probability (no threshold).
    rel_tol is the stop rule: from the second iteration on, the run has
    converged once no reference point moved by more than
    rel_tol * sqrt(mean sigma2) in an iteration, so rel_tol = 0 runs to
    max_iters unless the points stop moving exactly.  variant names the
    VARIANTS row the run follows; no variant rewrites a setting, but
    GPReg_noTresh ignores p_min, and GPClosestPnt p_min and omega.
    """

    omega: float = 0.0
    p_min: float = 0.01
    max_iters: int = 200
    rel_tol: float = 1e-3
    variant: str = "SFGP_Full"

    def __post_init__(self):
        """Raise ConfigError, naming the field, unless every field is in range."""
        # chained comparisons are False for NaN, so these also reject it
        if not (is_number(self.omega) and 0.0 <= self.omega < 1.0):
            raise ConfigError(f"omega must be < 1 and >= 0, got {self.omega!r}")
        if not (is_number(self.p_min) and 0.0 <= self.p_min < 1.0):
            raise ConfigError(f"p_min must be in [0, 1), got {self.p_min!r}")
        if not (is_number(self.max_iters, integer=True) and self.max_iters >= 1):
            raise ConfigError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (is_number(self.rel_tol) and 0.0 <= self.rel_tol < np.inf):
            raise ConfigError(f"rel_tol must be finite and >= 0, got {self.rel_tol!r}")
        # a list is unhashable, so the str check comes first
        if not (isinstance(self.variant, str) and self.variant in VARIANTS):
            raise ConfigError(f"unknown variant {self.variant!r}; "
                              f"choose one of {', '.join(sorted(VARIANTS))}")


def variant_config(name: str, base: Optional[RegistrationConfig] = None) -> RegistrationConfig:
    """`base`, or the default config, set to run the named variant; a name
    that is no VARIANTS key raises ConfigError naming the choices."""
    return replace(base or RegistrationConfig(), variant=name)


def gemm(
    a: np.ndarray, b: np.ndarray, *, out: Optional[np.ndarray] = None,
    alpha: float = 1.0, beta: float = 0.0,
) -> np.ndarray:
    """alpha * a @ b + beta * out by SciPy's dgemm (see the module
    docstring), written to `out`, a C-ordered (N, M) array, or to a new one
    when out is None.  With beta = 0 the contents of out are not read.

    a and b are read in place when C- or Fortran-ordered: in BLAS's
    column-major terms the product is out.T = alpha * b.T @ a.T + beta * out.T."""
    global _dgemm
    if _dgemm is None:
        from scipy.linalg.blas import dgemm as _dgemm
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
    |a|^2 + |b|^2 - 2ab clamped at 0 against cancellation, in `out`, a
    C-ordered (N, M) array that callers may reuse as their own buffer (a
    registration passes a view of its workspace), or a new one when None.

    Two dgemm calls form it in place: the pair sums |a_i|^2 + |b_j|^2, as
    the product of the columns [|a|^2, 1] and [1, |b|^2], then -2ab added
    (beta = 1).  Both sums are symmetric in i and j when a is b; NumPy's
    buffered broadcast add of the norms took five times as long on a
    128 x 1962 block."""
    na, nb = np.sum(a**2, axis=1), np.sum(b**2, axis=1)
    d2 = gemm(np.column_stack([na, np.ones_like(na)]),
              np.vstack([np.ones_like(nb), nb]), out=out)
    gemm(a, b.T, out=d2, alpha=-2.0, beta=1.0)
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


def nearest(a: np.ndarray, b: np.ndarray, skip_diagonal: bool = False) -> np.ndarray:
    """For each row of a, the index of its nearest row of b, ties to the
    lowest; with skip_diagonal (a is b), its nearest other row.  Each is the
    row argmin of a row block of `sq_dists`, every block formed in one
    (ROW_BLOCK, M) buffer, so no (N, M) array is made."""
    n = a.shape[0]
    idx = np.empty(n, dtype=np.intp)
    blocks = row_blocks(n)
    buf = np.empty((blocks[0].stop, b.shape[0]))
    for blk in blocks:
        d2 = sq_dists(a[blk], b, out=buf[: blk.stop - blk.start])
        if skip_diagonal:
            d2[np.arange(blk.stop - blk.start), np.arange(blk.start, blk.stop)] = np.inf
        idx[blk] = np.argmin(d2, axis=1)
    return idx


def default_sigma2_init(reference: PointSet) -> float:
    """Squared mean nearest-neighbor distance of the reference points.

    Each point's nearest other point is found by `nearest`, and its distance
    then taken exactly, as sqrt(sum((x_nn - x)^2)): the |a|^2 + |b|^2 - 2ab
    form only picks the neighbor, and the scale has the bits of a kd-tree
    query.
    """
    pts = reference.points
    if reference.n < 2:
        raise ValueError("need at least 2 points for a nearest-neighbor scale")
    dist = np.sqrt(np.sum((pts[nearest(pts, pts, skip_diagonal=True)] - pts) ** 2, axis=1))
    return float(np.mean(dist) ** 2)


@dataclass(frozen=True)
class CorrespondenceState:
    """Soft correspondences and the inlier/missing partition they induce.

    P:        (N_R, N_S) responsibilities, entries in [0, 1].
    nu:       expected match count per reference point, summed over the
              full row of P (not only the kept pairs, p_ij > p_min).
    ps:       (N_R, d) row moments P S of the target points S.
    pss:      (N_R,) row moments P |s|^2 of their squared norms.
    labelled: (N_R,) bool, True where the fused label noise, sigma2_i over
              the kept mass of its row of P, is finite; `inliers` and
              `missing` are its True and False indices, sorted.

    nu, ps and pss are all the variance update reads of P.  Inside a
    registration, P is a view of the run's workspace, which the posterior
    overwrites: an intermediate state's P is garbage once its iteration's
    posterior starts, and only the state `register` returns owns its P.
    """

    P: np.ndarray
    nu: np.ndarray
    ps: np.ndarray
    pss: np.ndarray
    labelled: np.ndarray

    @property
    def inliers(self) -> np.ndarray:
        return np.flatnonzero(self.labelled)

    @property
    def missing(self) -> np.ndarray:
        return np.flatnonzero(~self.labelled)


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
    mean_sigma2 is taken after the variance update; extrapolated is True when
    the iteration started from a SQUAREM extrapolation (see registration)."""

    iteration: int
    max_move: float
    n_inliers: int
    n_missing: int
    mean_sigma2: float
    elapsed_s: float
    extrapolated: bool


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
    "AllMissingError",
    "DegenerateInstanceError",
    "PointSet",
    "RegistrationConfig",
    "Variant",
    "VARIANTS",
    "variant_config",
    "sq_dists",
    "default_sigma2_init",
    "CorrespondenceState",
    "PosteriorDeformation",
    "IterationRecord",
    "STOP_REASONS",
    "FAILED_STOPS",
    "RegistrationResult",
]
