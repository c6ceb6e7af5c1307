"""Scalar kernels, the GP prior they define, and the empirical
principal-component kernel.

A scalar kernel k induces the vector-valued covariance K = G (x) I_d, so
coordinates are uncorrelated and every solve against K reduces to solves
against blocks of the N_R x N_R scalar Gram matrix G.  G is never stored:
each entry is a sum of a^2 exp(-|x_i - x_j|^2 / 2l^2) over fixed reference
points, cheap to recompute, and the posterior reads only its observed block
G_CC and row blocks of G_xC.  `gp_prior` therefore returns a small GPPrior,
the reference points with the SE parts, jitter and low-rank terms, which
evaluates k on row blocks into a caller's buffer.  The principal-component
kernel breaks the Kronecker structure; its contribution is kept in factored
low-rank form U diag(lam) U^T over the stacked (N_R * d) coordinate vector
and never expanded.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    ConfigError,
    NumericalError,
    PointSet,
    buffer_view,
    is_number,
    row_blocks,
    sq_dists,
)


class KernelSpec:
    """Marker base class for kernel definitions."""


@dataclass(frozen=True)
class SquaredExponential(KernelSpec):
    """a^2 * exp(-||x - y||^2 / (2 l^2))."""

    amplitude2: float = 1.0
    lengthscale: float = 1.0

    def __post_init__(self):
        for name in ("amplitude2", "lengthscale"):
            value = getattr(self, name)
            if not (is_number(value) and 0.0 < value < np.inf):  # also False for NaN
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
            object.__setattr__(self, name, float(value))


@dataclass(frozen=True)
class PCAKernel(KernelSpec):
    """Truncated sample covariance of training deformations, anchored to one
    reference point set.  Discrete: evaluable only at the anchor's points.

    eigenvalues:  (m,) positive, nonincreasing.
    eigenvectors: (N_R * d, m), orthonormal columns, point-major coordinate
                  layout (point 0 coords, point 1 coords, ...).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    anchor: PointSet

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.eigenvectors, dtype=float)
        if lam.ndim != 1 or lam.size < 1:
            raise ConfigError("eigenvalues must be a nonempty vector")
        if not np.all((lam > 0.0) & (lam < np.inf)):
            raise ConfigError("eigenvalues must be positive and finite")
        if np.any(np.diff(lam) > 0.0):
            raise ConfigError("eigenvalues must be nonincreasing")
        if vec.shape != (self.anchor.n * self.anchor.dim, lam.size):
            raise ConfigError("eigenvectors must have shape (N_R*d, m)")
        if not np.all(np.isfinite(vec)):
            raise ConfigError("eigenvectors must be finite")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)


@dataclass(frozen=True)
class SumKernel(KernelSpec):
    parts: Tuple[KernelSpec, ...]

    def __init__(self, *parts: KernelSpec):
        if not parts:
            raise ConfigError("sum kernel needs at least one part")
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True)
class ScaledKernel(KernelSpec):
    factor: float
    inner: KernelSpec

    def __post_init__(self):
        if not (is_number(self.factor) and 0.0 < self.factor < np.inf):
            raise ConfigError(f"factor must be positive and finite, got {self.factor!r}")
        object.__setattr__(self, "factor", float(self.factor))


@dataclass(frozen=True, eq=False)
class GPPrior:
    """The prior covariance of a registration over one reference point set,
    evaluated where it is needed instead of stored.

    The covariance is k (x) I_d + U diag(lam) U^T.  The scalar kernel k is the
    sum over se_parts, pairs (a2, l) with the scale of enclosing ScaledKernels
    folded into a2, of a2 exp(-|x - y|^2 / (2 l^2)); its value at distance 0,
    k0, is the sum of the a2.  lowrank_u / lowrank_lam hold the data-driven
    summands' basis and eigenvalues (None on the isotropic path).  jitter is
    the stabilization the posterior's solves add to the observed block.
    """

    points: np.ndarray
    se_parts: Tuple[Tuple[float, float], ...]
    jitter: float
    lowrank_u: Optional[np.ndarray] = None
    lowrank_lam: Optional[np.ndarray] = None

    @property
    def k0(self) -> float:
        return float(sum(a2 for a2, _ in self.se_parts))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def block(self, rows, cols, *, out: Optional[np.ndarray] = None) -> np.ndarray:
        """k(x_rows, x_cols) for index arrays or slices of the reference, in
        `out`, a C-ordered (len(rows), len(cols)) array, or a new one when
        None.  Each SE part is a2 exp(-0.5 sq_dists(x_rows / l, x_cols / l)),
        evaluated in place; each part after the first in a block of its own,
        then added."""
        x_rows, x_cols = self.points[rows], self.points[cols]
        if out is None:
            out = np.empty((len(x_rows), len(x_cols)))
        if not self.se_parts:  # a PCA-only kernel has a zero scalar part
            out.fill(0.0)
        for i, (a2, ell) in enumerate(self.se_parts):
            term = sq_dists(x_rows / ell, x_cols / ell, out=out if i == 0 else None)
            term *= -0.5
            np.exp(term, out=term)
            term *= a2
            if i:
                out += term
        return out

    def upper_gram(self, idx: np.ndarray, noise, *, work: Optional[np.ndarray] = None) -> np.ndarray:
        """k(x_idx, x_idx) + diag(noise), with only its upper triangle
        written, as a C-ordered (c, c) view of the flat buffer `work` (a new
        array when None).  Its transpose is the Fortran-ordered matrix whose
        lower triangle LAPACK reads; the rest of `work` keeps its contents.

        The triangle is filled one row block at a time, each block from its
        first row's column on.  The first block, whole rows, is evaluated in
        place; the others go through one buffer of the second's size."""
        c = idx.size
        a = buffer_view(work, (c, c))
        buf = None
        for blk in row_blocks(c):
            rows = a[blk, blk.start:]
            if blk.start == 0:
                self.block(idx[blk], idx, out=rows)
                continue
            if buf is None:
                buf = np.empty(rows.size)
            rows[...] = self.block(idx[blk], idx[blk.start:], out=buffer_view(buf, rows.shape))
        a.reshape(-1)[:: c + 1] += noise  # the diagonal, a strided view
        return a


def _collect(spec: KernelSpec, scale: float, scalar_parts, lowrank_parts):
    if isinstance(spec, SquaredExponential):
        scalar_parts.append((scale * spec.amplitude2, spec.lengthscale))
    elif isinstance(spec, PCAKernel):
        lowrank_parts.append((scale, spec))
    elif isinstance(spec, ScaledKernel):
        _collect(spec.inner, scale * spec.factor, scalar_parts, lowrank_parts)
    elif isinstance(spec, SumKernel):
        for p in spec.parts:
            _collect(p, scale, scalar_parts, lowrank_parts)
    else:
        raise TypeError(f"unknown kernel spec {type(spec).__name__}")


def gp_prior(spec: KernelSpec, ref: PointSet) -> GPPrior:
    """The prior of `spec` over `ref`: its SE parts, low-rank terms and jitter.

    The jitter is 1e-8 times the mean of the full kernel diagonal, so it
    scales with the kernel and is no setting.  Raises NumericalError when
    the jitter is not finite (amplitudes whose product or trace overflows),
    and ConfigError when a PCA summand is evaluated away from its anchor.
    No Gram is filled or factored here: every kernel spec is positive
    semi-definite by construction, and the posterior factors each observed
    block plus a positive noise diagonal: a block that fails to factor
    raises the posterior's NumericalError, which `register` reports with
    its iteration.
    """
    scalar_parts: list = []
    lowrank_parts: list = []
    _collect(spec, 1.0, scalar_parts, lowrank_parts)

    n, d = ref.n, ref.dim
    for _, part in lowrank_parts:
        if part.anchor.n != n or part.anchor.dim != d or not np.array_equal(
            part.anchor.points, ref.points
        ):
            raise ConfigError("PCA kernel can only be assembled on its anchor reference")
    u = lam = None
    # the amplitudes are Python floats, whose products and sums overflow to
    # inf without a warning; the mean is taken through the trace, so a
    # diagonal whose sum overflows, or an eigenvalue that does, gives a
    # jitter that is not finite
    trace = n * d * sum(a2 for a2, _ in scalar_parts)
    if lowrank_parts:  # one part's basis is not copied: the run holds u throughout
        us = [part.eigenvectors for _, part in lowrank_parts]
        u = us[0] if len(us) == 1 else np.hstack(us)
        with np.errstate(over="ignore", invalid="ignore"):  # checked with the jitter
            lam = np.concatenate([scale * part.eigenvalues for scale, part in lowrank_parts])
            trace += float(np.sum(u**2 * lam))
    jitter = 1e-8 * trace / (n * d)
    # the trace is at least n d k0, so a finite jitter proves k0 finite, and
    # each SE part is largest at distance 0, so a finite k0 proves every
    # kernel block finite: the posterior scans none
    if not np.isfinite(jitter):
        raise NumericalError(f"gram matrix is not finite (jitter={jitter:g})")
    return GPPrior(ref.points, tuple(scalar_parts), jitter, lowrank_u=u, lowrank_lam=lam)


def build_pca_kernel(
    training_deformations: Sequence[np.ndarray], rank: int, anchor: PointSet
) -> PCAKernel:
    """Fit a rank-m kernel from stacked training deformation vectors.

    Samples are mean-centered; the retained eigenpairs are those of the
    sample covariance (normalization by n_samples - 1).  Raises ValueError
    for training data of the wrong shape, and ConfigError for a rank outside
    [1, min(n_samples - 1, N_R * d)] or above the count of nonzero eigenvalues.
    """
    data = np.asarray(training_deformations, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need at least 2 training deformation vectors")
    n_samples, width = data.shape
    if width != anchor.n * anchor.dim:
        raise ValueError("training vectors must have length N_R * d")
    if rank < 1 or rank > min(n_samples - 1, width):
        raise ConfigError(f"rank must be in [1, {min(n_samples - 1, width)}], got {rank}")

    centered = data - data.mean(axis=0)
    # SVD of the centered sample matrix gives the covariance eigenpairs
    # without forming the (N_R*d)^2 covariance.
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    lam_all = svals**2 / (n_samples - 1)
    tol = max(n_samples, width) * np.finfo(float).eps * (lam_all[0] if lam_all.size else 0.0)
    n_nonzero = int(np.sum(lam_all > tol))
    if rank > n_nonzero:
        raise ConfigError(f"rank {rank} exceeds the nonzero spectrum ({n_nonzero} components)")
    return PCAKernel(
        eigenvalues=lam_all[:rank],
        eigenvectors=vt[:rank].T.copy(),
        anchor=anchor,
    )


def anchor_hash(anchor: PointSet) -> str:
    h = hashlib.sha256()
    h.update(np.int64(anchor.dim).tobytes())
    h.update(np.ascontiguousarray(anchor.points, dtype=np.float64).tobytes())
    return h.hexdigest()


def save_pca_kernel(path, kernel: PCAKernel) -> None:
    """Persist the spectrum so a trained shape prior can be reused."""
    np.savez(
        path,
        eigenvalues=kernel.eigenvalues,
        eigenvectors=kernel.eigenvectors,
        anchor_hash=np.array(anchor_hash(kernel.anchor)),
    )


def load_pca_kernel(path, anchor: PointSet) -> PCAKernel:
    """The PCA kernel save_pca_kernel wrote to `path`.  Raises ConfigError,
    naming the file, when it is no .npz archive or lacks one of the arrays,
    and when it was built for another anchor."""
    try:
        payload = np.load(path)
    except ValueError:  # neither .npy nor .npz, so NumPy refuses it as a pickle
        payload = None
    if not isinstance(payload, np.lib.npyio.NpzFile):  # an .npy gives one array
        raise ConfigError(f"{path} is not a spectrum archive (.npz)")
    with payload:
        lacking = sorted({"eigenvalues", "eigenvectors", "anchor_hash"} - set(payload.files))
        if lacking:
            raise ConfigError(f"spectrum archive {path} lacks {', '.join(lacking)}")
        stored = str(payload["anchor_hash"])
        if stored != anchor_hash(anchor):
            raise ConfigError("spectrum file was built for a different anchor reference")
        return PCAKernel(
            eigenvalues=payload["eigenvalues"],
            eigenvectors=payload["eigenvectors"],
            anchor=anchor,
        )


__all__ = [
    "KernelSpec",
    "SquaredExponential",
    "PCAKernel",
    "SumKernel",
    "ScaledKernel",
    "GPPrior",
    "gp_prior",
    "build_pca_kernel",
    "anchor_hash",
    "save_pca_kernel",
    "load_pca_kernel",
]
