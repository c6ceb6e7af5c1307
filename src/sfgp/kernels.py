"""Scalar kernels, Gram assembly, and the empirical principal-component kernel.

A scalar kernel g induces the vector-valued covariance K = G (x) I_d, so
coordinates are uncorrelated and every solve against K reduces to solves
against the N_R x N_R scalar Gram matrix G.  The principal-component kernel
breaks that structure; its contribution is kept in factored low-rank form
U diag(lam) U^T over the stacked (N_R * d) coordinate vector and never
expanded.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import cholesky as _cholesky
from scipy.linalg import eigvalsh as _eigvalsh
from scipy.linalg import LinAlgError

from .core import (
    AnchorMismatchError,
    NumericalError,
    PointSet,
    RankTooLargeError,
    buffer_view,
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
        if not 0.0 < self.amplitude2 < np.inf:
            raise ValueError("amplitude2 must be positive and finite")
        if not 0.0 < self.lengthscale < np.inf:
            raise ValueError("lengthscale must be positive and finite")


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
            raise ValueError("eigenvalues must be a nonempty vector")
        if np.any(lam <= 0.0):
            raise ValueError("eigenvalues must be positive")
        if np.any(np.diff(lam) > 0.0):
            raise ValueError("eigenvalues must be nonincreasing")
        if vec.shape != (self.anchor.n * self.anchor.dim, lam.size):
            raise ValueError("eigenvectors must have shape (N_R*d, m)")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)


@dataclass(frozen=True)
class SumKernel(KernelSpec):
    parts: Tuple[KernelSpec, ...]

    def __init__(self, *parts: KernelSpec):
        if not parts:
            raise ValueError("sum kernel needs at least one part")
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True)
class ScaledKernel(KernelSpec):
    factor: float
    inner: KernelSpec

    def __post_init__(self):
        if not 0.0 < self.factor < np.inf:
            raise ValueError("scale factor must be positive and finite")


@dataclass(frozen=True)
class GramMatrix:
    """Assembled prior covariance over one reference point set.

    g holds the scalar (coordinate-independent) part; lowrank_u/lowrank_lam
    hold the factored correction from data-driven summands, empty on the
    isotropic path.  The full covariance is g (x) I_d + U diag(lam) U^T.
    jitter records the stabilization used for the SPD check; solves add the
    same value to the observed block.
    """

    g: np.ndarray
    dim: int
    lowrank_u: Optional[np.ndarray] = None
    lowrank_lam: Optional[np.ndarray] = None
    jitter: float = 0.0

    @property
    def n(self) -> int:
        return self.g.shape[0]


def _collect(spec: KernelSpec, scale: float, scalar_parts, lowrank_parts):
    if isinstance(spec, SquaredExponential):
        scalar_parts.append((scale, spec))
    elif isinstance(spec, PCAKernel):
        lowrank_parts.append((scale, spec))
    elif isinstance(spec, ScaledKernel):
        _collect(spec.inner, scale * spec.factor, scalar_parts, lowrank_parts)
    elif isinstance(spec, SumKernel):
        for p in spec.parts:
            _collect(p, scale, scalar_parts, lowrank_parts)
    else:
        raise TypeError(f"unknown kernel spec {type(spec).__name__}")


def _se_gram(
    points: np.ndarray, spec: SquaredExponential, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """a^2 exp(-D / (2 l^2)), symmetrised as 0.5 (g + g^T), built in the
    buffer of the squared distances D (`out`, or a new array when None) with
    the operations in that order."""
    g = sq_dists(points, points, out=out)
    np.negative(g, out=g)
    g /= 2.0 * spec.lengthscale**2
    np.exp(g, out=g)
    g *= spec.amplitude2
    # 0.5 (g + g^T) one row block at a time: block I takes rows I and columns
    # from its first row on, which no earlier block has written, and mirrors
    # them; g_ij + g_ji == g_ji + g_ij, so both triangles get the same value
    for blk in row_blocks(g.shape[0]):
        sym = g[blk, blk.start:] + g[blk.start:, blk].T
        sym *= 0.5
        g[blk, blk.start:] = sym
        g[blk.start:, blk] = sym.T
    return g


def assemble_gram(
    spec: KernelSpec, ref: PointSet, jitter: Optional[float] = None, *,
    work: Optional[np.ndarray] = None,
) -> GramMatrix:
    """Assemble the scalar Gram matrix of `spec` over `ref`.

    jitter=None applies the default stabilization, 1e-8 times the mean of
    the full kernel diagonal.  Raises NumericalError when g + jitter*I fails
    its Cholesky check, and AnchorMismatchError when a PCA summand is
    evaluated away from its anchor.  Besides the Gram, the assembly holds at
    most one more N_R x N_R buffer: `work`, a flat float buffer of at least
    N_R^2 entries (a new one when None), which holds in turn each summand
    after the first and the jittered copy the check factors in place and,
    when that fails, refills for its eigenvalues.  Its contents are
    overwritten.
    """
    scalar_parts: list = []
    lowrank_parts: list = []
    _collect(spec, 1.0, scalar_parts, lowrank_parts)

    n = ref.n
    g = None
    for scale, part in scalar_parts:
        # the first summand becomes the Gram, the others are built in work
        term = _se_gram(ref.points, part, out=None if g is None else buffer_view(work, (n, n)))
        term *= scale
        if g is None:
            g = term  # the same bits as 0 + scale * term
        else:
            g += term
        del term  # the next summand is built without this one
    if g is None:
        g = np.zeros((n, n))

    u = lam = None
    for scale, part in lowrank_parts:
        if part.anchor.n != n or part.anchor.dim != ref.dim or not np.array_equal(
            part.anchor.points, ref.points
        ):
            raise AnchorMismatchError(
                "PCA kernel can only be assembled on its anchor reference"
            )
        u_part = part.eigenvectors
        lam_part = scale * part.eigenvalues
        if u is None:
            u, lam = u_part, lam_part
        else:
            u = np.hstack([u, u_part])
            lam = np.concatenate([lam, lam_part])

    if jitter is None:
        diag_mean = float(np.mean(np.diag(g)))
        if u is not None:
            diag_mean += float(np.sum(u**2 * lam)) / (n * ref.dim)
        jitter = 1e-8 * diag_mean

    check = buffer_view(work, (n, n))
    np.copyto(check, g)
    check[np.diag_indices(n)] += jitter
    try:
        # check.T is the Fortran-ordered view of the symmetric copy: no copy
        _cholesky(check.T, lower=True, overwrite_a=True)
    except LinAlgError:
        # the failed factorization overwrote part of check: refill it and
        # take its spectrum in place, like the factorization
        np.copyto(check, g)
        check[np.diag_indices(n)] += jitter
        smallest = float(np.min(_eigvalsh(check.T, overwrite_a=True)))
        raise NumericalError(
            f"gram matrix not positive definite after jitter={jitter:g} "
            f"(smallest pivot {smallest:.3e})"
        )

    return GramMatrix(g=g, dim=ref.dim, lowrank_u=u, lowrank_lam=lam, jitter=jitter)


def build_pca_kernel(
    training_deformations: Sequence[np.ndarray], rank: int, anchor: PointSet
) -> PCAKernel:
    """Fit a rank-m kernel from stacked training deformation vectors.

    Samples are mean-centered; the retained eigenpairs are those of the
    sample covariance (normalization by n_samples - 1).
    """
    data = np.asarray(training_deformations, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need at least 2 training deformation vectors")
    n_samples, width = data.shape
    if width != anchor.n * anchor.dim:
        raise ValueError("training vectors must have length N_R * d")
    if rank < 1 or rank > min(n_samples - 1, width):
        raise RankTooLargeError(
            f"rank must be in [1, {min(n_samples - 1, width)}], got {rank}"
        )

    centered = data - data.mean(axis=0)
    # SVD of the centered sample matrix gives the covariance eigenpairs
    # without forming the (N_R*d)^2 covariance.
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    lam_all = svals**2 / (n_samples - 1)
    tol = max(n_samples, width) * np.finfo(float).eps * (lam_all[0] if lam_all.size else 0.0)
    n_nonzero = int(np.sum(lam_all > tol))
    if rank > n_nonzero:
        raise RankTooLargeError(
            f"rank {rank} exceeds the nonzero spectrum ({n_nonzero} components)"
        )
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
    with np.load(path) as payload:
        stored = str(payload["anchor_hash"])
        if stored != anchor_hash(anchor):
            raise AnchorMismatchError(
                "spectrum file was built for a different anchor reference"
            )
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
    "GramMatrix",
    "assemble_gram",
    "build_pca_kernel",
    "anchor_hash",
    "save_pca_kernel",
    "load_pca_kernel",
]
