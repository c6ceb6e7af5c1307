"""Seeded benchmark generator: smooth random warps, structured missing
regions, uniform outliers, additive noise, and a small random rotation.

The ground truth of an instance is the complete warped (and rotated) shape
with the same indexing as the reference; the target is derived from it, so a
non-outlier target row differs from its ground-truth row by the drawn noise
only.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from .core import DegenerateInstanceError, PointSet
from . import io as sio

# documented benchmark scale for the unit-extent shapes below:
# deformation level L warps with coefficient std 0.03 * L.
DEFORMATION_AMPLITUDE_PER_LEVEL = 0.03
WARP_BANDWIDTH_DEFAULT = 0.3
WARP_CONTROLS_DEFAULT = 5
OUTLIER_BOX_EXPANSION = 1.1


@dataclass(frozen=True)
class PerturbationSpec:
    """Full recipe for one synthetic instance; same seed, same bytes."""

    warp_amplitude: float = 0.0
    warp_bandwidth: float = WARP_BANDWIDTH_DEFAULT
    warp_controls: int = WARP_CONTROLS_DEFAULT
    missing_width: float = 0.0
    missing_center: Union[int, str] = "random"
    outlier_ratio: float = 0.0
    noise_std: float = 0.0
    rotation_max: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # chained comparisons are False for NaN, so these also reject it
        for name in ("warp_amplitude", "missing_width", "outlier_ratio", "noise_std", "rotation_max"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.warp_amplitude > 0.0 and not 0.0 < self.warp_bandwidth < np.inf:
            raise ValueError(
                f"warp_bandwidth must be finite and > 0 when warping, got {self.warp_bandwidth!r}"
            )


@dataclass(frozen=True)
class SyntheticInstance:
    target: PointSet
    ground_truth: PointSet
    missing_mask: np.ndarray   # bool per reference index
    outlier_mask: np.ndarray   # bool per target index
    spec: PerturbationSpec = field(default=PerturbationSpec())

    def __post_init__(self):
        n_real = int(np.sum(~self.missing_mask))
        n_out = int(np.sum(self.outlier_mask))
        if n_real + n_out != self.target.n:
            raise ValueError("masks inconsistent with target size")


def fish_reference(n_points: int = 98) -> PointSet:
    """A fish-shaped 2D polyline resampled to n_points by arc length,
    centered and scaled to unit extent."""
    t = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    x = np.cos(t) - np.sin(t) ** 2 / np.sqrt(2.0)
    y = np.cos(t) * np.sin(t)
    curve = np.column_stack([x, y])

    seg = np.linalg.norm(np.diff(curve, axis=0, append=curve[:1]), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])[:-1]
    total = arc[-1] + seg[-1]
    stations = np.linspace(0.0, total, n_points, endpoint=False)
    idx = np.searchsorted(arc, stations, side="right") - 1
    nxt = (idx + 1) % curve.shape[0]
    frac = (stations - arc[idx]) / seg[idx]
    pts = curve[idx] + frac[:, None] * (curve[nxt] - curve[idx])

    pts -= pts.mean(axis=0)
    pts /= np.max(pts.max(axis=0) - pts.min(axis=0))
    return PointSet(points=pts)


def warp_rbf(
    points: PointSet, amplitude: float, bandwidth: float, n_controls: int, seed: int
) -> PointSet:
    """Smooth random displacement field from Gaussian bumps at control points
    drawn from the shape itself; amplitude 0 is the identity."""
    if amplitude == 0.0:
        return PointSet(points=points.points.copy())
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    rng = np.random.default_rng(seed)
    pts = points.points
    n, d = pts.shape
    centers = pts[rng.choice(n, size=min(n_controls, n), replace=False)]
    coeff = rng.normal(0.0, amplitude, size=(centers.shape[0], d))
    sq = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    weights = np.exp(-sq / (2.0 * bandwidth**2))
    return PointSet(points=pts + weights @ coeff)


def apply_structured_missing(
    points: PointSet, center_index: int, width: float
) -> Tuple[PointSet, np.ndarray]:
    """Remove every point inside the axis-aligned box of side `width` around
    the chosen point.  Raises when nothing would survive."""
    pts = points.points
    if not 0 <= center_index < pts.shape[0]:
        raise IndexError("center_index out of range")
    if width == 0.0:
        return PointSet(points=pts.copy()), np.zeros(pts.shape[0], dtype=bool)
    center = pts[center_index]
    inside = np.all(np.abs(pts - center) < width / 2.0, axis=1)
    if np.all(inside):
        raise DegenerateInstanceError("missing box removed every point")
    kept = pts[~inside]
    return PointSet(points=kept), inside


def add_outliers(
    points: PointSet, ratio: float, seed: int, n_reference: int = None
) -> Tuple[PointSet, np.ndarray]:
    """Append round(ratio * N) uniform draws from the expanded bounding box;
    N defaults to the input size but may be pinned to the reference size."""
    pts = points.points
    base = n_reference if n_reference is not None else pts.shape[0]
    count = int(round(ratio * base))
    mask = np.zeros(pts.shape[0] + count, dtype=bool)
    if count == 0:
        return PointSet(points=pts.copy()), mask
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    half = half * OUTLIER_BOX_EXPANSION
    rng = np.random.default_rng(seed)
    draws = rng.uniform(mid - half, mid + half, size=(count, pts.shape[1]))
    mask[pts.shape[0]:] = True
    return PointSet(points=np.vstack([pts, draws])), mask


def add_noise(points: PointSet, std: float, seed: int) -> PointSet:
    if std == 0.0:
        return PointSet(points=points.points.copy())
    rng = np.random.default_rng(seed)
    return PointSet(points=points.points + rng.normal(0.0, std, size=points.points.shape))


def _rotate(points: PointSet, rotation_max: float, seed: int) -> PointSet:
    if rotation_max == 0.0:
        return PointSet(points=points.points.copy())
    rng = np.random.default_rng(seed)
    angle = rng.uniform(-rotation_max, rotation_max)
    pts = points.points
    centroid = pts.mean(axis=0)
    if points.dim == 2:
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
    else:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        kx = np.array(
            [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
        )
        rot = np.eye(3) + np.sin(angle) * kx + (1 - np.cos(angle)) * (kx @ kx)
    return PointSet(points=(pts - centroid) @ rot.T + centroid)


def generate(reference: PointSet, spec: PerturbationSpec) -> SyntheticInstance:
    """Build one instance: warp and rotate into the ground truth, then carve
    the missing box, append outliers, and add noise to form the target."""
    rng = np.random.default_rng(spec.seed)
    sub = rng.integers(0, 2**63 - 1, size=5)

    gt = warp_rbf(reference, spec.warp_amplitude, spec.warp_bandwidth, spec.warp_controls, int(sub[0]))
    gt = _rotate(gt, spec.rotation_max, int(sub[1]))

    if spec.missing_center == "random":
        center_index = int(rng.integers(0, reference.n))
    else:
        center_index = int(spec.missing_center)
    kept, missing_mask = apply_structured_missing(gt, center_index, spec.missing_width)
    with_outliers, outlier_mask = add_outliers(
        kept, spec.outlier_ratio, int(sub[2]), n_reference=reference.n
    )
    target = add_noise(with_outliers, spec.noise_std, int(sub[3]))
    return SyntheticInstance(
        target=target,
        ground_truth=gt,
        missing_mask=missing_mask,
        outlier_mask=outlier_mask,
        spec=spec,
    )


def write_instance(directory, instance: SyntheticInstance) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sio.write_pointset_csv(directory / "target.csv", instance.target)
    sio.write_pointset_csv(directory / "ground_truth.csv", instance.ground_truth)
    sio.write_json(
        directory / "manifest.json",
        {
            "spec": asdict(instance.spec),
            "missing_mask": [bool(b) for b in instance.missing_mask],
            "outlier_mask": [bool(b) for b in instance.outlier_mask],
        },
    )


def read_instance(directory) -> SyntheticInstance:
    directory = Path(directory)
    manifest = sio.read_json(directory / "manifest.json")
    return SyntheticInstance(
        target=sio.read_pointset_csv(directory / "target.csv"),
        ground_truth=sio.read_pointset_csv(directory / "ground_truth.csv"),
        missing_mask=np.asarray(manifest["missing_mask"], dtype=bool),
        outlier_mask=np.asarray(manifest["outlier_mask"], dtype=bool),
        spec=PerturbationSpec(**manifest["spec"]),
    )


__all__ = [
    "PerturbationSpec",
    "SyntheticInstance",
    "fish_reference",
    "warp_rbf",
    "apply_structured_missing",
    "add_outliers",
    "add_noise",
    "generate",
    "write_instance",
    "read_instance",
    "DEFORMATION_AMPLITUDE_PER_LEVEL",
]
