"""Seeded benchmark generator: smooth random warps, structured missing
regions, uniform outliers, additive noise, and a small random rotation.

The ground truth of an instance is the complete warped (and rotated) shape
with the same indexing as the reference; the target is derived from it, so a
non-outlier target row differs from its ground-truth row by the drawn noise
only.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Tuple

import numpy as np

from .core import ConfigError, DegenerateInstanceError, PointSet, is_number
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
    outlier_ratio: float = 0.0
    noise_std: float = 0.0
    rotation_max: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # chained comparisons are False for NaN, so these also reject it
        for name in ("warp_amplitude", "warp_bandwidth", "missing_width", "outlier_ratio",
                     "noise_std", "rotation_max"):
            value = getattr(self, name)
            if not (is_number(value) and 0.0 <= value < np.inf):
                raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.warp_amplitude > 0.0 and self.warp_bandwidth == 0.0:
            raise ConfigError("warp_bandwidth must be > 0 when warping, got 0.0")
        # generate would fail inside NumPy on a float or a negative value, and run True as 1
        for name in ("warp_controls", "seed"):
            value = getattr(self, name)
            if not (is_number(value, integer=True) and value >= 0):
                raise ConfigError(f"{name} must be an integer >= 0, got {value!r}")


@dataclass(frozen=True)
class SyntheticInstance:
    target: PointSet
    ground_truth: PointSet
    missing_mask: np.ndarray   # bool per reference index
    outlier_mask: np.ndarray   # bool per target index
    spec: PerturbationSpec = field(default=PerturbationSpec())

    def __post_init__(self):
        # one flag per ground-truth point and per target point, and every
        # target point is a kept ground-truth point or an outlier
        if (self.missing_mask.shape != (self.ground_truth.n,)
                or self.outlier_mask.shape != (self.target.n,)
                or np.sum(~self.missing_mask) + np.sum(self.outlier_mask) != self.target.n):
            raise ValueError("masks inconsistent with the target and ground-truth sizes")


def fish_reference() -> PointSet:
    """A fish-shaped 2D polyline resampled to 98 points by arc length,
    centered and scaled to unit extent."""
    t = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    x = np.cos(t) - np.sin(t) ** 2 / np.sqrt(2.0)
    y = np.cos(t) * np.sin(t)
    curve = np.column_stack([x, y])

    seg = np.linalg.norm(np.diff(curve, axis=0, append=curve[:1]), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])[:-1]
    total = arc[-1] + seg[-1]
    stations = np.linspace(0.0, total, 98, endpoint=False)
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
    the missing box around a reference point the seed draws, append
    outliers, and add noise to form the target."""
    rng = np.random.default_rng(spec.seed)
    sub = rng.integers(0, 2**63 - 1, size=5)

    gt = warp_rbf(reference, spec.warp_amplitude, spec.warp_bandwidth, spec.warp_controls, int(sub[0]))
    gt = _rotate(gt, spec.rotation_max, int(sub[1]))

    center = int(rng.integers(0, reference.n))
    kept, missing_mask = apply_structured_missing(gt, center, spec.missing_width)
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
    """The instance `write_instance` wrote to directory.  A manifest without
    `spec`, `missing_mask` or `outlier_mask`, a spec that is no JSON object
    of PerturbationSpec fields, and masks that do not fit the target raise
    ValueError, and a spec that PerturbationSpec rejects ConfigError, each
    naming the manifest."""
    directory = Path(directory)
    path = directory / "manifest.json"
    manifest = sio.read_json(path)
    for key in ("spec", "missing_mask", "outlier_mask"):
        if key not in manifest:
            raise ValueError(f"{path}: missing key {key!r}")
    spec = manifest["spec"]
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: spec must be a JSON object of PerturbationSpec fields, "
                         f"got {spec!r}")
    unknown = sorted(set(spec) - {f.name for f in fields(PerturbationSpec)})
    if unknown:
        raise ValueError(f"{path}: unknown spec keys: {', '.join(unknown)}")
    try:
        spec = PerturbationSpec(**spec)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    target = sio.read_pointset_csv(directory / "target.csv")
    ground_truth = sio.read_pointset_csv(directory / "ground_truth.csv")
    try:
        masks = [np.asarray(manifest[key], dtype=bool) for key in ("missing_mask", "outlier_mask")]
        return SyntheticInstance(target, ground_truth, *masks, spec=spec)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
