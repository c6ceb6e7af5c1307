import numpy as np
import pytest

from sfgp.core import DegenerateInstanceError
from sfgp.synthdata import (
    PerturbationSpec,
    add_noise,
    add_outliers,
    apply_structured_missing,
    fish_reference,
    generate,
    read_instance,
    warp_rbf,
    write_instance,
)

from helpers import pointset


def test_fish_reference_shape():
    fish = fish_reference()
    assert fish.n == 98
    assert fish.dim == 2
    extent = fish.points.max(axis=0) - fish.points.min(axis=0)
    assert np.max(extent) == pytest.approx(1.0, rel=1e-9)
    # arc-length resampling keeps chords sub-feature everywhere; the sharp
    # tail loop shortens chords locally but never stretches them
    seg = np.linalg.norm(np.diff(fish.points, axis=0), axis=1)
    assert seg.max() < 0.05
    assert seg.max() / seg.min() < 4.0


class TestWarp:
    def test_zero_amplitude_is_identity(self):
        fish = fish_reference()
        out = warp_rbf(fish, 0.0, 0.3, 5, seed=1)
        assert np.array_equal(out.points, fish.points)

    def test_displacement_at_control_point(self):
        pts = pointset(np.random.default_rng(0).uniform(-1, 1, size=(12, 2)))
        seed = 7
        out = warp_rbf(pts, 0.05, 0.25, 1, seed=seed)
        # replay the seeded draws to locate the control and its coefficient
        rng = np.random.default_rng(seed)
        idx = rng.choice(12, size=1, replace=False)[0]
        coeff = rng.normal(0.0, 0.05, size=(1, 2))[0]
        moved = out.points[idx] - pts.points[idx]
        np.testing.assert_allclose(moved, coeff, rtol=1e-12)

    def test_displacement_bound_from_drawn_coefficients(self):
        pts = fish_reference()
        seed, amp, n_controls = 3, 0.04, 5
        out = warp_rbf(pts, amp, 0.3, n_controls, seed=seed)
        rng = np.random.default_rng(seed)
        rng.choice(pts.n, size=n_controls, replace=False)
        coeff = rng.normal(0.0, amp, size=(n_controls, 2))
        disp = np.linalg.norm(out.points - pts.points, axis=1)
        bound = n_controls * np.max(np.linalg.norm(coeff, axis=1))
        assert disp.max() <= bound + 1e-12


class TestStructuredMissing:
    def test_zero_width_removes_nothing(self):
        fish = fish_reference()
        kept, mask = apply_structured_missing(fish, 10, 0.0)
        assert kept.n == fish.n
        assert not mask.any()

    def test_box_covering_shape_is_degenerate(self):
        fish = fish_reference()
        with pytest.raises(DegenerateInstanceError):
            apply_structured_missing(fish, 10, 10.0)

    def test_removal_monotone_in_width(self):
        fish = fish_reference()
        counts = [
            apply_structured_missing(fish, 40, w)[1].sum()
            for w in [0.1, 0.2, 0.3, 0.4]
        ]
        assert counts[0] > 0
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_center_point_always_removed(self):
        fish = fish_reference()
        _, mask = apply_structured_missing(fish, 25, 0.05)
        assert mask[25]


class TestOutliers:
    def test_ratio_zero_is_identity(self):
        fish = fish_reference()
        out, mask = add_outliers(fish, 0.0, seed=1)
        assert np.array_equal(out.points, fish.points)
        assert not mask.any()

    def test_ratio_two_appends_double(self):
        fish = fish_reference()
        out, mask = add_outliers(fish, 2.0, seed=1)
        assert out.n == 98 + 196
        assert mask.sum() == 196
        assert not mask[:98].any()

    def test_outliers_inside_expanded_box(self):
        fish = fish_reference()
        out, mask = add_outliers(fish, 1.5, seed=11)
        lo, hi = fish.points.min(axis=0), fish.points.max(axis=0)
        mid, half = (lo + hi) / 2, (hi - lo) / 2 * 1.1
        draws = out.points[mask]
        assert np.all(draws >= mid - half) and np.all(draws <= mid + half)


class TestNoise:
    def test_zero_std_identity(self):
        fish = fish_reference()
        assert np.array_equal(add_noise(fish, 0.0, seed=4).points, fish.points)

    def test_sample_mean_displacement_vanishes(self):
        rng = np.random.default_rng(15)
        pts = pointset(rng.uniform(-1, 1, size=(10_000, 2)))
        noisy = add_noise(pts, 0.05, seed=15)
        mean_disp = np.linalg.norm(np.mean(noisy.points - pts.points, axis=0))
        assert mean_disp <= 4 * 0.05 / np.sqrt(10_000 * 2)

    def test_max_displacement_stays_sub_feature(self):
        fish = fish_reference()
        noisy = add_noise(fish, 0.05, seed=8)
        disp = np.linalg.norm(noisy.points - fish.points, axis=1)
        assert disp.max() <= 5 * 0.05


class TestGenerate:
    def spec(self, **kw):
        base = dict(
            warp_amplitude=0.03,
            warp_bandwidth=0.3,
            warp_controls=5,
            missing_width=0.3,
            outlier_ratio=0.5,
            noise_std=0.02,
            seed=42,
        )
        base.update(kw)
        return PerturbationSpec(**base)

    def test_same_seed_bit_identical(self):
        fish = fish_reference()
        a = generate(fish, self.spec())
        b = generate(fish, self.spec())
        assert np.array_equal(a.target.points, b.target.points)
        assert np.array_equal(a.ground_truth.points, b.ground_truth.points)
        assert np.array_equal(a.missing_mask, b.missing_mask)
        assert np.array_equal(a.outlier_mask, b.outlier_mask)

    def test_masks_consistent(self):
        fish = fish_reference()
        inst = generate(fish, self.spec())
        n_real = (~inst.missing_mask).sum()
        assert n_real + inst.outlier_mask.sum() == inst.target.n
        assert inst.ground_truth.n == fish.n

    def test_noise_free_target_rows_equal_ground_truth(self):
        fish = fish_reference()
        inst = generate(fish, self.spec(noise_std=0.0))
        real = inst.target.points[~inst.outlier_mask]
        expected = inst.ground_truth.points[~inst.missing_mask]
        assert np.array_equal(real, expected)

    def test_noisy_target_rows_are_ground_truth_plus_noise_only(self):
        fish = fish_reference()
        inst = generate(fish, self.spec())
        real = inst.target.points[~inst.outlier_mask]
        expected = inst.ground_truth.points[~inst.missing_mask]
        disp = np.linalg.norm(real - expected, axis=1)
        assert disp.max() <= 6 * 0.02

    def test_rotation_lives_in_ground_truth(self):
        fish = fish_reference()
        spec = self.spec(noise_std=0.0, outlier_ratio=0.0, missing_width=0.0, rotation_max=0.3)
        inst = generate(fish, spec)
        assert np.array_equal(inst.target.points, inst.ground_truth.points)
        assert not np.array_equal(inst.ground_truth.points, warp_rbf(
            fish, 0.03, 0.3, 5, seed=_first_subseed(42)).points)

    def test_instance_roundtrip(self, tmp_path):
        fish = fish_reference()
        inst = generate(fish, self.spec())
        write_instance(tmp_path / "inst", inst)
        back = read_instance(tmp_path / "inst")
        assert np.array_equal(back.target.points, inst.target.points)
        assert np.array_equal(back.ground_truth.points, inst.ground_truth.points)
        assert np.array_equal(back.missing_mask, inst.missing_mask)
        assert np.array_equal(back.outlier_mask, inst.outlier_mask)
        assert back.spec == inst.spec


def _first_subseed(seed):
    return int(np.random.default_rng(seed).integers(0, 2**63 - 1, size=5)[0])


@pytest.mark.parametrize("field", [
    "warp_amplitude", "missing_width", "outlier_ratio", "noise_std", "rotation_max",
    "warp_bandwidth",
])
@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_spec_out_of_range_names_its_field(field, bad):
    # NaN fails every comparison, so it must fail the check instead of
    # passing it; warp_bandwidth is checked only when warping
    settings = {"warp_amplitude": 0.03, field: bad}
    with pytest.raises(ValueError, match=field):
        PerturbationSpec(**settings)
