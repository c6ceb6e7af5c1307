import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfgp import correspondence
from sfgp.core import AllMissingError
from sfgp.correspondence import (
    ResponsibilityInputs,
    closest_point_correspondence,
    get_correspondences,
    responsibilities,
)
from sfgp.synthdata import apply_structured_missing, fish_reference

from helpers import pointset, responsibilities_oracle


def make_inputs(target_pts, rbar_pts, sigma2, post_var=None, omega=0.0):
    sigma2 = np.asarray(sigma2, dtype=float)
    post_var = np.zeros(len(rbar_pts)) if post_var is None else np.asarray(post_var, float)
    return ResponsibilityInputs(
        target=pointset(target_pts),
        deformed_ref=pointset(rbar_pts),
        sigma2=sigma2,
        post_var=post_var,
        omega=omega,
    )


class TestResponsibilities:
    @pytest.mark.parametrize(
        "sigma2,post_var,needle",
        [
            ([0.5, 0.0], [0.0, 0.0], "sigma2"),
            ([0.5, -1.0], [0.0, 0.0], "sigma2"),
            ([0.5, np.nan], [0.0, 0.0], "sigma2"),
            ([0.5, 0.5], [0.0, -1.0], "post_var"),
            ([0.5, 0.5], [0.0, np.nan], "post_var"),
            (0.5, [0.0, 0.0], "sigma2"),
            ([0.5], [0.0, 0.0], "sigma2"),
            ([0.5, 0.5], 0.0, "post_var"),
            ([0.5, 0.5], [0.0, 0.0, 0.0], "post_var"),
        ],
        ids=["sigma2_zero", "sigma2_negative", "sigma2_nan", "post_var_negative", "post_var_nan",
             "sigma2_float", "sigma2_short", "post_var_float", "post_var_long"],
    )
    def test_inputs_out_of_range_rejected(self, sigma2, post_var, needle):
        # both rules take one ResponsibilityInputs, so both reject the same inputs
        with pytest.raises(ValueError, match=needle):
            make_inputs([[0.0, 0.0]], [[0.3, 0.1], [0.0, 0.2]], sigma2, post_var, omega=0.1)

    def test_single_pair_certain(self):
        p = responsibilities(make_inputs([[0.0, 0.0]], [[0.3, 0.1]], [0.5]))
        assert p.shape == (1, 1)
        assert p[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_pair_splits_evenly(self):
        p = responsibilities(
            make_inputs([[0.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]], [0.4, 0.4])
        )
        assert p[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert p[1, 0] == pytest.approx(0.5, abs=1e-14)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(5)
        rbar = rng.uniform(-1, 1, size=(3, 2))
        target = rng.uniform(-1, 1, size=(4, 2))
        sigma2 = rng.uniform(0.1, 0.8, size=3)
        post_var = rng.uniform(0.0, 0.2, size=3)
        p = responsibilities(make_inputs(target, rbar, sigma2, post_var, omega=0.3))
        expected = responsibilities_oracle(target, rbar, sigma2, post_var, 0.3)
        np.testing.assert_allclose(p, expected, rtol=1e-12)

    def test_columns_sum_to_one_without_outlier_mass(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n_r, n_s = rng.integers(2, 12), rng.integers(2, 12)
            p = responsibilities(
                make_inputs(
                    rng.uniform(-1, 1, size=(n_s, 2)),
                    rng.uniform(-1, 1, size=(n_r, 2)),
                    rng.uniform(0.05, 1.0, size=n_r),
                    rng.uniform(0.0, 0.3, size=n_r),
                    omega=0.0,
                )
            )
            np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)

    def test_monotone_in_omega(self):
        rng = np.random.default_rng(7)
        rbar = rng.uniform(-1, 1, size=(4, 2))
        target = rng.uniform(-1, 1, size=(5, 2))
        sigma2 = rng.uniform(0.1, 0.5, size=4)
        previous = None
        for omega in [0.0, 0.1, 0.3, 0.6, 0.9]:
            p = responsibilities(make_inputs(target, rbar, sigma2, omega=omega))
            if previous is not None:
                assert np.all(p <= previous + 1e-15)
            previous = p

    def test_column_scale_invariance_under_shift(self):
        # huge distances underflow the raw densities; the max shift keeps
        # the normalized result exact for omega = 0
        rbar = np.array([[0.0, 0.0], [1.0, 0.0]]) + 1e4
        target = np.array([[0.5, 0.0]]) + 1e4
        p = responsibilities(make_inputs(target, rbar, [1e-4, 1e-4]))
        assert p[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_underflow_scale_normalization_analytic(self):
        # both raw densities are ~exp(-5e4), far below float range, yet the
        # normalized ratio only depends on the log-density difference:
        # p_1 / p_2 = exp((d2^2 - d1^2) / (2 s2))
        s2 = 1e-3
        d1, d2 = 10.0, np.sqrt(10.0**2 + 2.0 * s2)  # log gap exactly 1
        rbar = np.array([[d1, 0.0], [d2, 0.0]])
        target = np.array([[0.0, 0.0]])
        p = responsibilities(make_inputs(target, rbar, [s2, s2]))
        expected = 1.0 / (1.0 + np.exp(-1.0))
        assert p[0, 0] == pytest.approx(expected, rel=1e-9)
        assert p[0, 0] + p[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_dead_column_returns_zeros_and_counts(self, caplog):
        # the log-density itself overflows to -inf for the far column; with
        # omega = 0 the dead columns are exactly the all-zero columns of P
        rbar = np.array([[0.0, 0.0]])
        target = np.array([[0.0, 0.0], [1e160, 1e160]])
        with caplog.at_level("WARNING", logger="sfgp.correspondence"):
            p = responsibilities(make_inputs(target, rbar, [1e-12]))
        assert np.all(np.isfinite(p))
        assert p[:, 0].sum() == pytest.approx(1.0)
        assert p[:, 1].sum() == 0.0
        assert "1 fully underflowed columns" in caplog.text

    def test_dead_column_with_outlier_mass_is_clean(self, caplog):
        rbar = np.array([[0.0, 0.0]])
        target = np.array([[1e160, 1e160]])
        with caplog.at_level("WARNING", logger="sfgp.correspondence"):
            p = responsibilities(make_inputs(target, rbar, [1e-12], omega=0.2))
        assert np.all(np.isfinite(p))
        assert p[:, 0].sum() == 0.0
        assert "underflowed" not in caplog.text


class TestAnnotatorVariance:
    """A reference point with one annotating pair (i, j) carries that pair's
    label variance sigma2_i / p_ij as its effective variance."""

    def test_direct_formula(self):
        state, _, noise = get_correspondences(
            make_inputs([[0.3, 0.1]], [[0.0, 0.0]], [0.5], omega=0.4), 0.01
        )
        p = state.P[0, 0]
        assert 0.01 < p < 1.0
        assert noise[0] == pytest.approx(0.5 / p, rel=1e-15)

    def test_confident_match_keeps_base(self):
        state, _, noise = get_correspondences(make_inputs([[0.3, 0.1]], [[0.0, 0.0]], [0.7]), 0.01)
        assert state.P[0, 0] == 1.0
        assert noise[0] == 0.7

    def test_monotone_blowup_as_probability_vanishes(self):
        values = []
        for dist in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            state, _, noise = get_correspondences(
                make_inputs([[dist, 0.0]], [[0.0, 0.0]], [1.0], omega=0.5), 0.0
            )
            assert state.P[0, 0] > 0.0
            values.append(noise[0])
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_zero_probability_pair_excluded(self):
        # the far target's density is exactly zero: even with the threshold
        # off it must not annotate, so the label comes from target 0 alone
        inputs = make_inputs([[0.2, 0.1], [1e160, 1e160]], [[0.0, 0.0]], [0.5], omega=0.2)
        state, bary, noise = get_correspondences(inputs, 0.0)
        label = bary[0] - inputs.deformed_ref.points[0]
        assert state.P[0, 1] == 0.0
        assert np.all(np.isfinite(bary))
        np.testing.assert_allclose(label, [0.2, 0.1], rtol=1e-15)
        assert noise[0] == pytest.approx(0.5 / state.P[0, 0], rel=1e-15)


def partition(p, p_min, sigma2=None):
    """The CorrespondenceState `_fuse` builds from P alone: the partition and
    nu read only P and sigma2, so the target is a placeholder."""
    n_r, n_s = p.shape
    sigma2 = np.ones(n_r) if sigma2 is None else sigma2
    return correspondence._fuse(p, pointset(np.zeros((n_s, 2))), sigma2, p_min)[0]


class TestThreshold:
    """The inlier/missing partition of the fusion: a reference point is
    missing exactly when sigma2_i / sum_j [p_ij > p_min] p_ij is not finite."""

    def test_direct(self):
        state = partition(np.array([[0.9, 0.001], [0.001, 0.02]]), 0.01)
        assert state.inliers.tolist() == [0, 1]
        assert state.missing.size == 0
        state = partition(np.array([[0.9, 0.001], [0.001, 0.009]]), 0.01)
        assert state.inliers.tolist() == [0]
        assert state.missing.tolist() == [1]

    def test_all_below_threshold_goes_missing(self):
        state = partition(np.array([[0.004, 0.001], [0.9, 0.05]]), 0.01)
        assert 0 in state.missing
        assert 1 in state.inliers

    def test_nu_accumulates_full_row(self):
        p = np.array([[0.4, 0.005], [0.2, 0.3]])
        state = partition(p, 0.01)
        np.testing.assert_allclose(state.nu, p.sum(axis=1), rtol=1e-15)

    def test_mode_off_keeps_positive_pairs(self):
        # p_min = 0 is the no-threshold ablation: every positive pair is kept
        p = np.array([[0.004, 0.0], [0.9, 0.05], [0.0, 0.0]])
        state = partition(p, 0.0)
        assert state.inliers.tolist() == [0, 1]
        assert state.missing.tolist() == [2]

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.floats(0.0, 1.0),
        ),
        st.one_of(st.just(0.0), st.floats(0.001, 0.999)),
        st.floats(1e-12, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, p, p_min, s2):
        # p = [[5e-324]] at p_min = 0 is kept but its noise overflows: missing
        n_r = p.shape[0]
        sigma2 = np.full(n_r, s2)
        kept_mass = np.where(p > p_min, p, 0.0).sum(axis=1)
        with np.errstate(divide="ignore", over="ignore"):
            finite = np.isfinite(sigma2 / kept_mass)
        if not finite.any():
            with pytest.raises(AllMissingError):
                partition(p, p_min, sigma2)
            return
        state = partition(p, p_min, sigma2)
        both = np.concatenate([state.inliers, state.missing])
        assert sorted(both.tolist()) == list(range(n_r))
        assert not set(state.inliers) & set(state.missing)
        for i in range(n_r):
            assert (not finite[i]) == (i in state.missing)
            assert np.any(p[i] > p_min) or i in state.missing
        assert np.array_equal(state.nu, p.sum(axis=1))

    def test_fish_missing_box_detected(self):
        # carve a wide box from the fish and check that the removed region
        # produces reference points with no above-threshold responsibility
        fish = fish_reference()
        kept, mask = apply_structured_missing(fish, 40, 0.4)
        assert mask.sum() > 0
        sigma2 = np.full(fish.n, 0.0005)
        p = responsibilities(make_inputs(kept.points, fish.points, sigma2))
        state = partition(p, 0.01, sigma2)
        assert state.missing.size > 0
        for i in state.missing:
            assert p[i].max() <= 0.01


class TestGetCorrespondences:
    def test_single_pair(self):
        inputs = make_inputs([[1.0, 1.0]], [[0.0, 0.0]], [0.5])
        state, bary, noise = get_correspondences(inputs, 0.01)
        label = bary[0] - inputs.deformed_ref.points[0]
        np.testing.assert_allclose(label, [1.0, 1.0], rtol=1e-12)
        assert noise[0] == pytest.approx(0.5, rel=1e-12)

    def test_two_equidistant_targets(self):
        # symmetric cross: each target splits evenly between the two
        # references, so each row carries p = (0.5, 0.5) with unit mass
        inputs = make_inputs(
            [[0.0, 1.0], [0.0, -1.0]], [[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5]
        )
        state, bary, noise = get_correspondences(inputs, 0.01)
        np.testing.assert_allclose(state.P, 0.5, rtol=1e-12)
        # fused label is the midpoint of the two targets minus the reference
        labels = bary - inputs.deformed_ref.points[state.inliers]
        np.testing.assert_allclose(labels[0], [-1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(labels[1], [1.0, 0.0], atol=1e-12)
        # total mass 1: effective variance equals the base variance
        np.testing.assert_allclose(noise, 0.5, rtol=1e-12)

    def test_closed_form_identities_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n_r, n_s = 5, 7
            rbar = rng.uniform(-1, 1, size=(n_r, 2))
            target = rng.uniform(-1, 1, size=(n_s, 2))
            sigma2 = rng.uniform(0.05, 0.6, size=n_r)
            inputs = make_inputs(target, rbar, sigma2, omega=float(rng.uniform(0, 0.5)))
            state, bary, noise = get_correspondences(inputs, 0.01)
            p = state.P
            for k, i in enumerate(state.inliers):
                js = np.flatnonzero(p[i] > 0.01)
                w = p[i, js]
                np.testing.assert_allclose(
                    noise[k], sigma2[i] / w.sum(), rtol=1e-12
                )
                barycenter = (w[:, None] * target[js]).sum(axis=0) / w.sum()
                np.testing.assert_allclose(
                    bary[k] - rbar[i], barycenter - rbar[i], rtol=1e-12, atol=1e-14
                )

    def test_all_missing_raises(self):
        # every log-density overflows to -inf: nothing can correspond
        inputs = make_inputs([[1e160, 1e160]], [[0.0, 0.0]], [1e-10])
        with pytest.raises(AllMissingError):
            get_correspondences(inputs, 0.01)

    def test_subnormal_row_is_missing_without_warnings(self):
        # reference point 1 keeps only subnormal pairs at p_min = 0: its fused
        # noise sigma2 / mass overflows to inf, so it has no label and is
        # missing, and no overflow warning escapes (pytest.ini makes it an error)
        inputs = make_inputs(
            [[0.0, 0.0], [0.0, 0.05]], [[0.0, 0.0], [1.2166, 0.0], [0.0, 0.05]], [1e-3] * 3
        )
        state, bary, noise = get_correspondences(inputs, 0.0)
        assert 0.0 < state.P[1].max() < np.finfo(float).tiny
        assert state.missing.tolist() == [1]
        assert state.inliers.tolist() == [0, 2]
        assert np.all(np.isfinite(noise))
        assert np.all(np.isfinite(bary))


class TestClosestPoint:
    def test_identity(self):
        pts = np.random.default_rng(3).normal(size=(6, 2))
        state, bary, _ = closest_point_correspondence(make_inputs(pts, pts, [0.1] * 6))
        np.testing.assert_allclose(bary - pts, 0.0, atol=1e-15)
        assert state.missing.size == 0

    def test_single_target_forces_all(self):
        rng = np.random.default_rng(4)
        state, _, _ = closest_point_correspondence(
            make_inputs([[2.0, 2.0]], rng.normal(size=(5, 2)), [0.1] * 5)
        )
        np.testing.assert_array_equal(state.P, 1.0)
        assert state.inliers.tolist() == list(range(5))

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(9)
        target = rng.uniform(-1, 1, size=(10, 2))
        ref = rng.uniform(-1, 1, size=(10, 2))
        state, _, _ = closest_point_correspondence(make_inputs(target, ref, [0.2] * 10))
        for i in range(10):
            dists = np.linalg.norm(target - ref[i], axis=1)
            assert np.flatnonzero(state.P[i]).tolist() == [np.argmin(dists)]

    def test_tie_breaks_to_lowest_index(self):
        target = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ref = np.array([[0.0, 0.0]])
        state, _, _ = closest_point_correspondence(make_inputs(target, ref, [0.1]))
        assert state.P[0].tolist() == [1.0, 0.0]
