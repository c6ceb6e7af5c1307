import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sfgp.correspondence as corr
from sfgp.core import AllMissingError
from sfgp.correspondence import (
    ResponsibilityInputs,
    closest_point_correspondence,
    get_correspondences,
    responsibilities,
    threshold,
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

    def test_dead_column_returns_zeros_and_counts(self):
        # the log-density itself overflows to -inf for the far column
        corr.reset_diagnostics()
        rbar = np.array([[0.0, 0.0]])
        target = np.array([[0.0, 0.0], [1e160, 1e160]])
        p = responsibilities(make_inputs(target, rbar, [1e-12]))
        assert np.all(np.isfinite(p))
        assert p[0, 0] == pytest.approx(1.0)
        assert p[0, 1] == 0.0
        assert corr.underflow_column_count == 1

    def test_dead_column_with_outlier_mass_is_clean(self):
        corr.reset_diagnostics()
        rbar = np.array([[0.0, 0.0]])
        target = np.array([[1e160, 1e160]])
        p = responsibilities(make_inputs(target, rbar, [1e-12], omega=0.2))
        assert np.all(np.isfinite(p))
        assert p[0, 0] == 0.0
        assert corr.underflow_column_count == 0


class TestAnnotatorVariance:
    """A reference point with one annotating pair (i, j) carries that pair's
    label variance sigma2_i / p_ij as its effective variance."""

    def test_direct_formula(self):
        state, ann = get_correspondences(
            make_inputs([[0.3, 0.1]], [[0.0, 0.0]], [0.5], omega=0.4), 0.01
        )
        p = state.P[0, 0]
        assert 0.01 < p < 1.0
        assert ann.sigma2_eff[0] == pytest.approx(0.5 / p, rel=1e-15)

    def test_confident_match_keeps_base(self):
        state, ann = get_correspondences(make_inputs([[0.3, 0.1]], [[0.0, 0.0]], [0.7]), 0.01)
        assert state.P[0, 0] == 1.0
        assert ann.sigma2_eff[0] == 0.7

    def test_monotone_blowup_as_probability_vanishes(self):
        values = []
        for dist in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            state, ann = get_correspondences(
                make_inputs([[dist, 0.0]], [[0.0, 0.0]], [1.0], omega=0.5), 0.01, "off"
            )
            assert state.P[0, 0] > 0.0
            values.append(ann.sigma2_eff[0])
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_zero_probability_pair_excluded(self):
        # the far target's density is exactly zero: even with the threshold
        # off it must not annotate, so the label comes from target 0 alone
        inputs = make_inputs([[0.2, 0.1], [1e160, 1e160]], [[0.0, 0.0]], [0.5], omega=0.2)
        state, ann = get_correspondences(inputs, 0.01, "off")
        assert state.P[0, 1] == 0.0
        assert np.all(np.isfinite(ann.delta_hat))
        np.testing.assert_allclose(ann.delta_hat[0], [0.2, 0.1], rtol=1e-15)
        assert ann.sigma2_eff[0] == pytest.approx(0.5 / state.P[0, 0], rel=1e-15)


class TestThreshold:
    def test_direct(self):
        state = threshold(np.array([[0.9, 0.001], [0.001, 0.02]]), 0.01, "on")
        assert state.inliers.tolist() == [0, 1]
        assert state.missing.size == 0
        state = threshold(np.array([[0.9, 0.001], [0.001, 0.009]]), 0.01, "on")
        assert state.inliers.tolist() == [0]
        assert state.missing.tolist() == [1]

    def test_all_below_threshold_goes_missing(self):
        state = threshold(np.array([[0.004, 0.001], [0.9, 0.05]]), 0.01, "on")
        assert 0 in state.missing
        assert 1 in state.inliers

    def test_nu_accumulates_full_row(self):
        p = np.array([[0.4, 0.005], [0.2, 0.3]])
        state = threshold(p, 0.01, "on")
        np.testing.assert_allclose(state.nu, p.sum(axis=1), rtol=1e-15)

    def test_mode_off_keeps_positive_pairs(self):
        p = np.array([[0.004, 0.0], [0.9, 0.05], [0.0, 0.0]])
        state = threshold(p, 0.01, "off")
        assert state.inliers.tolist() == [0, 1]
        assert state.missing.tolist() == [2]

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.floats(0.0, 1.0),
        ),
        st.floats(0.001, 0.999),
        st.sampled_from(["on", "off"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, p, p_min, mode):
        state = threshold(p, p_min, mode)
        n_r = p.shape[0]
        both = np.concatenate([state.inliers, state.missing])
        assert sorted(both.tolist()) == list(range(n_r))
        assert not set(state.inliers) & set(state.missing)
        cutoff = p_min if mode == "on" else 0.0
        for i in range(n_r):
            assert (not np.any(p[i] > cutoff)) == (i in state.missing)
        np.testing.assert_allclose(state.nu, p.sum(axis=1), rtol=0, atol=0)

    def test_fish_missing_box_detected(self):
        # carve a wide box from the fish and check that the removed region
        # produces reference points with no above-threshold responsibility
        fish = fish_reference()
        kept, mask = apply_structured_missing(fish, 40, 0.4)
        assert mask.sum() > 0
        sigma2 = np.full(fish.n, 0.0005)
        p = responsibilities(make_inputs(kept.points, fish.points, sigma2))
        state = threshold(p, 0.01, "on")
        assert state.missing.size > 0
        for i in state.missing:
            assert p[i].max() <= 0.01


class TestGetCorrespondences:
    def test_single_pair(self):
        state, ann = get_correspondences(
            make_inputs([[1.0, 1.0]], [[0.0, 0.0]], [0.5]), 0.01
        )
        np.testing.assert_allclose(ann.delta_hat[0], [1.0, 1.0], rtol=1e-12)
        assert ann.sigma2_eff[0] == pytest.approx(0.5, rel=1e-12)

    def test_two_equidistant_targets(self):
        # symmetric cross: each target splits evenly between the two
        # references, so each row carries p = (0.5, 0.5) with unit mass
        state, ann = get_correspondences(
            make_inputs(
                [[0.0, 1.0], [0.0, -1.0]], [[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5]
            ),
            0.01,
        )
        np.testing.assert_allclose(state.P, 0.5, rtol=1e-12)
        # fused label is the midpoint of the two targets minus the reference
        np.testing.assert_allclose(ann.delta_hat[0], [-1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(ann.delta_hat[1], [1.0, 0.0], atol=1e-12)
        # total mass 1: effective variance equals the base variance
        np.testing.assert_allclose(ann.sigma2_eff, 0.5, rtol=1e-12)

    def test_closed_form_identities_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n_r, n_s = 5, 7
            rbar = rng.uniform(-1, 1, size=(n_r, 2))
            target = rng.uniform(-1, 1, size=(n_s, 2))
            sigma2 = rng.uniform(0.05, 0.6, size=n_r)
            inputs = make_inputs(target, rbar, sigma2, omega=float(rng.uniform(0, 0.5)))
            state, ann = get_correspondences(inputs, 0.01)
            p = state.P
            for k, i in enumerate(state.inliers):
                js = np.flatnonzero(p[i] > 0.01)
                w = p[i, js]
                np.testing.assert_allclose(
                    ann.sigma2_eff[k], sigma2[i] / w.sum(), rtol=1e-12
                )
                barycenter = (w[:, None] * target[js]).sum(axis=0) / w.sum()
                np.testing.assert_allclose(
                    ann.delta_hat[k], barycenter - rbar[i], rtol=1e-12, atol=1e-14
                )

    def test_all_missing_raises(self):
        # every log-density overflows to -inf: nothing can correspond
        inputs = make_inputs([[1e160, 1e160]], [[0.0, 0.0]], [1e-10])
        with pytest.raises(AllMissingError):
            get_correspondences(inputs, 0.01)


class TestClosestPoint:
    def test_identity(self):
        pts = np.random.default_rng(3).normal(size=(6, 2))
        state, ann = closest_point_correspondence(pointset(pts), pointset(pts), 0.1)
        np.testing.assert_allclose(ann.delta_hat, 0.0, atol=1e-15)
        assert state.missing.size == 0

    def test_single_target_forces_all(self):
        rng = np.random.default_rng(4)
        state, ann = closest_point_correspondence(
            pointset([[2.0, 2.0]]), pointset(rng.normal(size=(5, 2))), 0.1
        )
        np.testing.assert_array_equal(state.P, 1.0)
        assert state.inliers.tolist() == list(range(5))

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(9)
        target = rng.uniform(-1, 1, size=(10, 2))
        ref = rng.uniform(-1, 1, size=(10, 2))
        state, ann = closest_point_correspondence(pointset(target), pointset(ref), 0.2)
        for i in range(10):
            dists = np.linalg.norm(target - ref[i], axis=1)
            assert np.flatnonzero(state.P[i]).tolist() == [np.argmin(dists)]

    def test_tie_breaks_to_lowest_index(self):
        target = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ref = np.array([[0.0, 0.0]])
        state, _ = closest_point_correspondence(pointset(target), pointset(ref), 0.1)
        assert state.P[0].tolist() == [1.0, 0.0]
