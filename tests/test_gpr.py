import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfgp.core import AllMissingError, NoAnnotationError
from sfgp.correspondence import ResponsibilityInputs, get_correspondences
from sfgp.gpr import gpr_posterior
from sfgp.kernels import (
    ScaledKernel,
    SquaredExponential,
    SumKernel,
    build_pca_kernel,
    gp_prior,
)
from sfgp.synthdata import fish_reference

from helpers import dense_gpr, pointset, random_points


def two_point_prior():
    return gp_prior(SquaredExponential(1.0, 1.0), pointset([[0.0, 0.0], [5.0, 0.0]]), 0.0)


def fuse(target_pts, rbar_pts, sigma2, omega=0.0, p_min=0.01):
    inputs = ResponsibilityInputs(
        target=pointset(target_pts),
        deformed_ref=pointset(rbar_pts),
        sigma2=np.asarray(sigma2, dtype=float),
        post_var=np.zeros(len(rbar_pts)),
        omega=omega,
    )
    return get_correspondences(inputs, p_min)


def random_fusion(rng, n_r=5, n_s=8):
    target = rng.uniform(-1, 1, size=(n_s, 2))
    rbar = rng.uniform(-1, 1, size=(n_r, 2))
    sigma2 = rng.uniform(0.05, 0.6, size=n_r)
    state, ann = fuse(target, rbar, sigma2, omega=float(rng.uniform(0, 0.4)))
    return target, rbar, sigma2, state, ann


class TestAggregation:
    """Precision-weighted fusion of the annotations of each reference point,
    as get_correspondences computes it: pair (i, j) with p_ij above the
    threshold annotates label s_j - r_bar_i at variance sigma2_i / p_ij."""

    def test_singleton_identity(self):
        _, ann = fuse([[1.0, 0.0]], [[0.0, 0.0]], [0.3])
        assert np.array_equal(ann.delta_hat[0], [1.0, 0.0])
        assert ann.sigma2_eff[0] == 0.3  # a certain match keeps its variance exactly

    def test_equal_weights_average(self):
        # one reference point and no outlier mass: both targets match it with p = 1
        state, ann = fuse([[1.0, 0.0], [3.0, 0.0]], [[0.0, 0.0]], [2.0])
        np.testing.assert_array_equal(state.P, 1.0)
        np.testing.assert_allclose(ann.delta_hat[0], [2.0, 0.0], rtol=1e-15)
        assert ann.sigma2_eff[0] == pytest.approx(1.0, rel=1e-15)

    def test_precision_weighting_hand_oracle(self):
        # the fused label against the per-annotation precision sums:
        # 1/var = sum_j p_ij / sigma2_i, delta = var * sum_j (p_ij / sigma2_i) (s_j - r_bar_i)
        rng = np.random.default_rng(0)
        for _ in range(20):
            target, rbar, sigma2, state, ann = random_fusion(rng)
            for k, i in enumerate(state.inliers):
                js = np.flatnonzero(state.P[i] > 0.01)
                precisions = 1.0 / (sigma2[i] / state.P[i, js])
                var = 1.0 / precisions.sum()
                delta = var * (precisions[:, None] * (target[js] - rbar[i])).sum(axis=0)
                assert ann.sigma2_eff[k] == pytest.approx(var, rel=1e-12)
                np.testing.assert_allclose(ann.delta_hat[k], delta, rtol=1e-12, atol=1e-14)

    def test_empty_list_rejected(self):
        # a point without annotations carries no label; with no labels at
        # all there is nothing to regress on
        prior = two_point_prior()
        with pytest.raises(NoAnnotationError):
            gpr_posterior(prior, np.array([], dtype=int), np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("bad", [2, -1])
    def test_inlier_outside_the_reference_rejected(self, bad):
        # the gathers of A and G_xC wrap indices, so the range is checked first
        prior = two_point_prior()
        with pytest.raises(IndexError):
            gpr_posterior(prior, np.array([0, bad]), np.zeros((2, 2)), np.ones(2))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_noise_that_is_not_positive_and_finite_rejected(self, bad):
        # the observed block is factored without SciPy's finiteness scan
        prior = two_point_prior()
        with pytest.raises(ValueError, match="sigma2_eff"):
            gpr_posterior(prior, np.array([0, 1]), np.zeros((2, 2)), np.array([1.0, bad]))

    @given(
        arrays(np.float64, st.tuples(st.integers(1, 8), st.just(2)), elements=st.floats(-1, 1)),
        arrays(np.float64, 3, elements=st.floats(0.01, 1.0)),
        st.floats(0.0, 0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_effective_variance_never_exceeds_best_annotation(self, target, sigma2, omega):
        rbar = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]]
        try:
            state, ann = fuse(target, rbar, sigma2, omega)
        except AllMissingError:
            assume(False)
        for k, i in enumerate(state.inliers):
            best = sigma2[i] / state.P[i].max()
            assert ann.sigma2_eff[k] <= best * (1 + 1e-12)

    def test_reciprocal_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            _, _, sigma2, state, ann = random_fusion(rng)
            for k, i in enumerate(state.inliers):
                row = state.P[i]
                precision = np.sum(row[row > 0.01]) / sigma2[i]
                assert 1.0 / ann.sigma2_eff[k] == pytest.approx(precision, rel=1e-12)


class TestPosterior:
    def test_one_point_closed_form(self):
        prior = gp_prior(SquaredExponential(1.0, 1.0), pointset([[0.3, -0.2]]), 0.0)
        post = gpr_posterior(prior, np.array([0]), np.array([[1.0, -2.0]]), np.array([1.0]))
        np.testing.assert_allclose(post.mu[0], [0.5, -1.0], rtol=1e-15)
        assert post.var_diag[0] == pytest.approx(0.5, rel=1e-15)

    def test_infinite_noise_collapses_to_prior_mean(self):
        rng = np.random.default_rng(8)
        ref = pointset(random_points(rng, 6, 2))
        prior = gp_prior(SquaredExponential(1.0, 0.5), ref, 0.0)
        delta = rng.normal(size=(6, 2))
        post = gpr_posterior(prior, np.arange(6), delta, np.full(6, 1e12))
        assert np.linalg.norm(post.mu) <= 1e-6 * np.linalg.norm(delta)

    def test_matches_dense_oracle_full_correspondence(self):
        rng = np.random.default_rng(23)
        ref = pointset(random_points(rng, 5, 2, min_sep=0.2))
        prior = gp_prior(SquaredExponential(1.2, 0.6), ref, 0.0)
        delta = rng.normal(size=(5, 2))
        noise = rng.uniform(0.05, 1.0, size=5)
        post = gpr_posterior(prior, np.arange(5), delta, noise)
        mu_o, var_o = dense_gpr(prior, np.arange(5), delta, noise, 0.0)
        np.testing.assert_allclose(post.mu, mu_o, rtol=1e-10)
        np.testing.assert_allclose(post.var_diag, var_o, rtol=1e-10, atol=1e-12)

    def test_matches_dense_oracle_with_missing_points(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            ref = pointset(random_points(rng, n, 2, min_sep=0.15))
            prior = gp_prior(SquaredExponential(1.0, 0.7), ref, 0.0)
            c = int(rng.integers(1, n))
            inliers = np.sort(rng.choice(n, size=c, replace=False))
            delta = rng.normal(size=(c, 2))
            noise = rng.uniform(0.02, 0.8, size=c)
            post = gpr_posterior(prior, inliers, delta, noise)
            mu_o, var_o = dense_gpr(prior, inliers, delta, noise, 0.0)
            np.testing.assert_allclose(post.mu, mu_o, rtol=1e-9, atol=1e-13)
            np.testing.assert_allclose(post.var_diag, var_o, rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize("d", [2, 3])
    def test_lowrank_path_matches_dense_oracle(self, d):
        rng = np.random.default_rng(47)
        for _ in range(8):
            n = 5
            anchor = pointset(random_points(rng, n, d, min_sep=0.15))
            samples = rng.normal(size=(9, n * d))
            pca = build_pca_kernel(samples, rank=3, anchor=anchor)
            spec = SumKernel(SquaredExponential(0.8, 0.5), pca)
            prior = gp_prior(spec, anchor, 1e-10)
            c = int(rng.integers(1, n + 1))
            inliers = np.sort(rng.choice(n, size=c, replace=False))
            delta = rng.normal(size=(c, d))
            noise = rng.uniform(0.05, 1.0, size=c)
            post = gpr_posterior(prior, inliers, delta, noise)
            mu_o, var_o = dense_gpr(prior, inliers, delta, noise, prior.jitter)
            np.testing.assert_allclose(post.mu, mu_o, rtol=1e-8, atol=1e-11)
            np.testing.assert_allclose(post.var_diag, var_o, rtol=1e-8, atol=1e-11)

    def test_lowrank_path_matches_dense_oracle_at_fish_scale(self):
        # the fish98 reference in its own units: PCA eigenvalues near 0.02 on
        # SE(0.01, 0.2), label noise down to 1e-8, so the variance of a
        # labelled point is a small remainder of terms of the eigenvalues' size
        rng = np.random.default_rng(59)
        ref = fish_reference()
        n, d = ref.n, ref.dim
        for _ in range(8):
            pca = build_pca_kernel(rng.normal(scale=0.02, size=(6, n * d)), rank=3, anchor=ref)
            prior = gp_prior(SumKernel(SquaredExponential(0.01, 0.2), pca), ref, 1e-10)
            c = int(rng.integers(40, n + 1))
            inliers = np.sort(rng.choice(n, size=c, replace=False))
            delta = rng.normal(scale=0.05, size=(c, d))
            noise = 10.0 ** rng.uniform(-8, -3, size=c)
            post = gpr_posterior(prior, inliers, delta, noise)
            mu_o, var_o = dense_gpr(prior, inliers, delta, noise, prior.jitter)
            # the small entries of the mean carry the conditioning of both
            # solves, so the mean is compared at its own scale
            np.testing.assert_allclose(post.mu, mu_o, rtol=0.0, atol=1e-8 * np.abs(mu_o).max())
            np.testing.assert_allclose(post.var_diag, var_o, rtol=1e-8, atol=0.0)

    def test_lowrank_variance_at_a_label_is_at_most_its_noise(self):
        # conditioning on a label never leaves a point wider than that label:
        # with eigenvalues 3e8 to 1e9 times the label noise, a variance
        # formed as a difference of terms of the eigenvalues' size loses it
        rng = np.random.default_rng(5)
        n, d = 12, 3
        for _ in range(50):
            ref = pointset(random_points(rng, n, d))
            pca = build_pca_kernel(rng.normal(size=(8, n * d)), 5, ref)
            spec = SumKernel(SquaredExponential(0.01, 0.3), ScaledKernel(1e4, pca))
            prior = gp_prior(spec, ref, 1e-10)
            inliers = np.sort(rng.choice(n, size=10, replace=False))
            noise = np.full(10, 1e-4)
            post = gpr_posterior(prior, inliers, rng.normal(size=(10, d)), noise)
            assert np.all(post.var_diag[inliers] <= (noise + prior.jitter) * (1 + 1e-9))
            assert np.all(post.var_diag > 0.0)

    def test_pure_lowrank_kernel(self):
        rng = np.random.default_rng(53)
        n, d = 4, 2
        anchor = pointset(random_points(rng, n, d, min_sep=0.2))
        pca = build_pca_kernel(rng.normal(size=(7, n * d)), rank=2, anchor=anchor)
        prior = gp_prior(pca, anchor, 1e-9)
        inliers = np.array([0, 2, 3])
        delta = rng.normal(size=(3, d))
        noise = rng.uniform(0.1, 0.5, size=3)
        post = gpr_posterior(prior, inliers, delta, noise)
        mu_o, var_o = dense_gpr(prior, inliers, delta, noise, prior.jitter)
        np.testing.assert_allclose(post.mu, mu_o, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(post.var_diag, var_o, rtol=1e-8, atol=1e-12)

    def test_reduction_to_homoscedastic(self):
        rng = np.random.default_rng(61)
        ref = random_points(rng, 7, 2, min_sep=0.15)
        prior = gp_prior(SquaredExponential(1.0, 0.6), pointset(ref), 0.0)
        # narrow mixtures make every target a certain match of its own point:
        # one annotation each, at the shared variance
        sigma_n2 = 1e-4
        target = ref + rng.normal(scale=0.002, size=ref.shape)
        state, ann = fuse(target, ref, np.full(7, sigma_n2))
        assert state.inliers.tolist() == list(range(7))
        assert np.all(ann.sigma2_eff == sigma_n2)  # singleton fusion is exact
        delta = ann.delta_hat
        post = gpr_posterior(prior, state.inliers, delta, ann.sigma2_eff)
        uniform = gpr_posterior(prior, np.arange(7), delta, np.full(7, sigma_n2))
        np.testing.assert_array_equal(post.mu, uniform.mu)
        np.testing.assert_array_equal(post.var_diag, uniform.var_diag)

    def test_posterior_variance_bounded_by_prior(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            ref = pointset(random_points(rng, n, 2, min_sep=0.12))
            prior = gp_prior(SquaredExponential(1.5, 0.5), ref, 0.0)
            c = int(rng.integers(1, n + 1))
            inliers = np.sort(rng.choice(n, size=c, replace=False))
            post = gpr_posterior(
                prior, inliers, rng.normal(size=(c, 2)), rng.uniform(0.01, 2.0, size=c)
            )
            assert np.all(post.var_diag <= prior.k0 + 1e-10)

    def test_interpolation_limit(self):
        rng = np.random.default_rng(83)
        ref = pointset(random_points(rng, 5, 2, min_sep=0.25))
        prior = gp_prior(SquaredExponential(1.0, 0.5), ref, 0.0)
        delta = rng.normal(size=(5, 2))
        post = gpr_posterior(prior, np.arange(5), delta, np.full(5, 1e-12))
        np.testing.assert_allclose(post.mu, delta, atol=1e-6)

    def test_missing_point_removal_does_not_perturb_others(self):
        rng = np.random.default_rng(97)
        ref = pointset(random_points(rng, 6, 2, min_sep=0.15))
        prior = gp_prior(SquaredExponential(1.0, 0.6), ref, 0.0)
        inliers = np.array([0, 1, 2, 3])  # 4 and 5 are missing
        delta = rng.normal(size=(4, 2))
        noise = rng.uniform(0.05, 0.5, size=4)
        post_full = gpr_posterior(prior, inliers, delta, noise)

        smaller = pointset(ref.points[:5])  # drop missing point 5
        prior_small = gp_prior(SquaredExponential(1.0, 0.6), smaller, 0.0)
        post_small = gpr_posterior(prior_small, inliers, delta, noise)
        np.testing.assert_allclose(post_full.mu[:5], post_small.mu, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            post_full.var_diag[:5], post_small.var_diag, rtol=1e-12, atol=1e-15
        )

    @pytest.mark.parametrize("with_pca", [False, True])
    def test_huge_label_noise_matches_dropping_the_labels(self, with_pca):
        # a label at variance 1e16 or 1e200 carries no information: the
        # posterior must equal the one without it, and nothing may overflow
        # on the way (p_min = 0 can fuse labels at such variances)
        rng = np.random.default_rng(101)
        n, d = 9, 3
        ref = pointset(random_points(rng, n, d, min_sep=0.2))
        spec = SquaredExponential(1.0, 0.6)
        if with_pca:
            spec = SumKernel(spec, build_pca_kernel(rng.normal(size=(8, n * d)), 3, ref))
        prior = gp_prior(spec, ref, 1e-10)
        inliers = np.array([0, 2, 3, 5, 6, 8])
        delta = rng.normal(size=(6, d))
        noise = rng.uniform(0.05, 0.5, size=6)
        noise[[1, 4]] = [1e16, 1e200]
        keep = np.array([0, 2, 3, 5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            post = gpr_posterior(prior, inliers, delta, noise)
            dropped = gpr_posterior(prior, inliers[keep], delta[keep], noise[keep])
        np.testing.assert_allclose(post.mu, dropped.mu, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(post.var_diag, dropped.var_diag, rtol=1e-12, atol=0.0)
