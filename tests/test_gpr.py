import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfgp.core import AllMissingError, NoAnnotationError
from sfgp.correspondence import ResponsibilityInputs, get_correspondences
from sfgp.gpr import gpr_posterior
from sfgp.kernels import (
    GramMatrix,
    SquaredExponential,
    SumKernel,
    assemble_gram,
    build_pca_kernel,
)

from helpers import dense_gpr, pointset, random_points


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
        gram = GramMatrix(g=np.eye(2), dim=2)
        with pytest.raises(NoAnnotationError):
            gpr_posterior(gram, np.array([], dtype=int), np.zeros((0, 2)), np.zeros(0))

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
        gram = GramMatrix(g=np.array([[1.0]]), dim=1)
        post = gpr_posterior(gram, np.array([0]), np.array([[1.0]]), np.array([1.0]))
        assert post.mu[0, 0] == pytest.approx(0.5, rel=1e-15)
        assert post.var_diag[0] == pytest.approx(0.5, rel=1e-15)

    def test_infinite_noise_collapses_to_prior_mean(self):
        rng = np.random.default_rng(8)
        ref = pointset(random_points(rng, 6, 2))
        gram = assemble_gram(SquaredExponential(1.0, 0.5), ref, 0.0)
        delta = rng.normal(size=(6, 2))
        post = gpr_posterior(gram, np.arange(6), delta, np.full(6, 1e12))
        assert np.linalg.norm(post.mu) <= 1e-6 * np.linalg.norm(delta)

    def test_matches_dense_oracle_full_correspondence(self):
        rng = np.random.default_rng(23)
        ref = pointset(random_points(rng, 5, 2, min_sep=0.2))
        gram = assemble_gram(SquaredExponential(1.2, 0.6), ref, 0.0)
        delta = rng.normal(size=(5, 2))
        noise = rng.uniform(0.05, 1.0, size=5)
        post = gpr_posterior(gram, np.arange(5), delta, noise, jitter=0.0)
        mu_o, var_o = dense_gpr(gram, np.arange(5), delta, noise, 0.0)
        np.testing.assert_allclose(post.mu, mu_o, rtol=1e-10)
        np.testing.assert_allclose(post.var_diag, var_o, rtol=1e-10, atol=1e-12)

    def test_matches_dense_oracle_with_missing_points(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            ref = pointset(random_points(rng, n, 2, min_sep=0.15))
            gram = assemble_gram(SquaredExponential(1.0, 0.7), ref, 0.0)
            c = int(rng.integers(1, n))
            inliers = np.sort(rng.choice(n, size=c, replace=False))
            delta = rng.normal(size=(c, 2))
            noise = rng.uniform(0.02, 0.8, size=c)
            post = gpr_posterior(gram, inliers, delta, noise, jitter=0.0)
            mu_o, var_o = dense_gpr(gram, inliers, delta, noise, 0.0)
            np.testing.assert_allclose(post.mu, mu_o, rtol=1e-9, atol=1e-13)
            np.testing.assert_allclose(post.var_diag, var_o, rtol=1e-9, atol=1e-13)

    def test_lowrank_path_matches_dense_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(8):
            n, d = 5, 2
            anchor = pointset(random_points(rng, n, d, min_sep=0.15))
            samples = rng.normal(size=(9, n * d))
            pca = build_pca_kernel(samples, rank=3, anchor=anchor)
            spec = SumKernel(SquaredExponential(0.8, 0.5), pca)
            gram = assemble_gram(spec, anchor, 1e-10)
            c = int(rng.integers(1, n + 1))
            inliers = np.sort(rng.choice(n, size=c, replace=False))
            delta = rng.normal(size=(c, d))
            noise = rng.uniform(0.05, 1.0, size=c)
            post = gpr_posterior(gram, inliers, delta, noise, jitter=0.0)
            mu_o, var_o = dense_gpr(gram, inliers, delta, noise, 0.0)
            np.testing.assert_allclose(post.mu, mu_o, rtol=1e-8, atol=1e-11)
            np.testing.assert_allclose(post.var_diag, var_o, rtol=1e-8, atol=1e-11)

    def test_pure_lowrank_kernel(self):
        rng = np.random.default_rng(53)
        n, d = 4, 2
        anchor = pointset(random_points(rng, n, d, min_sep=0.2))
        pca = build_pca_kernel(rng.normal(size=(7, n * d)), rank=2, anchor=anchor)
        gram = assemble_gram(pca, anchor, 1e-9)
        inliers = np.array([0, 2, 3])
        delta = rng.normal(size=(3, d))
        noise = rng.uniform(0.1, 0.5, size=3)
        post = gpr_posterior(gram, inliers, delta, noise, jitter=0.0)
        mu_o, var_o = dense_gpr(gram, inliers, delta, noise, 0.0)
        np.testing.assert_allclose(post.mu, mu_o, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(post.var_diag, var_o, rtol=1e-8, atol=1e-12)

    def test_reduction_to_homoscedastic(self):
        rng = np.random.default_rng(61)
        ref = random_points(rng, 7, 2, min_sep=0.15)
        gram = assemble_gram(SquaredExponential(1.0, 0.6), pointset(ref), 0.0)
        # narrow mixtures make every target a certain match of its own point:
        # one annotation each, at the shared variance
        sigma_n2 = 1e-4
        target = ref + rng.normal(scale=0.002, size=ref.shape)
        state, ann = fuse(target, ref, np.full(7, sigma_n2))
        assert state.inliers.tolist() == list(range(7))
        assert np.all(ann.sigma2_eff == sigma_n2)  # singleton fusion is exact
        delta = ann.delta_hat
        post = gpr_posterior(gram, state.inliers, delta, ann.sigma2_eff, jitter=0.0)
        uniform = gpr_posterior(gram, np.arange(7), delta, np.full(7, sigma_n2), jitter=0.0)
        np.testing.assert_array_equal(post.mu, uniform.mu)
        np.testing.assert_array_equal(post.var_diag, uniform.var_diag)

    def test_posterior_variance_bounded_by_prior(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            ref = pointset(random_points(rng, n, 2, min_sep=0.12))
            gram = assemble_gram(SquaredExponential(1.5, 0.5), ref, 0.0)
            c = int(rng.integers(1, n + 1))
            inliers = np.sort(rng.choice(n, size=c, replace=False))
            post = gpr_posterior(
                gram, inliers, rng.normal(size=(c, 2)), rng.uniform(0.01, 2.0, size=c)
            )
            assert np.all(post.var_diag <= np.diag(gram.g) + 1e-10)

    def test_interpolation_limit(self):
        rng = np.random.default_rng(83)
        ref = pointset(random_points(rng, 5, 2, min_sep=0.25))
        gram = assemble_gram(SquaredExponential(1.0, 0.5), ref, 0.0)
        delta = rng.normal(size=(5, 2))
        post = gpr_posterior(gram, np.arange(5), delta, np.full(5, 1e-12), jitter=0.0)
        np.testing.assert_allclose(post.mu, delta, atol=1e-6)

    def test_missing_point_removal_does_not_perturb_others(self):
        rng = np.random.default_rng(97)
        ref = pointset(random_points(rng, 6, 2, min_sep=0.15))
        gram = assemble_gram(SquaredExponential(1.0, 0.6), ref, 0.0)
        inliers = np.array([0, 1, 2, 3])  # 4 and 5 are missing
        delta = rng.normal(size=(4, 2))
        noise = rng.uniform(0.05, 0.5, size=4)
        post_full = gpr_posterior(gram, inliers, delta, noise)

        smaller = pointset(ref.points[:5])  # drop missing point 5
        gram_small = assemble_gram(SquaredExponential(1.0, 0.6), smaller, 0.0)
        post_small = gpr_posterior(gram_small, inliers, delta, noise)
        np.testing.assert_allclose(post_full.mu[:5], post_small.mu, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            post_full.var_diag[:5], post_small.var_diag, rtol=1e-12, atol=1e-15
        )
