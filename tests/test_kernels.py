import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfgp.core import ConfigError, NumericalError
from sfgp.kernels import (
    PCAKernel,
    ScaledKernel,
    SquaredExponential,
    SumKernel,
    build_pca_kernel,
    gp_prior,
    load_pca_kernel,
    save_pca_kernel,
)
from sfgp.synthdata import fish_reference

from helpers import dense_gram, expand_kernel, pointset, random_points


def full_gram(prior):
    """The prior's scalar kernel over all of its points, as one block."""
    idx = np.arange(prior.n)
    return prior.block(idx, idx)


def pair_gram(spec, x, y):
    """Scalar Gram matrix of `spec` over the two points x and y."""
    return full_gram(gp_prior(spec, pointset([x, y])))


def test_se_at_zero_distance_is_amplitude():
    g = pair_gram(SquaredExponential(1.0, 1.0), [0.3, -0.2], [1.0, 0.5])
    assert g[0, 0] == pytest.approx(1.0)
    assert g[1, 1] == pytest.approx(1.0)


def test_se_direct_formula():
    # squared distance 2 with unit lengthscale: 2 * exp(-1)
    g = pair_gram(SquaredExponential(2.0, 1.0), [0.0, 0.0], [1.0, 1.0])
    assert g[0, 1] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)


def test_sum_and_scaled_at_zero_distance():
    spec = SumKernel(SquaredExponential(1.0, 1.0), ScaledKernel(0.5, SquaredExponential(1.0, 2.0)))
    g = pair_gram(spec, [1.0, 2.0], [0.0, 0.0])
    assert g[0, 0] == pytest.approx(1.5)


@given(
    st.floats(0.1, 5.0),
    st.floats(0.1, 5.0),
    st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
    st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
)
@settings(max_examples=50, deadline=None)
def test_se_symmetry(a2, ell, xs, ys):
    spec = SquaredExponential(a2, ell)
    g_xy = pair_gram(spec, xs, ys)
    g_yx = pair_gram(spec, ys, xs)
    assert g_xy[0, 1] == g_xy[1, 0] == g_yx[0, 1]


def test_gram_single_point():
    prior = replace(gp_prior(SquaredExponential(1.0, 1.0), pointset([[0.0, 0.0]])), jitter=0.0)
    g = full_gram(prior)
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(1.0)
    assert prior.k0 == 1.0
    assert prior.lowrank_u is None


def test_gram_collinear_points():
    ref = pointset([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    g = full_gram(replace(gp_prior(SquaredExponential(1.0, 1.0), ref), jitter=1e-10))
    assert g[0, 1] == pytest.approx(np.exp(-0.5), rel=1e-14)
    assert g[1, 2] == pytest.approx(np.exp(-0.5), rel=1e-14)
    assert g[0, 2] == pytest.approx(np.exp(-2.0), rel=1e-14)


def test_gram_spd_after_jitter():
    rng = np.random.default_rng(11)
    ref = pointset(rng.uniform(-1, 1, size=(10, 2)))
    g = full_gram(replace(gp_prior(SquaredExponential(1.0, 0.5), ref), jitter=1e-8))
    # dense symmetric eigendecomposition oracle
    evals = np.linalg.eigvalsh(g + 1e-8 * np.eye(10))
    assert np.all(evals > 0)
    assert np.allclose(g, g.T, rtol=1e-12, atol=0)


def test_gram_random_specs_spd_property():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 4))
        ref = pointset(random_points(rng, n, d, min_sep=0.05))
        spec = SumKernel(
            SquaredExponential(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.2, 2.0))),
            ScaledKernel(
                float(rng.uniform(0.1, 2.0)),
                SquaredExponential(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.2, 2.0))),
            ),
        )
        prior = replace(gp_prior(spec, ref), jitter=1e-8)
        g = full_gram(prior)
        assert np.allclose(g, g.T, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(g, dense_gram(prior), rtol=1e-12, atol=1e-15)
        np.linalg.cholesky(g + 1e-8 * np.eye(n))


def test_gram_composition_linearity():
    rng = np.random.default_rng(3)
    ref = pointset(rng.uniform(-1, 1, size=(6, 2)))
    k1 = SquaredExponential(1.3, 0.7)
    k2 = SquaredExponential(0.4, 1.9)

    def gram(spec):
        return full_gram(replace(gp_prior(spec, ref), jitter=0.0))

    np.testing.assert_allclose(gram(SumKernel(k1, k2)), gram(k1) + gram(k2), rtol=1e-12)
    np.testing.assert_allclose(gram(ScaledKernel(2.5, k1)), 2.5 * gram(k1), rtol=1e-12)


@pytest.mark.parametrize("spec", [
    ScaledKernel(1e300, SquaredExponential(1e300, 0.2)),  # amplitudes overflow
    ScaledKernel(1e154, SquaredExponential(1.5e154, 0.2)),  # the jitter overflows
    SumKernel(SquaredExponential(1e308, 0.2), SquaredExponential(1e308, 0.2)),  # k0 overflows
])
def test_non_finite_gram_raises_numerical_error(spec):
    # the posterior's factorization skips SciPy's finiteness scan, so the
    # check is made here, and an overflow is reported by the error alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite"):
            gp_prior(spec, fish_reference())


def test_overflowing_pca_amplitude_raises_numerical_error():
    # scale times eigenvalue overflows: reported by the error alone
    rng = np.random.default_rng(9)
    ref = pointset(rng.normal(size=(5, 2)))
    pca = build_pca_kernel(rng.normal(scale=1e5, size=(4, 10)), 2, ref)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite"):
            gp_prior(ScaledKernel(1e300, pca), ref)


def test_jitter_is_a_fixed_fraction_of_the_mean_prior_diagonal():
    # 1e-8 times the mean of the kernel diagonal: k0 on the isotropic path,
    # and k0 plus each point's low-rank variance averaged with PCA
    rng = np.random.default_rng(12)
    ref = pointset(rng.normal(size=(6, 2)))
    se = SquaredExponential(0.3, 0.5)
    assert gp_prior(ScaledKernel(2.0, se), ref).jitter == pytest.approx(1e-8 * 0.6, rel=1e-15)
    pca = build_pca_kernel(rng.normal(size=(5, 12)), 2, ref)
    prior = gp_prior(SumKernel(se, pca), ref)
    assert prior.jitter == pytest.approx(1e-8 * np.diag(expand_kernel(prior)).mean(), rel=1e-12)


def test_kronecker_block_solve_matches_dense_expansion():
    rng = np.random.default_rng(99)
    for n, d in [(4, 2), (6, 3), (8, 2)]:
        ref = pointset(random_points(rng, n, d, min_sep=0.15))
        prior = replace(gp_prior(SquaredExponential(1.0, 0.8), ref), jitter=1e-10)
        k = expand_kernel(prior)
        b = rng.normal(size=(n, d))
        x_dense = np.linalg.solve(k + 1e-10 * np.eye(n * d), b.reshape(-1)).reshape(n, d)
        x_block = np.linalg.solve(full_gram(prior) + 1e-10 * np.eye(n), b)
        np.testing.assert_allclose(x_block, x_dense, rtol=1e-9, atol=1e-12)


class TestBuildPCAKernel:
    def test_two_antipodal_samples(self):
        anchor = pointset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        x = np.array([1.0, 0.0, 0.5, -0.5, 0.25, 0.25])
        spec = build_pca_kernel([x, -x], rank=1, anchor=anchor)
        direction = spec.eigenvectors[:, 0]
        cosine = abs(direction @ x) / np.linalg.norm(x)
        assert cosine == pytest.approx(1.0, rel=1e-12)
        # unbiased sample covariance of {x, -x} is 2 x x^T
        assert spec.eigenvalues[0] == pytest.approx(2.0 * np.sum(x**2), rel=1e-12)

    def test_rank3_truncation_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(17)
        anchor = pointset(rng.normal(size=(3, 2)))
        samples = rng.normal(size=(5, 6))
        spec = build_pca_kernel(samples, rank=3, anchor=anchor)
        recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T

        cov = np.cov(samples, rowvar=False, ddof=1)
        evals, evecs = np.linalg.eigh(cov)
        order = np.argsort(evals)[::-1]
        evals, evecs = evals[order], evecs[:, order]
        truncated = evecs[:, :3] @ np.diag(evals[:3]) @ evecs[:, :3].T
        assert np.linalg.norm(recon - truncated) == pytest.approx(0.0, abs=1e-10)

    def test_identical_samples_have_no_spectrum(self):
        anchor = pointset([[0.0, 0.0], [1.0, 1.0]])
        x = np.ones(4)
        with pytest.raises(ConfigError):
            build_pca_kernel([x, x, x], rank=1, anchor=anchor)

    def test_rank_bounds(self):
        anchor = pointset([[0.0, 0.0], [1.0, 1.0]])
        samples = np.random.default_rng(0).normal(size=(3, 4))
        with pytest.raises(ConfigError):
            build_pca_kernel(samples, rank=3, anchor=anchor)  # > n_samples - 1

    @pytest.mark.parametrize("lam, vec", [
        ([np.nan], [[1.0], [0.0], [0.0], [0.0]]),
        ([np.inf], [[1.0], [0.0], [0.0], [0.0]]),
        ([1.0], [[np.nan], [0.0], [0.0], [0.0]]),
    ])
    def test_non_finite_spectrum_rejected(self, lam, vec):
        # the posterior solves against the eigenvectors without a finiteness scan
        anchor = pointset([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            PCAKernel(eigenvalues=np.array(lam), eigenvectors=np.array(vec), anchor=anchor)

    @pytest.mark.parametrize("lam, vec, needle", [
        ([], np.zeros((4, 0)), "nonempty"),
        ([[1.0]], [[1.0], [0.0], [0.0], [0.0]], "nonempty"),
        ([0.0], [[1.0], [0.0], [0.0], [0.0]], "positive"),
        ([-1.0], [[1.0], [0.0], [0.0], [0.0]], "positive"),
        ([1.0, 2.0], np.eye(4)[:, :2], "nonincreasing"),
        ([1.0], [[1.0], [0.0], [0.0]], "shape"),
        ([1.0], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]], "shape"),
    ], ids=["empty", "matrix", "zero", "negative", "increasing", "short_vectors",
            "extra_column"])
    def test_malformed_spectrum_rejected(self, lam, vec, needle):
        anchor = pointset([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match=needle):
            PCAKernel(eigenvalues=np.array(lam), eigenvectors=np.array(vec), anchor=anchor)

    @pytest.mark.parametrize("samples, rank, error, needle", [
        (np.ones((1, 4)), 1, ValueError, "at least 2"),
        (np.ones(4), 1, ValueError, "at least 2"),
        (np.arange(15.0).reshape(3, 5), 1, ValueError, "N_R \\* d"),
        (np.random.default_rng(1).normal(size=(3, 4)), 0, ConfigError, "rank must be"),
    ], ids=["one_sample", "vector", "wrong_width", "rank_zero"])
    def test_malformed_training_set_rejected(self, samples, rank, error, needle):
        anchor = pointset([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(error, match=needle):
            build_pca_kernel(samples, rank=rank, anchor=anchor)


@pytest.mark.parametrize("make, field", [
    (lambda: SquaredExponential(amplitude2=True), "amplitude2"),
    (lambda: SquaredExponential(amplitude2="0.01"), "amplitude2"),
    (lambda: ScaledKernel("2", SquaredExponential()), "factor"),
], ids=["true_amplitude", "string_amplitude", "string_factor"])
def test_spec_value_of_wrong_kind_names_its_field(make, field):
    # True would run as 1.0; a string would fail inside NumPy, far from its field
    with pytest.raises(ValueError, match=field):
        make()


def test_spec_stores_numbers_as_floats():
    spec = ScaledKernel(np.int64(2), SquaredExponential(1, 2))
    assert all(type(v) is float for v in (spec.factor, spec.inner.amplitude2,
                                          spec.inner.lengthscale))


def test_pca_gram_requires_anchor():
    rng = np.random.default_rng(5)
    anchor = pointset(rng.normal(size=(4, 2)))
    samples = rng.normal(size=(6, 8))
    spec = build_pca_kernel(samples, rank=2, anchor=anchor)
    prior = replace(gp_prior(SumKernel(SquaredExponential(1.0, 1.0), spec), anchor), jitter=1e-8)
    assert prior.lowrank_u is not None
    other = pointset(rng.normal(size=(4, 2)))
    with pytest.raises(ConfigError):
        gp_prior(spec, other)


def test_pca_gram_expansion_matches_truncated_covariance():
    rng = np.random.default_rng(21)
    anchor = pointset(rng.normal(size=(4, 2)))
    samples = rng.normal(size=(7, 8))
    spec = build_pca_kernel(samples, rank=3, anchor=anchor)
    prior = replace(gp_prior(spec, anchor), jitter=1e-9)
    np.testing.assert_array_equal(full_gram(prior), 0.0)  # no scalar part
    k = expand_kernel(prior)
    manual = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
    np.testing.assert_allclose(k, manual, rtol=1e-12, atol=1e-14)


def test_spectrum_file_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    anchor = pointset(rng.normal(size=(5, 3)))
    samples = rng.normal(size=(8, 15))
    spec = build_pca_kernel(samples, rank=4, anchor=anchor)
    path = tmp_path / "spectrum.npz"
    save_pca_kernel(path, spec)
    loaded = load_pca_kernel(path, anchor)
    np.testing.assert_array_equal(loaded.eigenvalues, spec.eigenvalues)
    np.testing.assert_array_equal(loaded.eigenvectors, spec.eigenvectors)
    wrong = pointset(rng.normal(size=(5, 3)))
    with pytest.raises(ConfigError):
        load_pca_kernel(path, wrong)
