import numpy as np
import pytest

from sfgp.core import (
    NoMassError,
    RegistrationConfig,
)
from sfgp.correspondence import ResponsibilityInputs, get_correspondences
from sfgp.gpr import gpr_posterior
from sfgp.kernels import SquaredExponential, assemble_gram
from sfgp.registration import (
    SIGMA2_FLOOR,
    VARIANTS,
    register,
    update_sigma2,
    variant_config,
)
from sfgp.synthdata import PerturbationSpec, fish_reference, generate

from helpers import (
    direct_deformation_update,
    literal_variance_update,
    pointset,
    random_points,
)


class TestUpdateSigma2:
    def test_zero_residual_hits_floor(self):
        s = pointset([[1.0, 2.0]])
        out = update_sigma2(
            np.array([[1.0]]), np.array([1.0]), s, s, np.zeros(1), "per_point"
        )
        assert out[0] == SIGMA2_FLOOR

    def test_single_pair_direct(self):
        # ||s - rbar||^2 = 8 in 2D with unit mass: variance 8 / d = 4
        target = pointset([[2.0, 2.0]])
        rbar = pointset([[0.0, 0.0]])
        out = update_sigma2(
            np.array([[1.0]]), np.array([1.0]), target, rbar, np.zeros(1), "per_point"
        )
        assert out[0] == pytest.approx(4.0, rel=1e-14)

    def test_matches_literal_matrix_expression(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.01, 1.0, size=(4, 6))
        target = pointset(rng.uniform(-1, 1, size=(6, 2)))
        rbar = pointset(rng.uniform(-1, 1, size=(4, 2)))
        post_var = rng.uniform(0.0, 0.2, size=4)
        got = update_sigma2(p, p.sum(axis=1), target, rbar, post_var, "per_point")
        expected = literal_variance_update(p, target.points, rbar.points, post_var)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_scalar_mode_pools_all_mass(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.01, 1.0, size=(3, 5))
        target = pointset(rng.uniform(-1, 1, size=(5, 2)))
        rbar = pointset(rng.uniform(-1, 1, size=(3, 2)))
        post_var = rng.uniform(0.0, 0.1, size=3)
        nu = p.sum(axis=1)
        got = update_sigma2(p, nu, target, rbar, post_var, "scalar")
        sq = np.sum(
            (target.points[None, :, :] - rbar.points[:, None, :]) ** 2, axis=2
        )
        d = 2
        expected = (np.sum(p * sq) + d * np.sum(nu * post_var)) / (d * nu.sum())
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        assert np.all(got == got[0])

    def test_zero_mass_point_keeps_previous_value(self):
        p = np.array([[0.0, 0.0], [0.5, 0.5]])
        target = pointset([[1.0, 0.0], [0.0, 1.0]])
        rbar = pointset([[0.0, 0.0], [0.1, 0.1]])
        prev = np.array([0.123, 0.456])
        out = update_sigma2(
            p, p.sum(axis=1), target, rbar, np.zeros(2), "per_point", prev_sigma2=prev
        )
        assert out[0] == prev[0]

    def test_no_mass_at_all_raises(self):
        p = np.zeros((2, 2))
        s = pointset([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(NoMassError):
            update_sigma2(p, p.sum(axis=1), s, s, np.zeros(2), "per_point")
        with pytest.raises(NoMassError):
            update_sigma2(p, p.sum(axis=1), s, s, np.zeros(2), "scalar")

    def test_variance_modes_agree_on_symmetric_instance(self):
        # cross geometry: both rows have identical mass and residual profile
        target = pointset([[0.0, 1.0], [0.0, -1.0]])
        rbar = pointset([[1.0, 0.0], [-1.0, 0.0]])
        p = np.full((2, 2), 0.5)
        post_var = np.full(2, 0.05)
        per_point = update_sigma2(p, p.sum(axis=1), target, rbar, post_var, "per_point")
        scalar = update_sigma2(p, p.sum(axis=1), target, rbar, post_var, "scalar")
        np.testing.assert_allclose(per_point, scalar, atol=1e-10)


class TestCoupledUpdateEquivalence:
    """One multi-annotator iteration without thresholding reproduces the
    direct coupled-update posterior (dense oracle) exactly."""

    def _one_iteration(self, ref, target, sigma2, post_var, omega):
        gram = assemble_gram(SquaredExponential(1.0, 0.7), ref, 0.0)
        inputs = ResponsibilityInputs(
            target=target,
            deformed_ref=ref,
            sigma2=sigma2,
            post_var=post_var,
            omega=omega,
        )
        state, ann = get_correspondences(inputs, p_min=0.01, mode="off")
        assert state.missing.size == 0, "equivalence needs full correspondence"
        post = gpr_posterior(gram, state.inliers, ann.delta_hat, ann.sigma2_eff, 0.0)
        return gram, state.P, post

    def test_matches_direct_formulas(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            n = int(rng.integers(3, 11))
            m = int(rng.integers(3, 11))
            ref = pointset(random_points(rng, n, 2, min_sep=0.15))
            target = pointset(random_points(rng, m, 2, min_sep=0.15))
            sigma2 = rng.uniform(0.1, 1.0, size=n)
            post_var = rng.uniform(0.0, 0.3, size=n)
            omega = float(rng.uniform(0.0, 0.5))
            gram, p, post = self._one_iteration(ref, target, sigma2, post_var, omega)
            mu_o, var_o = direct_deformation_update(
                gram.g, 2, p, target.points, ref.points, sigma2
            )
            np.testing.assert_allclose(post.mu, mu_o, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(post.var_diag, var_o, rtol=1e-8, atol=1e-12)


class TestRegister:
    kernel = SquaredExponential(0.01, 0.2)

    def test_self_registration_stays_put(self):
        fish = fish_reference()
        res = register(fish, fish, self.kernel, RegistrationConfig())
        assert not res.failed
        assert res.converged
        assert res.state.missing.size == 0
        diameter = float(np.max(fish.points.max(0) - fish.points.min(0)))
        mean_disp = np.mean(
            np.linalg.norm(res.deformed_reference.points - fish.points, axis=1)
        )
        assert mean_disp <= 1e-3 * diameter

    def test_deterministic(self):
        fish = fish_reference()
        inst = generate(
            fish,
            PerturbationSpec(warp_amplitude=0.03, missing_width=0.3, noise_std=0.02, seed=5),
        )
        cfg = RegistrationConfig(p_min=0.05, max_iters=40)
        a = register(fish, inst.target, self.kernel, cfg)
        b = register(fish, inst.target, self.kernel, cfg)
        assert np.array_equal(a.deformed_reference.points, b.deformed_reference.points)
        assert np.array_equal(a.sigma2, b.sigma2)
        assert a.iters == b.iters and a.converged == b.converged

    def test_trace_and_invariants(self):
        fish = fish_reference()
        inst = generate(
            fish,
            PerturbationSpec(warp_amplitude=0.03, missing_width=0.4, noise_std=0.02, seed=9),
        )
        cfg = RegistrationConfig(p_min=0.05, max_iters=60)
        res = register(fish, inst.target, self.kernel, cfg)
        assert 0 < len(res.trace) <= cfg.max_iters
        for rec in res.trace:
            assert rec.mean_sigma2 >= SIGMA2_FLOOR
            assert rec.n_inliers + rec.n_missing == fish.n
        assert np.all(res.sigma2 >= SIGMA2_FLOOR)
        assert np.all(np.isfinite(res.deformed_reference.points))

    def test_first_iteration_failure(self):
        ref = pointset([[0.0, 0.0], [1.0, 0.0]])
        target = pointset([[1e160, 1e160]])
        res = register(ref, target, SquaredExponential(1.0, 1.0),
                       RegistrationConfig(sigma2_init=1e-6))
        assert res.failed
        assert res.failure_reason == "first_iteration"
        assert res.iters == 1

    def test_outlier_instance_succeeds(self):
        fish = fish_reference()
        inst = generate(
            fish,
            PerturbationSpec(warp_amplitude=0.03, outlier_ratio=2.0, noise_std=0.02, seed=3),
        )
        cfg = variant_config("SFGP_Full", RegistrationConfig(omega=0.3, p_min=0.05))
        res = register(fish, inst.target, self.kernel, cfg)
        assert not res.failed

    def test_closest_point_variant_runs(self):
        fish = fish_reference()
        inst = generate(fish, PerturbationSpec(warp_amplitude=0.03, noise_std=0.02, seed=1))
        cfg = variant_config("GPClosestPnt", RegistrationConfig(max_iters=30))
        res = register(fish, inst.target, self.kernel, cfg)
        assert not res.failed
        assert res.state.missing.size == 0  # hard assignment never drops points

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_variant_raises_no_float_errors(self, variant):
        fish = fish_reference()
        inst = generate(
            fish,
            PerturbationSpec(warp_amplitude=0.03, missing_width=0.3, outlier_ratio=0.5,
                             noise_std=0.02, seed=4),
        )
        cfg = variant_config(variant, RegistrationConfig(omega=0.1, p_min=0.05))
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            res = register(fish, inst.target, self.kernel, cfg)
        assert not res.failed

    def test_dim_mismatch_rejected(self):
        ref = pointset([[0.0, 0.0], [1.0, 1.0]])
        target = pointset([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ValueError):
            register(ref, target, self.kernel, RegistrationConfig())


def test_variant_table():
    assert set(VARIANTS) == {"SFGP_Full", "SFGP_bcpdReg", "GPReg_noTresh", "GPClosestPnt"}
    cfg = variant_config("SFGP_bcpdReg")
    assert cfg.variance_mode == "scalar"
    cfg = variant_config("GPReg_noTresh")
    assert cfg.threshold_mode == "off"
    with pytest.raises(ValueError, match="SFGP_Full"):
        variant_config("NoSuchThing")
