from dataclasses import replace

import numpy as np
import pytest

from sfgp import registration
from sfgp.core import (
    AllMissingError,
    NoMassError,
    PosteriorDeformation,
    RegistrationConfig,
)
from sfgp.correspondence import ResponsibilityInputs, get_correspondences
from sfgp.gpr import gpr_posterior
from sfgp.kernels import SquaredExponential, gp_prior
from sfgp.registration import (
    SIGMA2_FLOOR,
    VARIANTS,
    register,
    update_sigma2,
    variant_config,
)
from sfgp.synthdata import (
    DEFORMATION_AMPLITUDE_PER_LEVEL,
    PerturbationSpec,
    fish_reference,
    generate,
)

from helpers import (
    dense_gram,
    direct_deformation_update,
    literal_variance_update,
    pointset,
    random_points,
    row_moments,
)


class TestUpdateSigma2:
    def test_zero_residual_hits_floor(self):
        s = pointset([[1.0, 2.0]])
        out = update_sigma2(
            *row_moments(np.array([[1.0]]), s.points), s, np.zeros(1), "per_point", np.ones(1)
        )
        assert out[0] == SIGMA2_FLOOR

    def test_single_pair_direct(self):
        # ||s - rbar||^2 = 8 in 2D with unit mass: variance 8 / d = 4
        target = pointset([[2.0, 2.0]])
        rbar = pointset([[0.0, 0.0]])
        out = update_sigma2(
            *row_moments(np.array([[1.0]]), target.points), rbar, np.zeros(1), "per_point",
            np.ones(1),
        )
        assert out[0] == pytest.approx(4.0, rel=1e-14)

    def test_matches_literal_matrix_expression(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.01, 1.0, size=(4, 6))
        target = pointset(rng.uniform(-1, 1, size=(6, 2)))
        rbar = pointset(rng.uniform(-1, 1, size=(4, 2)))
        post_var = rng.uniform(0.0, 0.2, size=4)
        got = update_sigma2(*row_moments(p, target.points), rbar, post_var, "per_point",
                            np.ones(4))
        expected = literal_variance_update(p, target.points, rbar.points, post_var)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_scalar_mode_pools_all_mass(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.01, 1.0, size=(3, 5))
        target = pointset(rng.uniform(-1, 1, size=(5, 2)))
        rbar = pointset(rng.uniform(-1, 1, size=(3, 2)))
        post_var = rng.uniform(0.0, 0.1, size=3)
        nu = p.sum(axis=1)
        got = update_sigma2(*row_moments(p, target.points), rbar, post_var, "scalar", np.ones(3))
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
            *row_moments(p, target.points), rbar, np.zeros(2), "per_point", prev_sigma2=prev
        )
        assert out[0] == prev[0]

    def test_no_mass_at_all_raises(self):
        p = np.zeros((2, 2))
        s = pointset([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(NoMassError):
            update_sigma2(*row_moments(p, s.points), s, np.zeros(2), "per_point", np.ones(2))
        with pytest.raises(NoMassError):
            update_sigma2(*row_moments(p, s.points), s, np.zeros(2), "scalar", np.ones(2))

    def test_variance_modes_agree_on_symmetric_instance(self):
        # cross geometry: both rows have identical mass and residual profile
        target = pointset([[0.0, 1.0], [0.0, -1.0]])
        rbar = pointset([[1.0, 0.0], [-1.0, 0.0]])
        p = np.full((2, 2), 0.5)
        post_var = np.full(2, 0.05)
        prev = np.ones(2)
        moments = row_moments(p, target.points)
        per_point = update_sigma2(*moments, rbar, post_var, "per_point", prev)
        scalar = update_sigma2(*moments, rbar, post_var, "scalar", prev)
        np.testing.assert_allclose(per_point, scalar, atol=1e-10)


class TestCoupledUpdateEquivalence:
    """One multi-annotator iteration without thresholding reproduces the
    direct coupled-update posterior (dense oracle) exactly."""

    def _one_iteration(self, ref, target, sigma2, post_var, omega):
        prior = gp_prior(SquaredExponential(1.0, 0.7), ref, 0.0)
        inputs = ResponsibilityInputs(
            target=target,
            deformed_ref=ref,
            sigma2=sigma2,
            post_var=post_var,
            omega=omega,
        )
        state, ann = get_correspondences(inputs, p_min=0.0)
        assert state.missing.size == 0, "equivalence needs full correspondence"
        post = gpr_posterior(prior, state.inliers, ann.delta_hat, ann.sigma2_eff)
        return prior, state.P, post

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
            prior, p, post = self._one_iteration(ref, target, sigma2, post_var, omega)
            mu_o, var_o = direct_deformation_update(
                dense_gram(prior), 2, p, target.points, ref.points, sigma2
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
        assert a.iters == b.iters and a.stop_reason == b.stop_reason

    def test_full_at_zero_p_min_is_no_threshold_variant(self):
        # GPReg_noTresh is SFGP_Full with the correspondence threshold at zero
        fish = fish_reference()
        inst = generate(
            fish,
            PerturbationSpec(warp_amplitude=0.03, missing_width=0.3, outlier_ratio=0.5,
                             noise_std=0.02, seed=5),
        )
        full = register(fish, inst.target, self.kernel, variant_config(
            "SFGP_Full", RegistrationConfig(omega=0.1, p_min=0.0, max_iters=40)))
        no_thresh = register(fish, inst.target, self.kernel, variant_config(
            "GPReg_noTresh", RegistrationConfig(omega=0.1, p_min=0.05, max_iters=40)))
        assert np.array_equal(full.deformed_reference.points, no_thresh.deformed_reference.points)
        assert np.array_equal(full.sigma2, no_thresh.sigma2)
        assert full.iters == no_thresh.iters
        assert np.array_equal(full.state.missing, no_thresh.state.missing)

    def test_subnormal_kept_mass_is_missing_not_a_crash(self):
        # at p_min = 0 the first E-step leaves reference point 1 only
        # subnormal pairs; its fused noise overflows, so it is missing and
        # the prior predicts it, instead of an inf label reaching the posterior
        ref = pointset([[0.0, 0.0], [1.2166, 0.0], [0.0, 0.05]])
        target = pointset([[0.0, 0.0], [0.0, 0.05]])
        cfg = variant_config("GPReg_noTresh", RegistrationConfig(sigma2_init=1e-3, max_iters=3))
        res = register(ref, target, self.kernel, cfg)
        assert not res.failed
        assert res.trace[0].n_missing == 1
        assert np.all(np.isfinite(res.deformed_reference.points))

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
        assert res.stop_reason == "first_iteration" and res.state is None
        assert res.failed and not res.converged
        assert res.iters == 1

    def test_exact_fit_converges_at_the_second_iteration(self):
        # closest points on the reference itself give all-zero labels and a
        # zero posterior mean: a fixed point, which the stop rule ends
        fish = fish_reference()
        cfg = variant_config("GPClosestPnt", RegistrationConfig(rel_tol=0.0))
        res = register(fish, fish, self.kernel, cfg)
        assert res.stop_reason == "converged" and res.iters == 2
        assert res.converged and not res.failed
        assert np.array_equal(res.deformed_reference.points, fish.points)
        assert [rec.max_move for rec in res.trace] == [0.0, 0.0]

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

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_converged_run_is_a_fixed_point(self, variant):
        # with labels relative to the deformed reference, the loop cycled
        # with period 2 on this instance, and no variant stopped
        fish = fish_reference()
        inst = generate(
            fish,
            PerturbationSpec(warp_amplitude=DEFORMATION_AMPLITUDE_PER_LEVEL, missing_width=0.1,
                             noise_std=0.02, seed=2),
        )
        cfg = variant_config(variant, RegistrationConfig(omega=0.1, p_min=0.05))
        res = register(fish, inst.target, self.kernel, cfg)
        assert res.stop_reason == "converged" and res.iters < cfg.max_iters
        tol = cfg.rel_tol * np.sqrt(np.mean(res.sigma2))
        assert res.trace[-1].max_move <= tol < res.trace[-2].max_move

        more = register(fish, inst.target, self.kernel,
                        replace(cfg, rel_tol=0.0, max_iters=res.iters + 1))
        assert more.iters == res.iters + 1 and more.stop_reason == "max_iters"
        step = np.linalg.norm(more.deformed_reference.points - res.deformed_reference.points,
                              axis=1)
        assert np.max(step) <= tol

    def test_zero_rel_tol_runs_to_max_iters(self):
        fish = fish_reference()
        inst = generate(fish, PerturbationSpec(warp_amplitude=0.03, noise_std=0.02, seed=1))
        cfg = RegistrationConfig(p_min=0.05, rel_tol=0.0, max_iters=25)
        res = register(fish, inst.target, self.kernel, cfg)
        assert res.iters == 25 and res.stop_reason == "max_iters"
        assert not res.converged and not res.failed
        assert all(rec.max_move > 0.0 for rec in res.trace)

    def test_zero_rel_tol_stops_when_nothing_moves(self, monkeypatch):
        # a posterior that never changes moves the reference once, in iteration 1
        fish = fish_reference()
        fixed = PosteriorDeformation(mu=np.full((fish.n, 2), 0.01), var_diag=np.zeros(fish.n))
        monkeypatch.setattr(registration, "gpr_posterior", lambda *args, **kwargs: fixed)
        res = register(fish, fish, self.kernel, RegistrationConfig(rel_tol=0.0))
        assert res.stop_reason == "converged" and res.iters == 2
        assert [rec.max_move for rec in res.trace] == [pytest.approx(0.01 * np.sqrt(2)), 0.0]

    def test_mid_run_collapse_keeps_the_last_completed_iteration(self, monkeypatch):
        # each E-step overwrites the previous P, so a collapse in iteration 2
        # leaves no correspondence state, only iteration 1's fit
        fish = fish_reference()
        inst = generate(fish, PerturbationSpec(warp_amplitude=0.03, noise_std=0.02, seed=1))
        calls, posteriors = [], []

        def e_step(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise AllMissingError("collapsed")
            return get_correspondences(*args, **kwargs)

        def posterior(*args, **kwargs):
            posteriors.append(gpr_posterior(*args, **kwargs))
            return posteriors[-1]

        monkeypatch.setattr(registration, "get_correspondences", e_step)
        monkeypatch.setattr(registration, "gpr_posterior", posterior)
        res = register(fish, inst.target, self.kernel, RegistrationConfig(p_min=0.05))
        assert res.stop_reason == "mid_run_collapse" and res.failed
        assert res.state is None
        assert res.iters == 2
        assert len(posteriors) == 1 and res.posterior is posteriors[0]
        assert np.array_equal(res.deformed_reference.points, fish.points + posteriors[0].mu)
        assert len(res.trace) == 1 and res.trace[0].iteration == 1

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
    assert cfg.p_min == 0.0
    with pytest.raises(ValueError, match="SFGP_Full"):
        variant_config("NoSuchThing")
