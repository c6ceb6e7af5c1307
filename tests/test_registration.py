from dataclasses import replace

import numpy as np
import pytest

from sfgp import registration
from sfgp.core import (
    AllMissingError,
    NumericalError,
    PosteriorDeformation,
    RegistrationConfig,
    nearest,
)
from sfgp.correspondence import (
    ResponsibilityInputs,
    closest_point_correspondence,
    get_correspondences,
)
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


def with_twins(ref, k):
    """`ref` with copies of its first k points appended."""
    return pointset(np.vstack([ref.points, ref.points[:k]]))


def start_sigma2_at(monkeypatch, sigma2):
    """Make `register` start every sigma2_i at `sigma2`, not at h^2."""
    monkeypatch.setattr(registration, "default_sigma2_init", lambda reference: sigma2)


def build_priors_at_zero_jitter(monkeypatch):
    """Make `register` build its prior at jitter 0, not at 1e-8 k0."""
    monkeypatch.setattr(registration, "gp_prior",
                        lambda spec, ref: replace(gp_prior(spec, ref), jitter=0.0))


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
        with pytest.raises(AllMissingError):
            update_sigma2(*row_moments(p, s.points), s, np.zeros(2), "per_point", np.ones(2))
        with pytest.raises(AllMissingError):
            update_sigma2(*row_moments(p, s.points), s, np.zeros(2), "scalar", np.ones(2))

    def test_scalar_is_nu_weighted_mean_of_per_point(self):
        # unequal masses and a row with none: that row keeps its previous
        # value under per_point and has no weight in the scalar mean
        rng = np.random.default_rng(4)
        p = rng.uniform(0.01, 1.0, size=(5, 7)) * rng.uniform(0.1, 3.0, size=(5, 1))
        p[2] = 0.0
        target = pointset(rng.uniform(-1, 1, size=(7, 3)))
        rbar = pointset(rng.uniform(-1, 1, size=(5, 3)))
        post_var = rng.uniform(0.0, 0.1, size=5)
        prev = rng.uniform(0.5, 1.0, size=5)
        moments = row_moments(p, target.points)
        nu, live = moments[0], moments[0] > 0.0
        per_point = update_sigma2(*moments, rbar, post_var, "per_point", prev)
        scalar = update_sigma2(*moments, rbar, post_var, "scalar", prev)
        assert per_point[2] == prev[2]
        assert np.ptp(nu[live]) > 1.0
        np.testing.assert_allclose(
            scalar, np.average(per_point[live], weights=nu[live]), rtol=1e-14
        )
        assert np.all(scalar == scalar[0])

    def test_scalar_is_the_plain_mean_of_per_point_for_a_one_hot_p(self):
        # a one-hot P gives every row nu = 1, so the nu-weighted mean is the
        # plain mean of the per-point values bit for bit
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_r, n_s, d = rng.integers(1, 40), rng.integers(1, 40), rng.integers(2, 4)
            p = np.zeros((n_r, n_s))
            p[np.arange(n_r), rng.integers(0, n_s, size=n_r)] = 1.0
            target = pointset(rng.uniform(-1, 1, size=(n_s, d)))
            rbar = pointset(rng.uniform(-1, 1, size=(n_r, d)))
            post_var = rng.uniform(0.0, 0.1, size=n_r)
            prev = rng.uniform(0.5, 1.0, size=n_r)
            moments = row_moments(p, target.points)
            per_point = update_sigma2(*moments, rbar, post_var, "per_point", prev)
            scalar = update_sigma2(*moments, rbar, post_var, "scalar", prev)
            assert np.all(scalar == np.mean(per_point))

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
        prior = replace(gp_prior(SquaredExponential(1.0, 0.7), ref), jitter=0.0)
        inputs = ResponsibilityInputs(
            target=target,
            deformed_ref=ref,
            sigma2=sigma2,
            post_var=post_var,
            omega=omega,
        )
        state, bary, noise = get_correspondences(inputs, p_min=0.0)
        assert state.missing.size == 0, "equivalence needs full correspondence"
        post = gpr_posterior(prior, state.inliers, bary - ref.points[state.inliers], noise)
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

    def test_subnormal_kept_mass_is_missing_not_a_crash(self, monkeypatch):
        # at p_min = 0 and sigma2 = 1e-3 the first E-step leaves reference
        # point 1 only subnormal pairs; its fused noise overflows, so it is
        # missing and the prior predicts it, instead of an inf label reaching
        # the posterior
        start_sigma2_at(monkeypatch, 1e-3)
        ref = pointset([[0.0, 0.0], [1.2166, 0.0], [0.0, 0.05]])
        target = pointset([[0.0, 0.0], [0.0, 0.05]])
        cfg = variant_config("GPReg_noTresh", RegistrationConfig(max_iters=3))
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
        res = register(ref, target, SquaredExponential(1.0, 1.0), RegistrationConfig())
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

    @pytest.mark.parametrize("max_iters", range(1, 8))
    def test_every_em_step_is_one_counted_iteration(self, max_iters):
        # extrapolation cycles of three steps do not round the count: a run
        # capped at any max_iters takes exactly that many steps
        fish = fish_reference()
        inst = generate(fish, PerturbationSpec(warp_amplitude=0.03, noise_std=0.02, seed=1))
        cfg = RegistrationConfig(p_min=0.05, rel_tol=0.0, max_iters=max_iters)
        res = register(fish, inst.target, self.kernel, cfg)
        assert res.iters == max_iters == len(res.trace)
        assert [rec.iteration for rec in res.trace] == list(range(1, max_iters + 1))

    def test_extrapolated_steps_keep_sigma2_above_the_floor(self, monkeypatch):
        fish = fish_reference()
        inst = generate(fish, PerturbationSpec(warp_amplitude=0.03, missing_width=0.3,
                                               noise_std=0.02, seed=5))
        sigma2s = []

        def e_step(inputs, *args, **kwargs):
            sigma2s.append(inputs.sigma2.copy())
            return get_correspondences(inputs, *args, **kwargs)

        monkeypatch.setattr(registration, "get_correspondences", e_step)
        res = register(fish, inst.target, self.kernel, RegistrationConfig(p_min=0.05))
        assert res.iters >= 20 and not res.failed
        assert any(rec.extrapolated for rec in res.trace)
        assert not res.trace[0].extrapolated and not res.trace[1].extrapolated
        assert all(np.all(sigma2 >= SIGMA2_FLOOR) for sigma2 in sigma2s)

    def test_collapse_at_an_extrapolation_goes_on_from_the_last_plain_step(self, monkeypatch):
        # the E-step collapses at the first extrapolated point: no failure
        # and no iteration, and the next cycle starts from the plain step
        # before it
        fish = fish_reference()
        inst = generate(fish, PerturbationSpec(warp_amplitude=0.03, noise_std=0.02, seed=1))
        cfg = RegistrationConfig(p_min=0.05)
        plain = register(fish, inst.target, self.kernel, cfg)
        first = next(rec.iteration for rec in plain.trace if rec.extrapolated)
        calls = []

        def e_step(*args, **kwargs):
            calls.append(1)
            if len(calls) == first:
                raise AllMissingError("collapsed")
            return get_correspondences(*args, **kwargs)

        monkeypatch.setattr(registration, "get_correspondences", e_step)
        res = register(fish, inst.target, self.kernel, cfg)
        assert res.stop_reason in ("converged", "max_iters") and not res.failed
        assert res.state is not None
        assert len(calls) == res.iters + 2  # the collapse and the rerun after the loop
        assert [rec.iteration for rec in res.trace] == list(range(1, res.iters + 1))
        moves = [rec.max_move for rec in res.trace]
        assert moves[:first - 1] == [rec.max_move for rec in plain.trace[:first - 1]]
        assert not res.trace[first - 1].extrapolated

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

    def test_duplicated_points_register_at_zero_jitter(self, monkeypatch):
        # the prior's Gram is singular, but the posterior factors only its
        # observed block plus a positive noise, so the run is no error; the
        # twins of a point see the same data and end where it ends
        build_priors_at_zero_jitter(monkeypatch)
        fish = fish_reference()
        dup = with_twins(fish, 10)
        for variant in ("SFGP_Full", "SFGP_bcpdReg"):
            res = register(dup, fish, self.kernel, variant_config(variant, RegistrationConfig()))
            assert res.stop_reason == "converged", variant
            pts = res.deformed_reference.points
            assert np.array_equal(pts[fish.n:], pts[:10]), variant

    def test_singular_observed_block_names_the_first_iteration(self, monkeypatch):
        # a huge amplitude over a vanishing noise and no jitter leaves the
        # observed block of the duplicated reference singular in floating
        # point: the posterior's factorization, the one positive-definiteness
        # check, reports it
        build_priors_at_zero_jitter(monkeypatch)
        start_sigma2_at(monkeypatch, 1e-12)
        fish = fish_reference()
        dup = with_twins(fish, 10)
        with pytest.raises(NumericalError, match="iteration 1"):
            register(dup, fish, SquaredExponential(1e8, 0.2), RegistrationConfig(p_min=0.05))

    def test_dim_mismatch_rejected(self):
        ref = pointset([[0.0, 0.0], [1.0, 1.0]])
        target = pointset([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ValueError):
            register(ref, target, self.kernel, RegistrationConfig())


def test_variant_table():
    assert set(VARIANTS) == {"SFGP_Full", "SFGP_bcpdReg", "GPReg_noTresh", "GPClosestPnt"}
    assert VARIANTS["SFGP_bcpdReg"].sigma2_update == "scalar"
    assert not VARIANTS["GPReg_noTresh"].reads_p_min
    assert variant_config("SFGP_bcpdReg").variant == "SFGP_bcpdReg"
    with pytest.raises(ValueError, match="SFGP_Full"):
        variant_config("NoSuchThing")


def test_variant_config_keeps_the_configured_p_min():
    # a variant that does not read p_min ignores it; it never rewrites it
    cfg = variant_config("GPReg_noTresh", RegistrationConfig(p_min=0.3))
    assert (cfg.variant, cfg.p_min) == ("GPReg_noTresh", 0.3)


@pytest.mark.parametrize("variant, settings", [
    ("GPReg_noTresh", [dict(p_min=0.05), dict(p_min=0.3)]),
    ("GPClosestPnt", [dict(omega=0.0, p_min=0.01), dict(omega=0.3, p_min=0.5)]),
], ids=["GPReg_noTresh", "GPClosestPnt"])
def test_a_variant_ignores_the_settings_it_does_not_read(variant, settings):
    fish = fish_reference()
    inst = generate(fish, PerturbationSpec(warp_amplitude=0.03, missing_width=0.3,
                                           outlier_ratio=0.5, noise_std=0.02, seed=5))
    kernel = SquaredExponential(0.01, 0.2)
    a, b = (register(fish, inst.target, kernel, RegistrationConfig(
        max_iters=40, variant=variant, **kw)) for kw in settings)
    assert np.array_equal(a.deformed_reference.points, b.deformed_reference.points)
    assert np.array_equal(a.sigma2, b.sigma2)
    assert (a.iters, a.stop_reason) == (b.iters, b.stop_reason)
    assert np.array_equal(a.state.labelled, b.state.labelled)


def test_closest_point_runs_on_one_shared_sigma2(monkeypatch):
    # each E-step's labels carry one sigma2 value, over a kept mass of 1 per
    # row: in a plain step the one the previous update returned, in a step
    # from an extrapolation the extrapolated one
    fish = fish_reference()
    inst = generate(fish, PerturbationSpec(warp_amplitude=0.03, noise_std=0.02, seed=1))
    updates, noises = [], []

    def update(*args, **kwargs):
        updates.append(update_sigma2(*args, **kwargs))
        return updates[-1]

    def e_step(*args, **kwargs):
        state, bary, noise = closest_point_correspondence(*args, **kwargs)
        noises.append(noise.copy())
        return state, bary, noise

    monkeypatch.setattr(registration, "update_sigma2", update)
    monkeypatch.setattr(registration, "closest_point_correspondence", e_step)
    cfg = variant_config("GPClosestPnt", RegistrationConfig(p_min=0.05))
    res = register(fish, inst.target, SquaredExponential(0.01, 0.2), cfg)
    assert res.converged and res.iters > 2
    assert np.all(res.sigma2 == res.sigma2[0])
    # one E-step per iteration, and the last one's rerun after the loop
    assert len(updates) == res.iters and len(noises) == res.iters + 1
    assert all(np.all(noise == noise[0]) for noise in noises)
    assert any(rec.extrapolated for rec in res.trace)
    for rec, noise, sigma2 in zip(res.trace[1:], noises[1:res.iters], updates):
        if not rec.extrapolated:
            assert np.array_equal(noise, sigma2)
    assert np.array_equal(noises[-1], noises[-2])
    noise = closest_point_correspondence(ResponsibilityInputs(
        inst.target, res.deformed_reference, res.sigma2, res.posterior.var_diag, cfg.omega))[2]
    assert np.array_equal(noise, res.sigma2)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_posterior_labels_are_barycentres_minus_the_reference(monkeypatch, variant):
    # the E-step returns fused target points; the posterior is fitted to them
    # minus the undeformed reference, formed once, in every iteration
    fish = fish_reference()
    inst = generate(fish, PerturbationSpec(warp_amplitude=0.03, missing_width=0.3,
                                           noise_std=0.02, seed=3))
    closest = VARIANTS[variant].closest_point
    name = "closest_point_correspondence" if closest else "get_correspondences"
    original, e_steps, posteriors = getattr(registration, name), [], []

    def e_step(inputs, *args, **kwargs):
        state, barycentres, noise = original(inputs, *args, **kwargs)
        e_steps.append((inputs.deformed_ref.points, barycentres.copy(), noise.copy()))
        return state, barycentres, noise

    def posterior(prior, inliers, labels, noise, **kwargs):
        posteriors.append((inliers.copy(), labels.copy(), noise.copy()))
        return gpr_posterior(prior, inliers, labels, noise, **kwargs)

    monkeypatch.setattr(registration, name, e_step)
    monkeypatch.setattr(registration, "gpr_posterior", posterior)
    cfg = variant_config(variant, RegistrationConfig(p_min=0.05, rel_tol=0.0, max_iters=10))
    target = inst.target.points
    res = register(fish, inst.target, SquaredExponential(0.01, 0.2), cfg)
    assert res.iters == 10 and len(posteriors) == 10 and len(e_steps) == 11
    for (r_bar, barycentres, noise), (inliers, labels, got_noise) in zip(e_steps, posteriors):
        assert np.array_equal(labels, barycentres - fish.points[inliers])
        assert np.array_equal(got_noise, noise)
        if closest:
            assert np.array_equal(barycentres, target[nearest(r_bar, target)])
