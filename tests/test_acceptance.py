"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The fish benchmark blocks
use the calibrated experiment settings frozen below; benchmark instances are
derived from MASTER_SEED so every run sees identical data.
"""
import hashlib
import io as _io
import time
from dataclasses import replace

import numpy as np
import pytest

from sfgp.cli import SWEEP_FIELDS, derive_seed
from sfgp.core import RegistrationConfig
from sfgp.correspondence import ResponsibilityInputs, get_correspondences, responsibilities
from sfgp.gpr import gpr_posterior
from sfgp.kernels import (
    ScaledKernel,
    SquaredExponential,
    SumKernel,
    build_pca_kernel,
    gp_prior,
)
from sfgp.metrics import mean_sq_distance, missing_detection, score_run
from sfgp.registration import SIGMA2_FLOOR, register, variant_config
from sfgp.synthdata import PerturbationSpec, fish_reference, generate, warp_rbf
from sfgp import io as sio

from helpers import (
    dense_gpr,
    dense_gram,
    direct_deformation_update,
    fibonacci_sphere,
    pointset,
    random_points,
)

MASTER_SEED = 20260809

# calibrated fish-benchmark settings (tuned on deformation level 1)
BENCH_KERNEL = SquaredExponential(amplitude2=0.01, lengthscale=0.2)
BENCH_P_MIN = 0.05
WARP_AMPLITUDE_L1 = 0.03   # deformation level 1
NOISE_STD_L2 = 0.02        # noise level 2
MISSING_WIDTHS = (0.1, 0.2, 0.3, 0.4)
N_SEEDS = 30


def report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _bench_spec(width, ratio, seed):
    return PerturbationSpec(
        warp_amplitude=WARP_AMPLITUDE_L1,
        warp_bandwidth=0.3,
        warp_controls=5,
        missing_width=width,
        outlier_ratio=ratio,
        noise_std=NOISE_STD_L2,
        seed=seed,
    )


def scores_of(res, inst):
    """The score columns of one run, as `sweep` and `eval` score it."""
    return score_run(res.stop_reason, lambda: (
        inst.ground_truth.points, inst.missing_mask,
        res.deformed_reference.points, ~res.state.labelled))


def run_missing_trend(master_seed):
    """All (width, seed, variant) registrations of the missing-region grid."""
    fish = fish_reference()
    rows = []
    artifacts = []
    for level_idx, width in enumerate(MISSING_WIDTHS):
        for k in range(N_SEEDS):
            seed = derive_seed(master_seed, level_idx, k)
            inst = generate(fish, _bench_spec(width, 0.0, seed))
            for variant in ("SFGP_Full", "GPClosestPnt"):
                cfg = variant_config(
                    variant, RegistrationConfig(omega=0.0, p_min=BENCH_P_MIN)
                )
                res = register(fish, inst.target, BENCH_KERNEL, cfg)
                rows.append({"variant": variant, "level": f"w{width:g}", "seed": seed,
                             "iters": res.iters, "stop_reason": res.stop_reason,
                             "runtime_ms": 0.0, **scores_of(res, inst)})
                artifacts.append((width, seed, variant, res, inst))
    return rows, artifacts


def rows_digest(rows):
    """CSV digest over the deterministic columns (runtime is wall clock)."""
    fields = [f for f in SWEEP_FIELDS if f != "runtime_ms"]
    buf = _io.StringIO()
    buf.write(",".join(fields) + "\n")
    for row in rows:
        cells = []
        for name in fields:
            v = row[name]
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(sio.FLOAT_FMT % v)
            else:
                cells.append(str(v))
        buf.write(",".join(cells) + "\n")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def missing_bench():
    t0 = time.perf_counter()
    rows, artifacts = run_missing_trend(MASTER_SEED)
    return {"rows": rows, "artifacts": artifacts, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def outlier_bench():
    fish = fish_reference()
    out = {}
    artifacts = []
    for omega in (0.1, 0.3):
        for level_idx, ratio in enumerate((0.5, 1.0, 2.0)):
            errs, fails = [], 0
            for k in range(N_SEEDS):
                seed = derive_seed(MASTER_SEED + 1, level_idx, k)
                inst = generate(fish, _bench_spec(0.0, ratio, seed))
                cfg = variant_config(
                    "SFGP_Full", RegistrationConfig(omega=omega, p_min=BENCH_P_MIN)
                )
                res = register(fish, inst.target, BENCH_KERNEL, cfg)
                fails += res.failed
                if not res.failed:
                    errs.append(mean_sq_distance(res, inst, "all"))
                artifacts.append((ratio, seed, f"omega{omega:g}", res, inst))
            out[(omega, ratio)] = {"mean_err": float(np.mean(errs)), "fails": fails}
    return {"table": out, "artifacts": artifacts}


def test_criterion_1_gpr_matches_dense_conditioning():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        ref = pointset(random_points(rng, n, 2, min_sep=0.12))
        gram = replace(gp_prior(SquaredExponential(1.0, 0.6), ref), jitter=0.0)
        c = int(rng.integers(1, n + 1))
        inliers = np.sort(rng.choice(n, size=c, replace=False))
        delta = rng.normal(size=(c, 2))
        noise = rng.uniform(0.02, 1.0, size=c)
        post = gpr_posterior(gram, inliers, delta, noise)
        mu_o, var_o = dense_gpr(gram, inliers, delta, noise, 0.0)
        scale_mu = max(np.max(np.abs(mu_o)), 1e-30)
        scale_var = max(np.max(np.abs(var_o)), 1e-30)
        worst = max(
            worst,
            float(np.max(np.abs(post.mu - mu_o)) / scale_mu),
            float(np.max(np.abs(post.var_diag - var_o)) / scale_var),
        )
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"50 instances, max rel deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_single_iteration_matches_direct_update():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 11))
        ref = pointset(random_points(rng, n, 2, min_sep=0.15))
        target = pointset(random_points(rng, n, 2, min_sep=0.15))
        sigma2 = rng.uniform(0.1, 1.0, size=n)
        post_var = rng.uniform(0.0, 0.3, size=n)
        omega = float(rng.uniform(0.0, 0.5))
        gram = replace(gp_prior(SquaredExponential(1.0, 0.7), ref), jitter=0.0)
        state, bary, noise = get_correspondences(
            ResponsibilityInputs(
                target=target, deformed_ref=ref, sigma2=sigma2,
                post_var=post_var, omega=omega,
            ),
            p_min=0.0,
        )
        assert state.missing.size == 0
        post = gpr_posterior(gram, state.inliers, bary - ref.points[state.inliers], noise)
        mu_o, var_o = direct_deformation_update(
            dense_gram(gram), 2, state.P, target.points, ref.points, sigma2
        )
        worst = max(
            worst,
            float(np.max(np.abs(post.mu - mu_o)) / max(np.max(np.abs(mu_o)), 1e-30)),
            float(np.max(np.abs(post.var_diag - var_o)) / max(np.max(np.abs(var_o)), 1e-30)),
        )
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst < 1e-8 and elapsed < 5.0,
        f"20 instances without thresholding, max rel deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_reductions():
    rng = np.random.default_rng(303)
    # (a) singleton annotations with one shared variance == homoscedastic GPR
    exact = True
    for _ in range(10):
        n = int(rng.integers(2, 9))
        ref = pointset(random_points(rng, n, 2, min_sep=0.15))
        gram = replace(gp_prior(SquaredExponential(1.0, 0.5), ref), jitter=0.0)
        sigma_n2 = float(rng.uniform(0.05, 1.0))
        delta = rng.normal(size=(n, 2))
        het = gpr_posterior(gram, np.arange(n), delta, np.full(n, sigma_n2))
        mu_o, var_o = dense_gpr(gram, np.arange(n), delta, np.full(n, sigma_n2), 0.0)
        exact &= bool(
            np.max(np.abs(het.mu - mu_o)) <= 1e-10 * max(np.max(np.abs(mu_o)), 1e-30)
        )
    # (b) responsibility columns are a probability distribution when omega = 0
    worst_col = 0.0
    for _ in range(100):
        n_r, n_s = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        p = responsibilities(
            ResponsibilityInputs(
                target=pointset(rng.uniform(-1, 1, size=(n_s, 2))),
                deformed_ref=pointset(rng.uniform(-1, 1, size=(n_r, 2))),
                sigma2=rng.uniform(0.05, 1.0, size=n_r),
                post_var=rng.uniform(0.0, 0.3, size=n_r),
                omega=0.0,
            )
        )
        worst_col = max(worst_col, float(np.max(np.abs(p.sum(axis=0) - 1.0))))
    report(
        3,
        exact and worst_col <= 1e-12,
        f"homoscedastic reduction exact; column-sum deviation {worst_col:.2e} over 100 instances",
    )


def test_criterion_4_closed_form_correspondence_identities():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        n_r, n_s = int(rng.integers(2, 9)), int(rng.integers(2, 11))
        target = pointset(rng.uniform(-1, 1, size=(n_s, 2)))
        rbar = pointset(rng.uniform(-1, 1, size=(n_r, 2)))
        sigma2 = rng.uniform(0.05, 0.8, size=n_r)
        inputs = ResponsibilityInputs(
            target=target, deformed_ref=rbar, sigma2=sigma2,
            post_var=np.zeros(n_r), omega=float(rng.uniform(0.0, 0.4)),
        )
        state, barycentres, noise = get_correspondences(inputs, BENCH_P_MIN)
        for k, i in enumerate(state.inliers):
            js = np.flatnonzero(state.P[i] > BENCH_P_MIN)
            w = state.P[i, js]
            sig_closed = sigma2[i] / w.sum()
            bary = (w[:, None] * target.points[js]).sum(axis=0) / w.sum()
            delta_closed = bary - rbar.points[i]
            worst = max(
                worst,
                abs(noise[k] - sig_closed) / sig_closed,
                float(
                    np.max(np.abs(barycentres[k] - rbar.points[i] - delta_closed))
                    / max(np.max(np.abs(delta_closed)), 1e-30)
                ),
            )
    report(4, worst < 1e-12, f"barycenter identities, max rel deviation {worst:.2e}")


def test_criterion_5_missing_region_trend(missing_bench):
    rows = missing_bench["rows"]
    per = {}
    for row in rows:
        per.setdefault((row["level"], row["seed"]), {})[row["variant"]] = row["error_all"]
    pair_wins = []
    width_means = {w: {"SFGP_Full": [], "GPClosestPnt": []} for w in MISSING_WIDTHS}
    for (level, seed), errs in per.items():
        width = float(level[1:])
        for v in ("SFGP_Full", "GPClosestPnt"):
            width_means[width][v].append(errs[v])
        if width >= 0.2:
            pair_wins.append(errs["SFGP_Full"] < errs["GPClosestPnt"])
    win_rate = float(np.mean(pair_wins))
    means_ok = all(
        np.mean(width_means[w]["SFGP_Full"]) < np.mean(width_means[w]["GPClosestPnt"])
        for w in MISSING_WIDTHS
        if w >= 0.2
    )
    elapsed = missing_bench["elapsed"]
    report(
        5,
        win_rate >= 0.80 and means_ok and elapsed < 600.0,
        f"pairwise win rate {win_rate:.3f} (need >= 0.80), per-width means "
        f"{'ordered' if means_ok else 'NOT ordered'}, {elapsed:.0f}s",
    )


def test_criterion_6_recall_precision_trend(missing_bench):
    recalls = {}
    precisions = []
    for width, seed, variant, res, inst in missing_bench["artifacts"]:
        if width != 0.4:
            continue
        rec, prec = missing_detection(res, inst)
        recalls.setdefault(seed, {})[variant] = 0.0 if rec is None else rec
        if variant == "SFGP_Full" and prec is not None:
            precisions.append(prec)
    beats = [r["SFGP_Full"] > r["GPClosestPnt"] for r in recalls.values()]
    beat_rate = float(np.mean(beats))
    mean_prec = float(np.mean(precisions)) if precisions else 0.0
    report(
        6,
        beat_rate >= 0.90 and mean_prec >= 0.5,
        f"recall beaten in {beat_rate:.2%} of seeds (need >= 90%), "
        f"mean precision {mean_prec:.3f} (need >= 0.5)",
    )


def test_criterion_7_outlier_robustness(outlier_bench):
    table = outlier_bench["table"]
    fails = sum(v["fails"] for v in table.values())
    omega_gaps = [
        abs(table[(0.1, r)]["mean_err"] - table[(0.3, r)]["mean_err"])
        for r in (0.5, 1.0, 2.0)
    ]
    ratio_increases = [
        table[(w, 2.0)]["mean_err"] - table[(w, 0.5)]["mean_err"] for w in (0.1, 0.3)
    ]
    ok = fails == 0 and max(omega_gaps) < min(ratio_increases)
    report(
        7,
        ok,
        f"success 1.0 ({fails} failures), max omega gap {max(omega_gaps):.2e} "
        f"< min ratio increase {min(ratio_increases):.2e}",
    )


def test_criterion_8_numerical_hygiene(missing_bench, outlier_bench):
    checked = 0
    ok = True
    for _, _, _, res, _ in missing_bench["artifacts"] + outlier_bench["artifacts"]:
        ok &= bool(np.all(np.isfinite(res.deformed_reference.points)))
        ok &= bool(np.all(np.isfinite(res.sigma2)))
        ok &= bool(np.all(res.sigma2 >= SIGMA2_FLOOR))
        ok &= bool(np.all(np.isfinite(res.state.P)))
        ok &= all(rec.mean_sigma2 >= SIGMA2_FLOOR for rec in res.trace)
        checked += 1
    report(8, ok, f"no NaN/Inf and variance floor held across {checked} runs")


def test_criterion_9_determinism(missing_bench):
    digest_a = rows_digest(missing_bench["rows"])
    rows_b, _ = run_missing_trend(MASTER_SEED)
    digest_b = rows_digest(rows_b)
    report(
        9,
        digest_a == digest_b,
        f"metrics CSV digest {digest_a[:12]}... reproduced exactly",
    )


def test_criterion_10_structured_solve_speed_and_accuracy():
    rng = np.random.default_rng(1010)

    # accuracy at N = 100 against the dense expanded solve
    ref_small = pointset(rng.uniform(-1, 1, size=(100, 3)))
    gram_small = replace(gp_prior(SquaredExponential(1.0, 0.4), ref_small), jitter=1e-8)
    inliers = np.sort(rng.choice(100, size=80, replace=False))
    delta = rng.normal(size=(80, 3))
    noise = rng.uniform(0.05, 0.5, size=80)
    post = gpr_posterior(gram_small, inliers, delta, noise)
    mu_o, var_o = dense_gpr(gram_small, inliers, delta, noise, 1e-8)
    acc = max(
        float(np.max(np.abs(post.mu - mu_o)) / np.max(np.abs(mu_o))),
        float(np.max(np.abs(post.var_diag - var_o)) / np.max(np.abs(var_o))),
    )

    # speed at N = 500
    ref_big = pointset(rng.uniform(-1, 1, size=(500, 3)))
    gram_big = replace(gp_prior(SquaredExponential(1.0, 0.4), ref_big), jitter=1e-8)
    inliers_b = np.sort(rng.choice(500, size=400, replace=False))
    delta_b = rng.normal(size=(400, 3))
    noise_b = rng.uniform(0.05, 0.5, size=400)

    def time_of(fn):
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_fast = time_of(lambda: gpr_posterior(gram_big, inliers_b, delta_b, noise_b))
    t_dense = time_of(lambda: dense_gpr(gram_big, inliers_b, delta_b, noise_b, 1e-8))
    speedup = t_dense / t_fast
    report(
        10,
        acc < 1e-8 and speedup >= 5.0,
        f"accuracy {acc:.2e} at N=100, speedup {speedup:.1f}x at N=500 "
        f"({t_dense * 1e3:.0f}ms dense vs {t_fast * 1e3:.0f}ms structured)",
    )


# criterion 11: the paper's 3-D claim on a sphere with a missing cap.  No
# rotation: rotating a sphere slides its points along the surface, which no
# registration can see.  Measured when the criterion was set (10 seeds):
# SFGP_Full's err_all at most 0.40x and its err_missing at most 0.29x
# GPClosestPnt's in every seed; mean recall 0.90 against 0.00, the smallest
# per-seed recall margin 0.62; all 10 SFGP_Full runs converged, in 76.3
# iterations on average.
SPHERE_POINTS = 400
SPHERE_MASTER_SEED = 7
SPHERE_SEEDS = 10
SPHERE_NOISE_STD = 0.01
SPHERE_MISSING_WIDTH = 0.4


def test_criterion_11_sphere_missing_region():
    ref = pointset(fibonacci_sphere(SPHERE_POINTS))
    t0 = time.perf_counter()
    runs = []
    for k in range(SPHERE_SEEDS):
        spec = replace(_bench_spec(SPHERE_MISSING_WIDTH, 0.0, derive_seed(SPHERE_MASTER_SEED, 0, k)),
                       noise_std=SPHERE_NOISE_STD)
        inst = generate(ref, spec)
        run = {}
        for variant in ("SFGP_Full", "GPClosestPnt"):
            cfg = variant_config(variant, RegistrationConfig(omega=0.0, p_min=BENCH_P_MIN))
            res = register(ref, inst.target, BENCH_KERNEL, cfg)
            run[variant] = {"stop_reason": res.stop_reason, "iters": res.iters,
                            **scores_of(res, inst)}
        runs.append(run)
    elapsed = time.perf_counter() - t0

    full = [r["SFGP_Full"] for r in runs]
    closest = [r["GPClosestPnt"] for r in runs]
    failed = [r["stop_reason"] for r in full + closest if not r["success"]]
    if failed:
        report(11, False, f"{len(failed)} sphere runs failed: {failed}")
    converged = sum(r["stop_reason"] == "converged" for r in full)
    wins = {name: sum(f[name] < c[name] for f, c in zip(full, closest))
            for name in ("error_all", "error_missing")}
    margins = [f["recall"] - c["recall"] for f, c in zip(full, closest)]
    mean_recall = float(np.mean([f["recall"] for f in full]))
    report(
        11,
        converged == SPHERE_SEEDS
        and wins["error_all"] == SPHERE_SEEDS and wins["error_missing"] == SPHERE_SEEDS
        and mean_recall >= 0.8 and min(margins) >= 0.5,
        f"sphere N={SPHERE_POINTS}: SFGP_Full beats GPClosestPnt on err_all in "
        f"{wins['error_all']}/{SPHERE_SEEDS} and on err_missing in "
        f"{wins['error_missing']}/{SPHERE_SEEDS} seeds (need all), mean recall "
        f"{mean_recall:.2f} (need >= 0.8), smallest recall margin {min(margins):.2f} "
        f"(need >= 0.5), {converged}/{SPHERE_SEEDS} converged (need all), "
        f"{np.mean([f['iters'] for f in full]):.1f} iterations, {elapsed:.1f}s",
    )


# criterion 12: the paper's comparison with fitting a pre-existing shape
# model (GPMM-style, Lüthi et al. 2018) on fish.  The shape model is a rank-20
# PCA of 60 warps of fish98, summed with a small SE term; its training seeds
# do not overlap the test instances'.  Measured when the criterion was set
# (8 seeds, width 0.5): SFGP_Full with the shape model beat GPClosestPnt with
# it on err_missing in 8/8 seeds (worst ratio 0.167) and SE-only SFGP_Full in
# 8/8 (worst ratio 0.756); mean err_all 9.38e-4 against 1.81e-2 and 1.70e-3;
# all 24 runs converged.  At width 0.3 it beat SE-only in only 6 of 8.
SHAPE_TRAINING_SEEDS = range(10000, 10060)
SHAPE_RANK = 20
SHAPE_SE_FACTOR = 0.01
SHAPE_SEEDS = 8
SHAPE_MISSING_WIDTH = 0.5


def test_criterion_12_fish_shape_model():
    fish = fish_reference()
    t0 = time.perf_counter()
    training = [(warp_rbf(fish, WARP_AMPLITUDE_L1, 0.3, 5, s).points - fish.points).ravel()
                for s in SHAPE_TRAINING_SEEDS]
    shape_model = SumKernel(build_pca_kernel(training, SHAPE_RANK, fish),
                            ScaledKernel(SHAPE_SE_FACTOR, BENCH_KERNEL))
    runs = {"shape": [], "closest_shape": [], "se": []}
    for k in range(SHAPE_SEEDS):
        inst = generate(fish, PerturbationSpec(
            warp_amplitude=WARP_AMPLITUDE_L1, noise_std=NOISE_STD_L2,
            missing_width=SHAPE_MISSING_WIDTH, seed=derive_seed(5, 0, k)))
        for name, variant, kernel in (("shape", "SFGP_Full", shape_model),
                                      ("closest_shape", "GPClosestPnt", shape_model),
                                      ("se", "SFGP_Full", BENCH_KERNEL)):
            cfg = variant_config(variant, RegistrationConfig(omega=0.0, p_min=BENCH_P_MIN))
            res = register(fish, inst.target, kernel, cfg)
            runs[name].append({"stop_reason": res.stop_reason, **scores_of(res, inst)})
    elapsed = time.perf_counter() - t0

    unconverged = [r["stop_reason"] for rows in runs.values() for r in rows
                   if r["stop_reason"] != "converged"]
    if unconverged:
        report(12, False, f"{len(unconverged)} runs did not converge: {unconverged}")
    # the largest per-seed err_missing ratio of SFGP_Full with the shape
    # model to each other fit, and its bound: below 1 is a win in every seed
    bounds = {"closest_shape": 0.5, "se": 0.9}
    worst = {other: max(s["error_missing"] / o["error_missing"]
                        for s, o in zip(runs["shape"], runs[other])) for other in bounds}
    mean_all = {name: float(np.mean([r["error_all"] for r in rows])) for name, rows in runs.items()}
    report(
        12,
        all(worst[other] < bound for other, bound in bounds.items())
        and mean_all["shape"] < min(mean_all["closest_shape"], mean_all["se"]),
        f"fish with a shape model over {SHAPE_SEEDS} seeds: SFGP_Full's worst err_missing "
        f"ratio is {worst['closest_shape']:.3f} to GPClosestPnt's (need < 0.5) and "
        f"{worst['se']:.3f} to SE-only SFGP_Full's (need < 0.9); mean err_all "
        f"{mean_all['shape']:.2e} against {mean_all['closest_shape']:.2e} and "
        f"{mean_all['se']:.2e} (need lowest), {elapsed:.1f}s",
    )
