"""The dense steps of one iteration work in place.

Each step may allocate its output and little else: tracemalloc sees NumPy's
buffers, so the incremental peak of one call bounds the full-size
temporaries it makes.  In-place work must never reach the caller's arrays,
so every input is checked bit for bit after the call.
"""
import tracemalloc

import numpy as np
import pytest

from sfgp.core import sq_dists
from sfgp.correspondence import ResponsibilityInputs, responsibilities
from sfgp.gpr import gpr_posterior
from sfgp.kernels import SquaredExponential, SumKernel, assemble_gram, build_pca_kernel
from sfgp.registration import update_sigma2

from helpers import pointset

N_R, N_S, C, D = 400, 410, 300, 3
DOUBLE = np.dtype(float).itemsize


@pytest.fixture(scope="module")
def dense():
    rng = np.random.default_rng(7)
    ref = pointset(rng.uniform(-0.5, 0.5, size=(N_R, D)))
    rbar = pointset(ref.points + rng.normal(scale=0.02, size=(N_R, D)))
    target = pointset(rng.uniform(-0.5, 0.5, size=(N_S, D)))
    sigma2 = rng.uniform(0.005, 0.05, size=N_R)
    post_var = rng.uniform(0.0, 0.01, size=N_R)
    p = responsibilities(ResponsibilityInputs(target, rbar, sigma2, post_var, 0.1))
    gram = assemble_gram(SquaredExponential(0.01, 0.2), ref)
    pca = build_pca_kernel(rng.normal(scale=0.01, size=(12, N_R * D)), 4, ref)
    pca_gram = assemble_gram(SumKernel(SquaredExponential(0.01, 0.2), pca), ref)
    inliers = np.sort(rng.choice(N_R, size=C, replace=False))
    return dict(
        ref=ref, rbar=rbar, target=target, sigma2=sigma2, post_var=post_var, p=p,
        gram=gram, pca_gram=pca_gram, inliers=inliers,
        delta_hat=rng.normal(scale=0.02, size=(C, D)),
        sigma2_eff=rng.uniform(0.001, 0.01, size=C),
    )


def peak_doubles(fn, *args):
    """Largest number of doubles allocated at once while fn(*args) runs,
    its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / DOUBLE
    finally:
        tracemalloc.stop()


def snapshot(*arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("omega", [0.0, 0.1])
def test_responsibilities_peak_is_one_buffer(dense, omega):
    inputs = ResponsibilityInputs(
        dense["target"], dense["rbar"], dense["sigma2"], dense["post_var"], omega
    )
    assert peak_doubles(responsibilities, inputs) <= 1.5 * N_R * N_S


def test_update_sigma2_peak_is_one_buffer(dense):
    p = dense["p"]
    args = (p, p.sum(axis=1), dense["target"], dense["rbar"], dense["post_var"])
    assert peak_doubles(update_sigma2, *args) <= 1.5 * N_R * N_S


def test_gpr_posterior_peak_is_observed_block_and_cross_covariance(dense):
    args = (dense["gram"], dense["inliers"], dense["delta_hat"], dense["sigma2_eff"])
    assert peak_doubles(gpr_posterior, *args) <= 1.2 * (C * C + N_R * C)


def test_sq_dists_leaves_inputs_unchanged(dense):
    a, b = dense["rbar"].points, dense["target"].points
    before = snapshot(a, b)
    sq_dists(a, b)
    assert snapshot(a, b) == before


@pytest.mark.parametrize("omega", [0.0, 0.1])
def test_responsibilities_leave_inputs_unchanged(dense, omega):
    arrays = (dense["target"].points, dense["rbar"].points, dense["sigma2"], dense["post_var"])
    before = snapshot(*arrays)
    responsibilities(ResponsibilityInputs(
        dense["target"], dense["rbar"], dense["sigma2"], dense["post_var"], omega
    ))
    assert snapshot(*arrays) == before


@pytest.mark.parametrize("kernel", ["gram", "pca_gram"])
def test_gpr_posterior_leaves_inputs_unchanged(dense, kernel):
    gram = dense[kernel]
    arrays = [gram.g, dense["inliers"], dense["delta_hat"], dense["sigma2_eff"]]
    if gram.lowrank_u is not None:
        arrays += [gram.lowrank_u, gram.lowrank_lam]
    before = snapshot(*arrays)
    gpr_posterior(gram, dense["inliers"], dense["delta_hat"], dense["sigma2_eff"])
    assert snapshot(*arrays) == before


@pytest.mark.parametrize("mode", ["per_point", "scalar"])
def test_update_sigma2_leaves_inputs_unchanged(dense, mode):
    p = dense["p"]
    nu = p.sum(axis=1)
    arrays = (p, nu, dense["target"].points, dense["rbar"].points, dense["post_var"],
              dense["sigma2"])
    before = snapshot(*arrays)
    update_sigma2(p, nu, dense["target"], dense["rbar"], dense["post_var"], mode,
                  prev_sigma2=dense["sigma2"])
    assert snapshot(*arrays) == before
