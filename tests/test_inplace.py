"""The dense steps of one iteration work in place, in row blocks or in the
registration's one workspace.

Each step may allocate its output and little else: tracemalloc sees NumPy's
buffers, so the incremental peak of one call bounds the full-size
temporaries it makes.  The peak tests of single steps shrink the row block
to BLOCK rows so that one block is small next to the full-size buffers; the
registration tests also run at the default core.ROW_BLOCK.  tracemalloc does
not see the registration's workspace, an anonymous memory map, so its size
is checked through the returned P, a view of it.  In-place work must never
reach the caller's arrays, so every input is checked bit for bit after the
call; the blocked steps are checked against dense formulas at the block
edges.  A step given a workspace returns the same bits as without one.
"""
import inspect
import mmap
import tracemalloc

import numpy as np
import pytest

from sfgp import core, correspondence, registration
from sfgp.core import (
    NumericalError,
    PosteriorDeformation,
    RegistrationConfig,
    default_sigma2_init,
    gemm,
    sq_dists,
)
from sfgp.correspondence import (
    ResponsibilityInputs,
    closest_point_correspondence,
    get_correspondences,
    responsibilities,
)
from sfgp.gpr import gpr_posterior
from sfgp.kernels import (
    GPPrior,
    ScaledKernel,
    SquaredExponential,
    SumKernel,
    build_pca_kernel,
    gp_prior,
)
from sfgp.registration import VARIANTS, register, update_sigma2, variant_config
from sfgp.synthdata import PerturbationSpec, fish_reference, generate

from helpers import (
    dense_gpr,
    dense_gram,
    fibonacci_sphere,
    literal_variance_update,
    pointset,
    random_points,
    row_moments,
)

N_R, N_S, C, D, RANK = 400, 410, 300, 3, 4
BLOCK = 64
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
    gram = gp_prior(SquaredExponential(0.01, 0.2), ref)
    pca = build_pca_kernel(rng.normal(scale=0.01, size=(12, N_R * D)), RANK, ref)
    pca_gram = gp_prior(SumKernel(SquaredExponential(0.01, 0.2), pca), ref)
    inliers = np.sort(rng.choice(N_R, size=C, replace=False))
    return dict(
        ref=ref, rbar=rbar, target=target, sigma2=sigma2, post_var=post_var, p=p,
        pca=pca, gram=gram, pca_gram=pca_gram, inliers=inliers,
        delta_hat=rng.normal(scale=0.02, size=(C, D)),
        sigma2_eff=rng.uniform(0.001, 0.01, size=C),
    )


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(core, "ROW_BLOCK", BLOCK)


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


def test_get_correspondences_peak_is_p_and_one_block(dense, small_blocks):
    # P, one row block of W, which holds its own mask, and a few dozen
    # (N_R,)-sized vectors: the row sums and moments, the labels; no
    # full-size W or mask
    inputs = ResponsibilityInputs(
        dense["target"], dense["rbar"], dense["sigma2"], dense["post_var"], 0.1
    )
    bound = N_R * N_S + BLOCK * N_S + 32 * N_R
    assert peak_doubles(get_correspondences, inputs, 0.01) <= bound


def test_default_sigma2_init_peak_is_row_blocks(dense, small_blocks):
    # one row block of distances, the buffer every block is formed in, and a
    # few (N, d) arrays; no N x N buffer
    assert peak_doubles(default_sigma2_init, dense["ref"]) <= BLOCK * N_R + 16 * N_R * D


def test_update_sigma2_peak_is_a_few_vectors(dense, small_blocks):
    # the row moments of P replace its row blocks of squared distances: a few
    # (N_R,) vectors and nothing of size N_S
    args = (*row_moments(dense["p"], dense["target"].points), dense["rbar"],
            dense["post_var"], "per_point", dense["sigma2"])
    assert peak_doubles(update_sigma2, *args) <= 8 * N_R


def test_gpr_posterior_peak_is_observed_block_and_cross_covariance(dense, small_blocks):
    # the factored C x C block, one (BLOCK, C) buffer that each block of
    # kernel values is evaluated into, first for A's triangle and then for
    # the cross-covariance, and a few (N_R,)-sized vectors: the mean, the
    # variance and the inliers' coordinates
    args = (dense["gram"], dense["inliers"], dense["delta_hat"], dense["sigma2_eff"])
    assert peak_doubles(gpr_posterior, *args) <= C * C + BLOCK * C + 24 * N_R


def test_lowrank_posterior_peak_adds_only_rank_sized_arrays(dense, small_blocks):
    # the low-rank correction adds a few (N_R * d, m) arrays to the scalar peak
    args = (dense["pca_gram"], dense["inliers"], dense["delta_hat"], dense["sigma2_eff"])
    assert peak_doubles(gpr_posterior, *args) <= C * C + BLOCK * C + 8 * N_R * D * RANK


@pytest.mark.parametrize("lowrank", [False, True])
def test_gp_prior_peak_is_check_copy_and_one_block(dense, small_blocks, lowrank):
    # the triangle its SPD check factors in place, one row block of kernel
    # values and a few vectors, no Gram: the check scans no block for
    # finiteness (a boolean mask of 1/8 of a double per entry).  Given a
    # workspace, the triangle is filled into it.
    spec = SquaredExponential(0.01, 0.2)
    if lowrank:
        spec = SumKernel(spec, dense["pca"])
    bound = BLOCK * N_R + 16 * N_R + (2 * N_R * D * RANK if lowrank else 0)
    assert peak_doubles(gp_prior, spec, dense["ref"]) <= N_R * N_R + bound
    work = np.empty(N_R * N_S)
    assert peak_doubles(lambda: gp_prior(spec, dense["ref"], work=work)) <= bound


def test_failed_gram_check_reuses_its_copy(dense, small_blocks):
    # the eigenvalues of a failed check are taken in its own buffer, refilled:
    # that triangle, one row block of kernel values or LAPACK's O(N_R)
    # workspace, and no finiteness mask
    half = dense["ref"].points[: N_R // 2]
    degenerate = pointset(np.vstack([half, half]))
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="pivot"):
            gp_prior(SquaredExponential(0.01, 0.2), degenerate, 0.0)
        peak = tracemalloc.get_traced_memory()[1] / DOUBLE
    finally:
        tracemalloc.stop()
    assert peak <= N_R * N_R + BLOCK * N_R + 48 * N_R


@pytest.mark.parametrize("block", [64, 128])
def test_register_holds_one_workspace(dense, monkeypatch, block):
    # the Gram check, each P and each observed block share one workspace of
    # N_R * max(N_R, N_S) doubles, an anonymous map that tracemalloc does not
    # see; no Gram is stored, and every other full-size product is worked in
    # row blocks, one block at a time
    monkeypatch.setattr(core, "ROW_BLOCK", block)
    rng = np.random.default_rng(11)
    moved = dense["ref"].points + rng.normal(scale=0.01, size=(N_R, D))
    kept = moved[moved[:, 0] < 0.3]  # a missing region
    target = pointset(np.vstack([kept, rng.uniform(-0.5, 0.5, size=(N_S - len(kept), D))]))
    cfg = RegistrationConfig(p_min=0.05, omega=0.1, max_iters=5)
    tracemalloc.start()
    try:
        res = register(dense["ref"], target, SquaredExponential(0.01, 0.2), cfg)
        peak = tracemalloc.get_traced_memory()[1] / DOUBLE
    finally:
        tracemalloc.stop()
    assert not res.failed and res.iters >= 2
    c = max(rec.n_inliers for rec in res.trace)
    assert c < N_R
    workspace = res.state.P.base
    assert workspace.size == N_R * max(N_R, N_S)
    assert isinstance(workspace.base.obj, mmap.mmap)
    assert peak <= 2 * block * max(N_R, N_S) + 64 * N_R


def test_register_at_the_default_row_block_holds_little_besides_its_buffers():
    # no monkeypatch: at N_R = 1000 the traced memory of a registration at
    # the default block size, its workspace aside, is a few row blocks
    n_r = 1000
    ref = pointset(fibonacci_sphere(n_r))
    spec = PerturbationSpec(warp_amplitude=0.05, warp_bandwidth=0.3, missing_width=0.4,
                            outlier_ratio=0.1, noise_std=0.01, seed=12)
    target = generate(ref, spec).target
    cfg = RegistrationConfig(p_min=0.05, omega=0.1, max_iters=3)
    tracemalloc.start()
    try:
        res = register(ref, target, SquaredExponential(0.01, 0.2), cfg)
        peak = tracemalloc.get_traced_memory()[1] / DOUBLE
    finally:
        tracemalloc.stop()
    assert not res.failed and res.iters == 3
    width = max(n_r, target.n)
    assert peak <= 2 * core.ROW_BLOCK * width + 64 * n_r


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
    prior = dense[kernel]
    arrays = [prior.points, dense["inliers"], dense["delta_hat"], dense["sigma2_eff"]]
    if prior.lowrank_u is not None:
        arrays += [prior.lowrank_u, prior.lowrank_lam]
    before = snapshot(*arrays)
    gpr_posterior(prior, dense["inliers"], dense["delta_hat"], dense["sigma2_eff"])
    assert snapshot(*arrays) == before


@pytest.mark.parametrize("mode", ["per_point", "scalar"])
def test_update_sigma2_leaves_inputs_unchanged(dense, mode):
    moments = row_moments(dense["p"], dense["target"].points)
    arrays = (*moments, dense["rbar"].points, dense["post_var"], dense["sigma2"])
    before = snapshot(*arrays)
    update_sigma2(*moments, dense["rbar"], dense["post_var"], mode,
                  prev_sigma2=dense["sigma2"])
    assert snapshot(*arrays) == before


# ------------------------------------------------------------ block edges

EDGE_BLOCK = 8
# (N_R, missing rows): below one block, one block plus one, and a last block
# that is wholly or partly missing
EDGE_CASES = [(7, ()), (9, ()), (9, (8,)), (20, (3, 17, 18, 19))]


@pytest.fixture
def edge_blocks(monkeypatch):
    monkeypatch.setattr(core, "ROW_BLOCK", EDGE_BLOCK)


def edge_instance(n_r, missing, d=2):
    rng = np.random.default_rng(100 + n_r + len(missing))
    ref = pointset(random_points(rng, n_r, d, min_sep=0.15))
    target = pointset(rng.uniform(-1.0, 1.0, size=(n_r + 3, d)))
    p = rng.uniform(0.0, 0.2, size=(n_r, n_r + 3))
    p[list(missing)] = rng.uniform(0.0, 0.01, size=(len(missing), n_r + 3))
    return rng, ref, target, p


@pytest.mark.parametrize("n_r, missing", EDGE_CASES)
def test_fusion_matches_full_w_at_block_edges(edge_blocks, n_r, missing):
    rng, ref, target, p = edge_instance(n_r, missing)
    sigma2 = rng.uniform(0.01, 0.1, size=n_r)
    state, ann = correspondence._fuse(p, target, ref, sigma2, 0.01)
    w = np.where(p > 0.01, p, 0.0)
    inliers = np.flatnonzero(w.sum(axis=1) > 0)
    mass = w.sum(axis=1)[inliers]
    assert np.array_equal(state.inliers, inliers)
    assert np.array_equal(state.missing, np.array(sorted(missing), dtype=int))
    np.testing.assert_allclose(
        ann.delta_hat, (w @ target.points)[inliers] / mass[:, None] - ref.points[inliers],
        rtol=1e-12, atol=1e-15,
    )
    np.testing.assert_allclose(ann.sigma2_eff, sigma2[inliers] / mass, rtol=1e-12)

    nearest, _ = closest_point_correspondence(target, ref, 0.1)
    full = np.argmin(sq_dists(ref.points, target.points), axis=1)
    assert np.array_equal(nearest.P.argmax(axis=1), full)


@pytest.mark.parametrize("lowrank", [False, True])
@pytest.mark.parametrize("n_r, missing", EDGE_CASES)
def test_posterior_matches_dense_oracle_at_block_edges(edge_blocks, n_r, missing, lowrank):
    rng, ref, _, _ = edge_instance(n_r, missing)
    spec = SquaredExponential(1.0, 0.7)
    if lowrank:
        spec = SumKernel(spec, build_pca_kernel(rng.normal(size=(6, n_r * 2)), 3, ref))
    prior = gp_prior(spec, ref, 1e-10)
    inliers = np.setdiff1d(np.arange(n_r), missing)
    delta = rng.normal(size=(inliers.size, 2))
    noise = rng.uniform(0.05, 0.8, size=inliers.size)
    post = gpr_posterior(prior, inliers, delta, noise)
    mu_o, var_o = dense_gpr(prior, inliers, delta, noise, prior.jitter)
    np.testing.assert_allclose(post.mu, mu_o, rtol=1e-8, atol=1e-11)
    np.testing.assert_allclose(post.var_diag, var_o, rtol=1e-8, atol=1e-11)


@pytest.mark.parametrize("n_r, missing", EDGE_CASES)
def test_update_sigma2_matches_literal_at_block_edges(edge_blocks, n_r, missing):
    # the row moments come from the fusion's blocked product
    rng, ref, target, p = edge_instance(n_r, missing)
    p[list(missing)] = 0.0  # no mass: these rows keep their previous value
    post_var = rng.uniform(0.0, 0.05, size=n_r)
    prev = rng.uniform(0.01, 0.1, size=n_r)
    state, _ = correspondence._fuse(p, target, ref, prev, 0.01)
    moments = (state.nu, state.ps, state.pss)
    got = update_sigma2(*moments, ref, post_var, "per_point", prev_sigma2=prev)
    live = state.nu > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        want = literal_variance_update(p, target.points, ref.points, post_var)
    np.testing.assert_allclose(got[live], want[live], rtol=1e-12)
    assert np.array_equal(got[~live], prev[~live])

    # scalar: the mass-weighted mean of the per-point values of live rows
    scalar = update_sigma2(*moments, ref, post_var, "scalar", prev_sigma2=prev)
    pooled = np.sum(state.nu[live] * want[live]) / np.sum(state.nu)
    np.testing.assert_allclose(scalar, np.full(n_r, pooled), rtol=1e-12)


@pytest.mark.parametrize("n_r", [7, 8, 9, 20])
def test_blocked_gram_matches_the_full_formula(edge_blocks, n_r):
    # the row blocks of the triangle fill, at their edges, against the direct
    # formula: each block writes its rows from its first column on, so the
    # lower triangle left of the diagonal blocks, which LAPACK does not
    # read, keeps the workspace's contents
    rng = np.random.default_rng(n_r)
    prior = gp_prior(SumKernel(SquaredExponential(0.7, 0.4), SquaredExponential(0.2, 1.3)),
                     pointset(rng.uniform(-1.0, 1.0, size=(n_r, 3))), 0.0)
    want = dense_gram(prior) + 0.25 * np.eye(n_r)
    got = prior.upper_gram(np.arange(n_r), 0.25, work=np.full(n_r * n_r, np.nan))
    first = np.arange(n_r) // EDGE_BLOCK * EDGE_BLOCK  # each row's first written column
    written = np.arange(n_r)[None, :] >= first[:, None]
    np.testing.assert_allclose(got[written], want[written], rtol=1e-14, atol=0.0)
    assert np.all(np.isnan(got[~written]))


# ------------------------------------------------------ dense oracle, ROW_BLOCK

def edge_kernels(rng, ref):
    pca = build_pca_kernel(rng.normal(size=(6, ref.n * ref.dim)), 3, ref)
    return {
        "se": SquaredExponential(1.0, 0.7),
        "scaled_sum": ScaledKernel(
            1.7, SumKernel(SquaredExponential(1.0, 0.7), SquaredExponential(0.3, 1.4))),
        "se_pca": SumKernel(SquaredExponential(1.0, 0.7), pca),
        "pca": pca,
    }


@pytest.mark.parametrize("kernel", ["se", "scaled_sum", "se_pca", "pca"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_posterior_matches_dense_oracle_at_the_row_block_edge(kernel, offset):
    # the default ROW_BLOCK: one block short of a full one, exactly one, and
    # one row into a second, with missing points in each block
    n_r = core.ROW_BLOCK + offset
    rng = np.random.default_rng(200 + n_r)
    ref = pointset(random_points(rng, n_r, 3, min_sep=0.05))
    prior = gp_prior(edge_kernels(rng, ref)[kernel], ref, 1e-8)
    missing = [0, 5, n_r // 2, n_r - 2, n_r - 1]
    inliers = np.setdiff1d(np.arange(n_r), missing)
    delta = rng.normal(scale=0.1, size=(inliers.size, 3))
    noise = rng.uniform(0.05, 0.5, size=inliers.size)
    post = gpr_posterior(prior, inliers, delta, noise)
    mu_o, var_o = dense_gpr(prior, inliers, delta, noise, prior.jitter)
    np.testing.assert_allclose(post.mu, mu_o, rtol=1e-8, atol=1e-10 * np.abs(mu_o).max())
    np.testing.assert_allclose(post.var_diag, var_o, rtol=1e-8, atol=1e-10 * var_o.max())


# -------------------------------------------------------------- workspace

@pytest.mark.parametrize("kernel", ["gram", "pca_gram"])
def test_gpr_posterior_bits_do_not_depend_on_its_workspace(dense, kernel):
    args = (dense[kernel], dense["inliers"], dense["delta_hat"], dense["sigma2_eff"])
    plain = gpr_posterior(*args)
    shared = gpr_posterior(*args, work=np.full(N_R * N_S, np.nan))  # stale contents
    assert snapshot(shared.mu, shared.var_diag) == snapshot(plain.mu, plain.var_diag)


@pytest.mark.parametrize("lowrank", [False, True])
def test_gp_prior_bits_do_not_depend_on_its_workspace(dense, lowrank):
    # two scalar summands: the second is evaluated in a buffer of its own
    spec = SumKernel(SquaredExponential(0.01, 0.2), SquaredExponential(0.003, 0.5))
    if lowrank:
        spec = SumKernel(spec, dense["pca"])
    plain = gp_prior(spec, dense["ref"])
    shared = gp_prior(spec, dense["ref"], work=np.full(N_R * N_S, np.nan))
    rows, cols = slice(0, N_R), dense["inliers"]
    assert shared.block(rows, cols).tobytes() == plain.block(rows, cols).tobytes()
    assert shared.jitter == plain.jitter and shared.se_parts == plain.se_parts
    if lowrank:
        assert snapshot(shared.lowrank_u, shared.lowrank_lam) == snapshot(
            plain.lowrank_u, plain.lowrank_lam)


def test_failed_gram_check_reports_the_same_pivot_in_a_workspace(dense):
    half = dense["ref"].points[: N_R // 2]
    degenerate = pointset(np.vstack([half, half]))
    messages = []
    for work in (None, np.full(N_R * N_S, np.nan)):
        with pytest.raises(NumericalError, match="pivot") as exc:
            gp_prior(SquaredExponential(0.01, 0.2), degenerate, 0.0, work=work)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def record_e_steps(monkeypatch, variant):
    """Replace the E-step `register` calls for `variant` by one that records
    its positional inputs; returns (the original, the list of inputs)."""
    name = ("closest_point_correspondence" if VARIANTS[variant].get("correspondence_mode")
            == "closest_point" else "get_correspondences")
    original, calls = getattr(registration, name), []

    def e_step(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(registration, name, e_step)
    return original, calls


def assert_state_is_a_fresh_e_step(state, original, args):
    fresh, _ = original(*args)  # no workspace: a P of its own
    assert state.P.tobytes() == fresh.P.tobytes()
    assert snapshot(state.nu, state.ps, state.pss, state.inliers) == snapshot(
        fresh.nu, fresh.ps, fresh.pss, fresh.inliers)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_register_returns_the_p_of_its_last_e_step(monkeypatch, variant):
    # the posterior factors its observed block over P in the workspace; the
    # last E-step, run again on its inputs, gives P back bit for bit
    fish = fish_reference()
    inst = generate(fish, PerturbationSpec(warp_amplitude=0.03, missing_width=0.3,
                                           noise_std=0.02, seed=4))
    original, calls = record_e_steps(monkeypatch, variant)
    cfg = variant_config(variant, RegistrationConfig(p_min=0.05, omega=0.1, max_iters=6))
    res = register(fish, inst.target, SquaredExponential(0.01, 0.2), cfg)
    assert not res.failed and res.iters >= 2 and len(calls) == res.iters + 1
    assert all(a is b for a, b in zip(calls[-1], calls[-2]))
    assert_state_is_a_fresh_e_step(res.state, original, calls[-2])


def test_zero_mean_run_returns_the_p_of_its_last_e_step(monkeypatch):
    # a zero posterior mean is a fixed point, which converges in iteration 2;
    # the posterior stand-in scribbles over the workspace as a real one would
    fish = fish_reference()
    zero = PosteriorDeformation(mu=np.zeros((fish.n, 2)), var_diag=np.zeros(fish.n))

    def posterior(*args, work):
        work.fill(np.nan)
        return zero

    original, calls = record_e_steps(monkeypatch, "SFGP_Full")
    monkeypatch.setattr(registration, "gpr_posterior", posterior)
    res = register(fish, fish, SquaredExponential(0.01, 0.2), RegistrationConfig())
    assert res.stop_reason == "converged" and res.iters == 2 and len(calls) == 3
    assert all(a is b for a, b in zip(calls[-1], calls[-2]))
    assert_state_is_a_fresh_e_step(res.state, original, calls[-2])


def test_buffer_parameters_are_keyword_only():
    # perfbench's span hooks read p_min and inliers as positional argument 1,
    # and a `mode` as positional argument 2 of get_correspondences: a buffer
    # passed positionally there would be read as that mode
    for fn, name in [(sq_dists, "out"), (gemm, "out"), (responsibilities, "out"),
                     (get_correspondences, "out"), (closest_point_correspondence, "out"),
                     (gpr_posterior, "work"), (gp_prior, "work"), (GPPrior.block, "out"),
                     (GPPrior.upper_gram, "work")]:
        kind = inspect.signature(fn).parameters[name].kind
        assert kind is inspect.Parameter.KEYWORD_ONLY, fn.__name__
    assert list(inspect.signature(get_correspondences).parameters).index("p_min") == 1
    assert list(inspect.signature(gpr_posterior).parameters).index("inliers") == 1
