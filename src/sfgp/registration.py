"""Outer fitting loop: alternate correspondence estimation with GP regression.

This is an EM loop.  Each iteration recomputes soft correspondences from the
current deformed reference (E-step), fuses them into labels, fits the GP
posterior deformation, moves the reference, and finally updates the
per-point mixture variances from the new residuals (M-step).

The labels are total displacements of the undeformed reference (barycentre
minus reference point, as in BCPD's x_hat - y), because the posterior mean is
applied as the total displacement: r_bar = reference + mu.  With labels taken
relative to the current deformed reference instead, the update would be an
involution and the loop would cycle with period 2.

From the second iteration on, the loop stops at a fixed point: when no
reference point moved by more than rel_tol * sqrt(mean sigma2) in the last
iteration, with sigma2 taken after its update.  It does not stop on the
mixture log-likelihood, which per-point variances keep raising.

A run holds one full-size array: a workspace of N_R * max(N_R, N_S)
doubles.  It holds in turn each iteration's P (N_R x N_S) and each
iteration's observed block of the posterior (C x C, C <= N_R).  The Gram is
never stored or factored whole: the posterior evaluates the kernel one row
block at a time where it needs it (see kernels.GPPrior).  P is used up
before the posterior starts: the fusion also takes the row moments of P the
variance update reads.

The Cholesky factorization of each observed block plus its noise diagonal
is the run's one positive-definiteness check: a problem it fails on raises
NumericalError naming the iteration.

The workspace is an anonymous memory map, so it is unmapped, and its pages
returned, when the returned state's P, a view of it, is dropped.  An array
from np.empty of about 31 MiB (N_R = N_S = 2000) sits under glibc's dynamic
mmap ceiling of 32 MiB, so glibc may serve it from the heap, where it can
stay resident beside the next run's workspace.  On the dense 3-D benchmark
(seeds 11-18) such a workspace read 131-135 MB of peak RSS in 6 of 8 runs
and 104 MB in 2; the map read 104-105 MB in 10 of 10.

The other full-size products (the kernel blocks, the nearest-neighbour
distances of the default sigma2_init, the fusion weights and the posterior's
cross-covariance) are worked one block of core.ROW_BLOCK rows at a time, and
no step scans a full-size array for finiteness.  Besides its workspace a run
so holds at most a few blocks of ROW_BLOCK * max(N_R, N_S) doubles and a few
O(N) vectors: 2.8 MiB at N_R = 2000, N_S = 2076.  Once the loop ends, the last
E-step is run again on its inputs, so the returned state's P holds the
responsibilities.
"""
from __future__ import annotations

import logging
import mmap
import time

import numpy as np

from .core import (
    VARIANTS,  # re-exported: the variant table lives in core, without the engine
    AllMissingError,
    IterationRecord,
    NumericalError,
    PointSet,
    RegistrationConfig,
    RegistrationResult,
    buffer_view,
    default_sigma2_init,
    variant_config,
)
from .correspondence import (
    ResponsibilityInputs,
    closest_point_correspondence,
    get_correspondences,
)
from .gpr import gpr_posterior
from .kernels import KernelSpec, gp_prior

logger = logging.getLogger(__name__)

SIGMA2_FLOOR = 1e-12


def update_sigma2(
    nu: np.ndarray,
    ps: np.ndarray,
    pss: np.ndarray,
    deformed_ref: PointSet,
    post_var: np.ndarray,
    mode: str,
    prev_sigma2: np.ndarray,
) -> np.ndarray:
    """Responsibility-weighted residual variance per reference point.

    per_point: sigma2_i = (sum_j p_ij ||s_j - rbar_i||^2 / nu_i) / d + post_var_i
    on the points of positive mass nu_i; the others keep their value in
    prev_sigma2.
    scalar: every entry is the nu-weighted mean of those per-point values,
    (sum_i residual_i / d + sum_i nu_i post_var_i) / sum_i nu_i, CPD's
    variance pooled over the total mass.
    Output is floored at SIGMA2_FLOOR.  The residuals are taken from the row
    moments of P (see CorrespondenceState), nu = P 1, ps = P S and
    pss = P |s|^2, as pss_i - 2 rbar_i . ps_i + nu_i |rbar_i|^2 clamped at 0
    against cancellation: O(N_R d) work, no P.
    """
    live = nu > 0.0
    if not live.any():
        raise AllMissingError("responsibility matrix carries no mass")
    r_bar = deformed_ref.points
    d = r_bar.shape[1]
    residual2 = pss - 2.0 * np.einsum("ij,ij->i", r_bar, ps)
    residual2 += nu * np.einsum("ij,ij->i", r_bar, r_bar)
    np.maximum(residual2, 0.0, out=residual2)

    out = np.array(prev_sigma2, dtype=float)
    out[live] = residual2[live] / (d * nu[live]) + post_var[live]
    if mode == "scalar":
        out.fill(np.average(out[live], weights=nu[live]))
    return np.maximum(out, SIGMA2_FLOOR, out=out)


def register(
    reference: PointSet,
    target: PointSet,
    kernel: KernelSpec,
    cfg: RegistrationConfig,
) -> RegistrationResult:
    """Fit the reference to the target; see RegistrationConfig for knobs and
    RegistrationResult.stop_reason for how a run ends.  A collapse has state
    None because each E-step overwrites the previous P.  An exact fit, whose
    labels and posterior mean are all zero, is no failure but a fixed point,
    which the stop rule ends as "converged" in the second iteration.

    Each iteration hands one ResponsibilityInputs of the current fit to the
    E-step rule cfg.correspondence_mode picks: `get_correspondences` or
    `closest_point_correspondence`; the labels are the barycentres it fuses
    minus the undeformed reference points.
    """
    if reference.dim != target.dim:
        raise ValueError("reference and target dimensions differ")

    # each P and each observed block share the workspace
    size = reference.n * max(reference.n, target.n)
    work = np.frombuffer(mmap.mmap(-1, size * np.dtype(float).itemsize), dtype=float)
    p_buf = buffer_view(work, (reference.n, target.n))
    prior = gp_prior(kernel, reference, cfg.jitter)
    sigma2_init = (
        cfg.sigma2_init if cfg.sigma2_init is not None else default_sigma2_init(reference)
    )

    ref_pts = reference.points
    n_r = reference.n
    r_bar = reference
    sigma2 = np.full(n_r, float(sigma2_init))
    post_var = np.zeros(n_r)

    def e_step(inputs):
        # both rules are looked up per call, so patched ones apply; p_min positional
        if cfg.correspondence_mode == "closest_point":
            return closest_point_correspondence(inputs, out=p_buf)
        return get_correspondences(inputs, cfg.p_min, out=p_buf)

    posterior = None
    trace: list = []
    stop_reason = "max_iters"
    for it in range(1, cfg.max_iters + 1):  # max_iters >= 1, so it is bound
        t0 = time.perf_counter()
        state = None  # stays None when the E-step collapses
        inputs = ResponsibilityInputs(target, r_bar, sigma2, post_var, cfg.omega)
        try:
            state, barycentres, noise = e_step(inputs)
        except AllMissingError as exc:
            stop_reason = "first_iteration" if it == 1 else "mid_run_collapse"
            logger.warning("iter=%d correspondence collapse: %s", it, exc)
            break

        try:
            # the observed block is factored in work, over state.P
            inliers = state.inliers
            labels = barycentres - ref_pts[inliers]
            posterior = gpr_posterior(prior, inliers, labels, noise, work=work)
        except NumericalError as exc:
            raise NumericalError(f"iteration {it}: {exc}") from exc

        prev_pts = r_bar.points
        r_bar = PointSet(points=ref_pts + posterior.mu)
        post_var = posterior.var_diag
        sigma2 = update_sigma2(
            state.nu,
            state.ps,
            state.pss,
            r_bar,
            post_var,
            cfg.variance_mode,
            prev_sigma2=sigma2,
        )

        max_move = float(np.max(np.linalg.norm(r_bar.points - prev_pts, axis=1)))
        mean_sigma2 = float(np.mean(sigma2))
        record = IterationRecord(
            iteration=it,
            max_move=max_move,
            n_inliers=int(inliers.size),
            n_missing=n_r - int(inliers.size),
            mean_sigma2=mean_sigma2,
            elapsed_s=time.perf_counter() - t0,
        )
        trace.append(record)
        logger.info("%s", record)

        if it > 1 and max_move <= cfg.rel_tol * np.sqrt(mean_sigma2):
            stop_reason = "converged"
            break

    if state is not None:
        # the posterior overwrote P: the same E-step on the same inputs
        # gives it back for the result
        state = e_step(inputs)[0]

    return RegistrationResult(
        deformed_reference=r_bar,
        state=state,
        posterior=posterior,
        sigma2=sigma2,
        iters=it,
        stop_reason=stop_reason,
        trace=tuple(trace),
    )


__all__ = ["VARIANTS", "variant_config", "update_sigma2", "register", "SIGMA2_FLOOR"]
