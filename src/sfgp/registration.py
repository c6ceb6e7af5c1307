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

The loop starts from the undeformed reference with every sigma2_i at
`default_sigma2_init(reference)`, h^2 for the mean nearest-neighbour spacing
h, under the prior `kernels.gp_prior` builds with its own jitter.  Both are
derived, not set: no setting of RegistrationConfig moves either.

The iterations run in SQUAREM cycles (Varadhan & Roland 2008, scheme S3) on
the state theta = (deformed points, sigma2), with sigma2 in linear space.
A cycle takes two plain EM steps, theta1 = F(theta0) and theta2 = F(theta1),
forms r = theta1 - theta0 and v = theta2 - theta1 - r, and takes
alpha = -|r| / |v| clamped to [-step_max, -1].  step_max starts at 1 and is
multiplied by 4 each time alpha reaches it.  At alpha = -1 the extrapolation
is theta2 itself, which starts the next cycle.  Otherwise one more step goes
from theta' = theta0 - 2 alpha r + alpha^2 v, with post_var from theta2's
step and each sigma2 entry of theta' below SIGMA2_FLOOR replaced by
theta2's, and its output starts the next cycle.  An E-step at theta' that
collapses is no failure: it is not counted, and the next cycle starts from
theta2.  A collapse in a plain step ends the run.

Every call of F but a collapse at theta' is one iteration: `iters` counts
them, max_iters caps them, and each completed one appends an IterationRecord,
marked `extrapolated` when it started from theta'.  From the second
iteration on, the loop stops at a fixed point: when no reference point moved
by more than rel_tol * sqrt(mean sigma2) from the step's input to its
output, with sigma2 taken after its update.  It does not stop on the mixture
log-likelihood, which per-point variances keep raising.

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
distances of `default_sigma2_init`, the fusion weights and the posterior's
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


def _extrapolate(theta0, theta1, theta2, step_max, n_pts):
    """SQUAREM-3's extrapolation from a cycle's three states, each the points
    (n_pts values) followed by sigma2.  Returns theta' and the next step_max;
    theta' is None where alpha = -1, since it would be theta2."""
    r = theta1 - theta0
    v = theta2 - theta1 - r
    norm_r, norm_v = np.linalg.norm(r), np.linalg.norm(v)
    alpha = -step_max if norm_r >= step_max * norm_v else min(-1.0, -norm_r / norm_v)
    if alpha == -step_max:
        step_max *= 4.0
    if alpha == -1.0:
        return None, step_max
    theta = theta0 - 2.0 * alpha * r + alpha**2 * v
    low = theta[n_pts:] < SIGMA2_FLOOR
    theta[n_pts:][low] = theta2[n_pts:][low]
    return theta, step_max


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
    E-step rule of the VARIANTS row cfg.variant names: `get_correspondences`,
    at cfg.p_min or, for a variant that does not read it, at 0, or
    `closest_point_correspondence`; the labels are the barycentres it fuses
    minus the undeformed reference points.
    """
    if reference.dim != target.dim:
        raise ValueError("reference and target dimensions differ")

    # each P and each observed block share the workspace
    size = reference.n * max(reference.n, target.n)
    work = np.frombuffer(mmap.mmap(-1, size * np.dtype(float).itemsize), dtype=float)
    p_buf = buffer_view(work, (reference.n, target.n))
    prior = gp_prior(kernel, reference)

    ref_pts = reference.points
    n_r, n_pts = reference.n, reference.points.size
    sigma2_update, closest_point, reads_p_min = VARIANTS[cfg.variant]
    p_min = cfg.p_min if reads_p_min else 0.0

    def e_step(inputs):
        # both rules are looked up per call, so patched ones apply; p_min positional
        if closest_point:
            return closest_point_correspondence(inputs, out=p_buf)
        return get_correspondences(inputs, p_min, out=p_buf)

    trace: list = []
    inputs = posterior = None  # of the last completed iteration

    def em_step(it, theta, post_var, extrapolated):
        """F: one EM iteration from theta = (points, sigma2) flattened.
        Returns the next theta and post_var and whether the stop rule fired,
        or None when the E-step collapses."""
        nonlocal inputs, posterior
        t0 = time.perf_counter()
        r_bar, sigma2 = PointSet(points=theta[:n_pts].reshape(ref_pts.shape)), theta[n_pts:]
        step_inputs = ResponsibilityInputs(target, r_bar, sigma2, post_var, cfg.omega)
        try:
            state, barycentres, noise = e_step(step_inputs)
        except AllMissingError as exc:
            logger.warning("iter=%d correspondence collapse: %s", it, exc)
            return None

        try:
            # the observed block is factored in work, over state.P
            inliers = state.inliers
            labels = barycentres - ref_pts[inliers]
            posterior = gpr_posterior(prior, inliers, labels, noise, work=work)
        except NumericalError as exc:
            raise NumericalError(f"iteration {it}: {exc}") from exc
        inputs = step_inputs

        out = np.empty_like(theta)
        points = out[:n_pts].reshape(ref_pts.shape)
        np.add(ref_pts, posterior.mu, out=points)
        out[n_pts:] = update_sigma2(
            state.nu,
            state.ps,
            state.pss,
            PointSet(points=points),
            posterior.var_diag,
            sigma2_update,
            prev_sigma2=sigma2,
        )

        max_move = float(np.max(np.linalg.norm(points - r_bar.points, axis=1)))
        mean_sigma2 = float(np.mean(out[n_pts:]))
        record = IterationRecord(
            iteration=it,
            max_move=max_move,
            n_inliers=int(inliers.size),
            n_missing=n_r - int(inliers.size),
            mean_sigma2=mean_sigma2,
            elapsed_s=time.perf_counter() - t0,
            extrapolated=extrapolated,
        )
        trace.append(record)
        logger.info("%s", record)
        return out, posterior.var_diag, it > 1 and max_move <= cfg.rel_tol * np.sqrt(mean_sigma2)

    theta = np.concatenate([ref_pts.ravel(), np.full(n_r, default_sigma2_init(reference))])
    post_var = np.zeros(n_r)
    cycle = [theta]  # the cycle's plain states: theta0, theta1, theta2
    step_max = 1.0
    stop_reason = "max_iters"
    while len(trace) < cfg.max_iters:  # max_iters >= 1, so it is bound
        it, theta_x = len(trace) + 1, None
        if len(cycle) == 3:
            theta_x, step_max = _extrapolate(*cycle, step_max, n_pts)
            cycle = [cycle[2]]  # starts the next cycle, unless theta' does
        extrapolated = theta_x is not None

        step = em_step(it, theta_x if extrapolated else cycle[-1], post_var, extrapolated)
        if step is None:
            if extrapolated:
                continue  # uncounted: the next cycle starts from theta2
            stop_reason = "first_iteration" if it == 1 else "mid_run_collapse"
            break
        theta, post_var, converged = step
        cycle = [theta] if extrapolated else cycle + [theta]
        if converged:
            stop_reason = "converged"
            break

    state = None  # a collapse leaves none
    if stop_reason in ("converged", "max_iters"):
        # the posterior overwrote P: the same E-step on the same inputs
        # gives it back for the result
        state = e_step(inputs)[0]

    return RegistrationResult(
        deformed_reference=PointSet(points=theta[:n_pts].reshape(ref_pts.shape)),
        state=state,
        posterior=posterior,
        sigma2=theta[n_pts:],
        iters=it,
        stop_reason=stop_reason,
        trace=tuple(trace),
    )


__all__ = ["VARIANTS", "variant_config", "update_sigma2", "register", "SIGMA2_FLOOR"]
