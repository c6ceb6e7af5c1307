import numpy as np
import pytest

from sfgp.core import CorrespondenceState, RegistrationResult
from sfgp.metrics import mean_sq_distance, missing_detection
from sfgp.synthdata import PerturbationSpec, SyntheticInstance

from helpers import pointset


def make_result(deformed_pts, missing_ids=(), n_ref=None, failed=False):
    n = len(deformed_pts) if n_ref is None else n_ref
    missing = np.asarray(sorted(missing_ids), dtype=int)
    inliers = np.asarray([i for i in range(n) if i not in set(missing.tolist())])
    state = CorrespondenceState(
        P=np.zeros((n, 1)),
        nu=np.zeros(n),
        ps=np.zeros((n, np.shape(deformed_pts)[1])),
        pss=np.zeros(n),
        inliers=inliers,
        missing=missing,
    )
    return RegistrationResult(
        deformed_reference=pointset(deformed_pts),
        state=state,
        posterior=None,
        sigma2=np.ones(n),
        iters=3,
        stop_reason="first_iteration" if failed else "converged",
    )


def make_instance(gt_pts, missing_mask, target_pts=None, outlier_mask=None):
    gt = pointset(gt_pts)
    target = gt if target_pts is None else pointset(target_pts)
    n_real = int(np.sum(~np.asarray(missing_mask)))
    if outlier_mask is None:
        outlier_mask = np.zeros(n_real, dtype=bool)
        target = pointset(np.asarray(gt_pts)[~np.asarray(missing_mask)])
    return SyntheticInstance(
        target=target,
        ground_truth=gt,
        missing_mask=np.asarray(missing_mask, dtype=bool),
        outlier_mask=np.asarray(outlier_mask, dtype=bool),
        spec=PerturbationSpec(),
    )


class TestMeanSqDistance:
    def test_perfect_fit_is_zero(self):
        gt = [[0.0, 0.0], [1.0, 1.0]]
        inst = make_instance(gt, [False, False])
        assert mean_sq_distance(make_result(gt), inst) == 0.0

    def test_single_offset_squared_norm(self):
        inst = make_instance([[0.0, 0.0]], [False])
        res = make_result([[3.0, 4.0]])
        assert mean_sq_distance(res, inst) == pytest.approx(25.0, rel=1e-15)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(5)
        gt = rng.normal(size=(20, 3))
        fitted = gt + rng.normal(scale=0.1, size=(20, 3))
        mask = rng.random(20) < 0.3
        inst = make_instance(gt, mask)
        res = make_result(fitted)
        total = sum(np.sum((gt[i] - fitted[i]) ** 2) for i in range(20)) / 20
        assert mean_sq_distance(res, inst, "all") == pytest.approx(total, rel=1e-12)

    def test_subset_split_weighted_mean(self):
        rng = np.random.default_rng(6)
        gt = rng.normal(size=(15, 2))
        fitted = gt + rng.normal(scale=0.2, size=(15, 2))
        mask = np.zeros(15, dtype=bool)
        mask[:4] = True
        inst = make_instance(gt, mask)
        res = make_result(fitted)
        all_e = mean_sq_distance(res, inst, "all")
        miss_e = mean_sq_distance(res, inst, "missing")
        non_e = mean_sq_distance(res, inst, "non_missing")
        assert all_e == pytest.approx((4 * miss_e + 11 * non_e) / 15, rel=1e-12)

    def test_empty_subset_absent(self):
        inst = make_instance([[0.0, 0.0], [1.0, 1.0]], [False, False])
        res = make_result([[0.0, 0.0], [1.0, 1.0]])
        assert mean_sq_distance(res, inst, "missing") is None

    def test_failed_result_rejected(self):
        inst = make_instance([[0.0, 0.0]], [False])
        res = make_result([[0.0, 0.0]], failed=True)
        with pytest.raises(ValueError):
            mean_sq_distance(res, inst)

    def test_permutation_of_target_indices_is_irrelevant(self):
        rng = np.random.default_rng(7)
        gt = rng.normal(size=(10, 2))
        fitted = gt + 0.05
        mask = np.zeros(10, dtype=bool)
        mask[2] = True
        inst = make_instance(gt, mask)
        res = make_result(fitted, missing_ids=[2])
        perm = rng.permutation(inst.target.n)
        shuffled = SyntheticInstance(
            target=pointset(inst.target.points[perm]),
            ground_truth=inst.ground_truth,
            missing_mask=inst.missing_mask,
            outlier_mask=inst.outlier_mask[perm],
            spec=inst.spec,
        )
        for subset in ("all", "missing", "non_missing"):
            assert mean_sq_distance(res, inst, subset) == mean_sq_distance(
                res, shuffled, subset
            )
        assert missing_detection(res, inst) == missing_detection(res, shuffled)


class TestMissingDetection:
    def test_perfect(self):
        gt = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
        inst = make_instance(gt, [True, False, False])
        res = make_result(gt, missing_ids=[0])
        assert missing_detection(res, inst) == (1.0, 1.0)

    def test_nothing_flagged(self):
        gt = [[0.0, 0.0], [1.0, 0.0]]
        inst = make_instance(gt, [True, False])
        res = make_result(gt)
        recall, precision = missing_detection(res, inst)
        assert recall == 0.0
        assert precision is None

    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = 12
            gt = rng.normal(size=(n, 2))
            true_mask = rng.random(n) < 0.4
            flagged = set(int(i) for i in np.flatnonzero(rng.random(n) < 0.3))
            inst = make_instance(gt, true_mask)
            res = make_result(gt, missing_ids=flagged)
            recall, precision = missing_detection(res, inst)
            truth = set(np.flatnonzero(true_mask).tolist())
            tp = len(truth & flagged)
            assert recall == (tp / len(truth) if truth else None)
            assert precision == (tp / len(flagged) if flagged else None)
