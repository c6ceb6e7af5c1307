import numpy as np
import pytest

from sfgp.core import FAILED_STOPS, CorrespondenceState, RegistrationResult
from sfgp.metrics import (
    SCORE_FIELDS, mean_sq_distance, missing_detection, score_run,
)
from sfgp.synthdata import PerturbationSpec, SyntheticInstance

from helpers import pointset


def make_result(deformed_pts, missing_ids=(), n_ref=None, failed=False):
    n = len(deformed_pts) if n_ref is None else n_ref
    labelled = np.ones(n, dtype=bool)
    labelled[list(missing_ids)] = False
    state = CorrespondenceState(
        P=np.zeros((n, 1)),
        nu=np.zeros(n),
        ps=np.zeros((n, np.shape(deformed_pts)[1])),
        pss=np.zeros(n),
        labelled=labelled,
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
        with pytest.raises(ValueError, match="'first_iteration' has no scores"):
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

    def test_failed_result_rejected(self):
        # a failed run has no scores: not recall 0 from its empty flagged set
        inst = make_instance([[0.0, 0.0], [1.0, 0.0]], [True, False])
        res = make_result([[0.0, 0.0], [1.0, 0.0]], failed=True)
        with pytest.raises(ValueError, match="'first_iteration' has no scores"):
            missing_detection(res, inst)

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


class TestScoreRun:
    def test_scored_run_matches_the_result_wrappers(self):
        rng = np.random.default_rng(11)
        gt = rng.normal(size=(12, 2))
        fitted = gt + rng.normal(scale=0.1, size=(12, 2))
        mask = rng.random(12) < 0.4
        inst = make_instance(gt, mask)
        res = make_result(fitted, missing_ids=[0, 3, 5])
        scores = score_run(res.stop_reason, lambda: (
            gt, mask, fitted, ~res.state.labelled))
        recall, precision = missing_detection(res, inst)
        assert scores == {
            "error_all": mean_sq_distance(res, inst, "all"),
            "error_missing": mean_sq_distance(res, inst, "missing"),
            "error_nonmissing": mean_sq_distance(res, inst, "non_missing"),
            "success": 1, "recall": recall, "precision": precision,
        }
        assert tuple(scores) == SCORE_FIELDS

    @pytest.mark.parametrize("stop_reason", [*FAILED_STOPS, "NumericalError"])
    def test_failed_run_has_no_scores_and_reads_no_arrays(self, stop_reason):
        def arrays():
            raise AssertionError("a failed run's arrays were read")

        scores = score_run(stop_reason, arrays)
        assert scores == {**dict.fromkeys(SCORE_FIELDS), "success": 0}
        assert tuple(scores) == SCORE_FIELDS
