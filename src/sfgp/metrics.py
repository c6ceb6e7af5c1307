"""Evaluation of registration results against synthetic ground truth.

`score_run` builds every row's score columns, for `sweep`, `eval` and the
acceptance suite; a run that did not stop `converged` or at `max_iters` has
none.  `mean_sq_distance` and `missing_detection` score a RegistrationResult
with the same code and reject a failed one."""
from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .core import FAILED_STOPS, STOP_REASONS, RegistrationResult
from .synthdata import SyntheticInstance

SUBSETS = ("all", "missing", "non_missing")

# in the order of the sweep's metrics.csv columns
SCORE_FIELDS = ("error_all", "error_missing", "error_nonmissing", "success", "recall", "precision")


def subset_error(
    ground_truth: np.ndarray, fitted: np.ndarray, missing_mask: np.ndarray, subset: str = "all"
) -> Optional[float]:
    """Mean squared point-to-point error of index-aligned (N, d) arrays over
    the reference subset chosen by the true missing mask.

    Returns None when the subset is empty (absent, never zero).
    """
    if subset not in SUBSETS:
        raise ValueError(f"subset must be one of {SUBSETS}")
    if ground_truth.shape != fitted.shape:
        raise ValueError("result and ground truth are not index-aligned")
    if subset == "all":
        mask = np.ones(ground_truth.shape[0], dtype=bool)
    elif subset == "missing":
        mask = missing_mask
    else:
        mask = ~missing_mask
    if not np.any(mask):
        return None
    return float(np.mean(np.sum((ground_truth[mask] - fitted[mask]) ** 2, axis=1)))


def detection_scores(
    flagged: np.ndarray, true_missing: np.ndarray
) -> Tuple[Optional[float], Optional[float]]:
    """(recall, precision) of a boolean flagged-missing mask against the true one.

    Recall is None when nothing is truly missing; precision is None when
    nothing was flagged.
    """
    hit = int(np.sum(flagged & true_missing))
    n_true, n_flagged = int(np.sum(true_missing)), int(np.sum(flagged))
    recall = hit / n_true if n_true else None
    precision = hit / n_flagged if n_flagged else None
    return recall, precision


def _scored(stop_reason: str) -> bool:
    return stop_reason in STOP_REASONS and stop_reason not in FAILED_STOPS


def score_run(stop_reason: str, arrays: Callable[[], tuple]) -> dict:
    """The SCORE_FIELDS of a run that ended with `stop_reason`: one of
    STOP_REASONS, or the class name of the error the run raised.  A scored
    run's come from `arrays()`, (ground truth, true missing mask, fitted
    points, flagged mask), which is called for no other run."""
    if not _scored(stop_reason):
        return {**dict.fromkeys(SCORE_FIELDS), "success": 0}
    gt, true_missing, fitted, flagged = arrays()
    errors = [subset_error(gt, fitted, true_missing, s) for s in SUBSETS]
    return dict(zip(SCORE_FIELDS, (*errors, 1, *detection_scores(flagged, true_missing))))


def _check_scored(result: RegistrationResult) -> None:
    if not _scored(result.stop_reason):
        raise ValueError(f"a registration that stopped {result.stop_reason!r} has no scores")


def mean_sq_distance(
    result: RegistrationResult, instance: SyntheticInstance, subset: str = "all"
) -> Optional[float]:
    """subset_error of a scored registration result."""
    _check_scored(result)
    gt, fitted = instance.ground_truth.points, result.deformed_reference.points
    return subset_error(gt, fitted, instance.missing_mask, subset)


def missing_detection(
    result: RegistrationResult, instance: SyntheticInstance
) -> Tuple[Optional[float], Optional[float]]:
    """detection_scores of the missing set a scored registration result declared."""
    _check_scored(result)
    return detection_scores(~result.state.labelled, instance.missing_mask)


__all__ = [
    "subset_error",
    "detection_scores",
    "score_run",
    "mean_sq_distance",
    "missing_detection",
    "SUBSETS",
    "SCORE_FIELDS",
]
