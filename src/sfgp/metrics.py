"""Evaluation of registration results against synthetic ground truth."""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .core import FAILED_STOPS, RegistrationResult
from .synthdata import SyntheticInstance

SUBSETS = ("all", "missing", "non_missing")


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


def mean_sq_distance(
    result: RegistrationResult, instance: SyntheticInstance, subset: str = "all"
) -> Optional[float]:
    """subset_error of a registration result; failed results carry no
    geometry worth scoring and are rejected."""
    if result.stop_reason in FAILED_STOPS:
        raise ValueError("failed registrations are excluded from distance metrics")
    gt, fitted = instance.ground_truth.points, result.deformed_reference.points
    return subset_error(gt, fitted, instance.missing_mask, subset)


def flagged_missing(result: RegistrationResult) -> np.ndarray:
    """Boolean mask of the reference points a registration result declared
    missing; all False when the run ended before any correspondence."""
    flagged = np.zeros(result.deformed_reference.n, dtype=bool)
    if result.state is not None:
        flagged[result.state.missing] = True
    return flagged


def missing_detection(
    result: RegistrationResult, instance: SyntheticInstance
) -> Tuple[Optional[float], Optional[float]]:
    """detection_scores of the missing set a registration result declared."""
    return detection_scores(flagged_missing(result), instance.missing_mask)


__all__ = [
    "subset_error",
    "detection_scores",
    "mean_sq_distance",
    "flagged_missing",
    "missing_detection",
    "SUBSETS",
]
