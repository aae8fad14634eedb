"""Evaluation metrics: one-vs-rest AUC, TPR at a target false-positive
rate, and the thresholded confusion matrix with a below-threshold column.

The positive class of interest is failed_interruption throughout the
shipped tooling, but every function takes the class name explicitly.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistributionError, MetricError
from .textio import write_csv
from .vocab import CLASSES

BELOW_THRESHOLD = "below_threshold"


@dataclass(frozen=True, eq=False)
class Scores:
    """Scored clips as columns: clip_ids[i] has the true class
    CLASSES[labels[i]] and the class probabilities probs[i]."""

    clip_ids: np.ndarray
    labels: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        clip_ids = np.asarray(self.clip_ids, dtype=str)
        labels = np.asarray(self.labels)
        probs = np.asarray(self.probs, dtype=np.float64)
        n = len(clip_ids)
        if labels.shape != (n,) or probs.shape != (n, len(CLASSES)):
            raise MetricError("need one label and %d probs per clip" % len(CLASSES))
        unknown = ~np.isin(labels, np.arange(len(CLASSES)))
        if unknown.any():
            i = np.argmax(unknown)
            raise MetricError("%s has unknown class %s" % (clip_ids[i], labels[i]))
        finite = np.isfinite(probs).all(axis=1)
        if not finite.all():
            raise MetricError("probs of %s are not finite" % clip_ids[np.argmin(finite)])
        sums = probs.sum(axis=1)
        off = np.abs(sums - 1.0) > 1e-6
        if off.any():
            i = np.argmax(off)
            raise MetricError("probs of %s sum to %g, not 1" % (clip_ids[i], sums[i]))
        object.__setattr__(self, "clip_ids", clip_ids)
        object.__setattr__(self, "labels", labels.astype(np.int64))
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return len(self.clip_ids)


def _scores_and_truth(samples: Scores, positive_class: str):
    if positive_class not in CLASSES:
        raise MetricError("unknown class %r" % positive_class)
    idx = CLASSES.index(positive_class)
    return samples.probs[:, idx], samples.labels == idx, idx


def _argmax_is(samples: Scores, idx: int) -> np.ndarray:
    """Whether each sample's most probable class is CLASSES[idx]."""
    return np.argmax(samples.probs, axis=1) == idx


def _rates(emitted: np.ndarray, truth: np.ndarray):
    """(TPR, FPR) of the emitted mask against the truth mask."""
    n_pos = int(truth.sum())
    n_neg = len(truth) - n_pos
    tpr = float((emitted & truth).sum()) / n_pos if n_pos else 0.0
    fpr = float((emitted & ~truth).sum()) / n_neg if n_neg else 0.0
    return tpr, fpr


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; each run of tied values gets the mean of the
    ranks it spans."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(x)]  # exclusive
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(samples, positive_class: str) -> float:
    """One-vs-rest AUC by the rank method; ties contribute 0.5.

    Equals the brute-force count of concordant pairs divided by the
    number of positive-negative pairs.
    """
    scores, truth, _ = _scores_and_truth(samples, positive_class)
    n_pos = int(truth.sum())
    n_neg = len(samples) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateDistributionError(
            "AUC needs both classes; got %d positives, %d negatives" % (n_pos, n_neg))
    ranks = _average_ranks(scores)
    return float((ranks[truth].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def tpr_at_fpr(samples, positive_class: str, target_fpr: float = 0.01):
    """Pick the smallest observed-score threshold whose FPR is within
    target, then report TPR there. Returns (tpr, threshold).

    FPR counts a false positive only for emitted predictions (argmax =
    positive class and score >= threshold). If even the largest score
    overshoots the target, the threshold is +inf and TPR is 0.
    """
    if not 0 < target_fpr < 1:
        raise MetricError("target_fpr must be in (0, 1)")
    scores, truth, idx = _scores_and_truth(samples, positive_class)
    n_pos = int(truth.sum())
    n_neg = len(samples) - n_pos
    if n_neg == 0:
        raise DegenerateDistributionError("no negatives; FPR undefined")
    if n_neg < math.ceil(1.0 / target_fpr):
        warnings.warn(
            "only %d negatives for a %.4g FPR target; the realized FPR is "
            "coarse" % (n_neg, target_fpr), stacklevel=2)

    argmax_is_pos = _argmax_is(samples, idx)
    # False positives at threshold u are the emitted negatives scoring
    # >= u; that count only falls as u rises, so the feasible thresholds
    # form an upper run of the sorted distinct scores.
    neg_scores = np.sort(scores[argmax_is_pos & ~truth])
    candidates = np.unique(scores)
    fp = len(neg_scores) - np.searchsorted(neg_scores, candidates, side="left")
    feasible = np.flatnonzero(fp / n_neg <= target_fpr)
    if len(feasible) == 0:
        return 0.0, float("inf")
    best = candidates[feasible[0]]
    return _rates(argmax_is_pos & (scores >= best), truth)[0], float(best)


def tpr_fpr_at_threshold(samples, positive_class: str, tau: float):
    """TPR and realized FPR at a given threshold, under the emission rule
    of tpr_at_fpr: argmax = positive class and score >= tau. Returns
    (tpr, fpr); a rate whose denominator class is absent is 0."""
    scores, truth, idx = _scores_and_truth(samples, positive_class)
    return _rates(_argmax_is(samples, idx) & (scores >= tau), truth)


@dataclass(frozen=True, eq=False)
class ThresholdedConfusion:
    """Counts by true class (rows, CLASSES order) and prediction
    (CLASSES, then BELOW_THRESHOLD), a (4, 5) int64 array."""

    matrix: np.ndarray


def thresholded_confusion(samples, tau: float, positive_class: str = "failed_interruption") -> ThresholdedConfusion:
    """Confusion counts with the below-threshold column: a prediction
    whose argmax is the positive class but whose score falls under tau
    lands in the extra column instead."""
    scores, _, pos_idx = _scores_and_truth(samples, positive_class)
    pred = np.argmax(samples.probs, axis=1)
    column = np.where((pred == pos_idx) & (scores < tau), len(CLASSES), pred)
    width = len(CLASSES) + 1
    counts = np.bincount(samples.labels * width + column, minlength=len(CLASSES) * width)
    return ThresholdedConfusion(counts.reshape(len(CLASSES), width))


def per_class_report(confusion: ThresholdedConfusion) -> dict:
    """Precision and recall per class from the thresholded confusion.

    The below-threshold column never counts as a predicted positive;
    recall denominators are full row sums. Empty denominators give 0.
    """
    mat = confusion.matrix
    report = {}
    for i, name in enumerate(CLASSES):
        col = int(mat[:, i].sum())
        row = int(mat[i, :].sum())
        report[name] = {
            "precision": mat[i, i] / col if col else 0.0,
            "recall": mat[i, i] / row if row else 0.0,
            "support": row,
        }
    return report


def roc_points(samples, positive_class: str):
    """Score-ranked ROC curve as (fpr, tpr, threshold) rows, threshold
    descending from +inf; consistent with roc_auc, not with the
    emission rule of tpr_at_fpr."""
    scores, truth, _ = _scores_and_truth(samples, positive_class)
    n_pos = int(truth.sum())
    n_neg = len(samples) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateDistributionError("ROC needs both classes")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    hits = truth[order]
    # a vertex after the last sample of each tied score group
    last = np.r_[ranked[1:] != ranked[:-1], True]
    fpr = np.cumsum(~hits)[last] / n_neg
    tpr = np.cumsum(hits)[last] / n_pos
    return [(0.0, 0.0, float("inf"))] + list(zip(fpr.tolist(), tpr.tolist(),
                                                ranked[last].tolist()))


def write_roc_csv(path, points) -> None:
    write_csv(path, ["fpr", "tpr", "threshold"],
              (["%.10g" % v for v in point] for point in points))


def write_confusion_csv(path, confusion: ThresholdedConfusion) -> None:
    write_csv(path, ["true_label"] + list(CLASSES) + [BELOW_THRESHOLD],
              ([name] + row for name, row in zip(CLASSES, confusion.matrix.tolist())))


def write_report_csv(path, report: dict) -> None:
    write_csv(path, ["class", "precision", "recall", "support"],
              ([name, "%.10g" % report[name]["precision"], "%.10g" % report[name]["recall"],
                report[name]["support"]] for name in CLASSES))
