import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from talkover import metrics
from talkover.errors import DegenerateDistributionError, MetricError
from talkover.metrics import (Scores, per_class_report,
                              roc_auc, roc_points, thresholded_confusion,
                              tpr_at_fpr,
                              write_confusion_csv, write_report_csv,
                              write_roc_csv)
from talkover.model import CLASSES

POS = "failed_interruption"
POS_IDX = CLASSES.index(POS)


def sample(label, failed_score, argmax_failed=None, clip_id="c"):
    """A 4-class prob vector with the failed-class score pinned.

    argmax_failed=False puts the bulk of the mass on another class;
    that shape is only honest for scores under 0.5, and the failed
    argmax needs a score over 0.25, hence the default split.
    """
    if argmax_failed is None:
        argmax_failed = failed_score > 0.25
    rest = 1.0 - failed_score
    if argmax_failed:
        probs = [rest / 3.0] * 4
        probs[POS_IDX] = failed_score
    else:
        probs = [0.0, failed_score, 0.0, 0.0]
        probs[0] = rest
    return clip_id, label, tuple(probs)


def scores(samples):
    """Scores from sample() rows, in order."""
    clip_ids, labels, probs = zip(*samples)
    return Scores(clip_ids, [CLASSES.index(x) for x in labels], probs)


def rows(samples):
    """(true_label, probs) per clip of a Scores, for per-sample oracles."""
    return [(CLASSES[i], tuple(p))
            for i, p in zip(samples.labels.tolist(), samples.probs.tolist())]


def two_class(pos_scores, neg_scores):
    out = [sample(POS, s, clip_id="p%d" % i) for i, s in enumerate(pos_scores)]
    out += [sample("laughter", s, clip_id="n%d" % i) for i, s in enumerate(neg_scores)]
    return scores(out)


def brute_force_auc(samples, positive_class):
    idx = CLASSES.index(positive_class)
    pos = [p[idx] for label, p in rows(samples) if label == positive_class]
    neg = [p[idx] for label, p in rows(samples) if label != positive_class]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_scored_sample_validation():
    flat = (0.25, 0.25, 0.25, 0.25)
    for label in (4, -1, 1.5):
        with pytest.raises(MetricError, match="b has unknown class %s" % label):
            Scores(["a", "b"], [0, label], [flat, flat])
    with pytest.raises(MetricError, match="a has unknown class laughter"):
        Scores(["a"], ["laughter"], [flat])  # labels are class indices
    with pytest.raises(MetricError):
        Scores(["c"], [POS_IDX], [(0.5, 0.5)])
    with pytest.raises(MetricError):
        Scores(["c", "d"], [POS_IDX], [flat, flat])
    with pytest.raises(MetricError, match="probs of d sum to 2"):
        Scores(["c", "d"], [POS_IDX] * 2, [flat, (0.5, 0.5, 0.5, 0.5)])
    with pytest.raises(MetricError, match="probs of d are not finite"):
        Scores(["c", "d"], [POS_IDX] * 2, [flat, (math.nan, 0.5, 0.25, 0.25)])
    # every metric that takes a class name rejects an unknown one
    valid = two_class([0.9], [0.1])
    for metric in (lambda c: roc_auc(valid, c), lambda c: tpr_at_fpr(valid, c),
                   lambda c: roc_points(valid, c),
                   lambda c: thresholded_confusion(valid, 0.5, c)):
        with pytest.raises(MetricError, match="unknown class 'nope'"):
            metric("nope")


def test_auc_hand_case_is_seven_ninths():
    samples = two_class([0.9, 0.6, 0.35], [0.8, 0.3, 0.2])
    assert roc_auc(samples, POS) == 7.0 / 9.0


def test_auc_perfect_and_inverted():
    samples = two_class([0.8, 0.9], [0.1, 0.2])
    assert roc_auc(samples, POS) == 1.0
    samples = two_class([0.1, 0.2], [0.8, 0.9])
    assert roc_auc(samples, POS) == 0.0


def test_auc_all_tied_is_half():
    samples = two_class([0.5, 0.5], [0.5, 0.5, 0.5])
    assert roc_auc(samples, POS) == 0.5


def test_auc_needs_both_classes():
    with pytest.raises(DegenerateDistributionError):
        roc_auc(scores([sample(POS, 0.9)]), POS)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_auc_equals_brute_force_with_ties(seed):
    rng = np.random.default_rng(seed)
    n_pos = int(rng.integers(1, 30))
    n_neg = int(rng.integers(1, 30))
    # coarse score grid to force plenty of ties
    grid = np.linspace(0.05, 0.95, 7)
    samples = two_class(rng.choice(grid, n_pos), rng.choice(grid, n_neg))
    assert roc_auc(samples, POS) == brute_force_auc(samples, POS)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    pos = rng.choice(np.linspace(0.1, 0.9, 9), 12)
    neg = rng.choice(np.linspace(0.1, 0.9, 9), 15)
    base = roc_auc(two_class(pos, neg), POS)
    squashed = roc_auc(two_class(pos ** 2, neg ** 2), POS)
    assert base == squashed


def ladder_samples():
    """60 positives on an ascending score ladder, 40 argmax-failed
    negatives strictly below them."""
    pos = [0.50 + 0.005 * i for i in range(60)]
    neg = [0.26 + 0.003 * i for i in range(40)]
    return two_class(pos, neg)


def loop_tpr_at_fpr(samples, positive_class, target_fpr):
    """Quadratic reference: rescan every sample at each distinct score,
    ascending, and stop at the first threshold within target."""
    idx = CLASSES.index(positive_class)
    score = np.array([p[idx] for _, p in rows(samples)])
    truth = np.array([label == positive_class for label, _ in rows(samples)])
    n_pos = int(truth.sum())
    n_neg = len(samples) - n_pos
    argmax_is_pos = np.array([int(np.argmax(p)) == idx for _, p in rows(samples)])
    for tau in sorted(set(score.tolist())):
        emitted = argmax_is_pos & (score >= tau)
        if float((emitted & ~truth).sum()) / n_neg <= target_fpr:
            tpr = float((emitted & truth).sum()) / n_pos if n_pos else 0.0
            return tpr, float(tau)
    return 0.0, float("inf")


def coarse_samples(rng, n):
    """Probabilities from small integer weights: few distinct scores and
    frequent argmax ties."""
    weights = rng.integers(0, 4, size=(n, len(CLASSES)))
    weights[weights.sum(axis=1) == 0, 0] = 1
    probs = weights / weights.sum(axis=1, keepdims=True)
    labels = rng.integers(0, len(CLASSES), n)
    labels[0] = CLASSES.index("laughter")  # FPR needs at least one negative
    return Scores(["s%d" % i for i in range(n)], labels, probs)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       target=st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5]))
def test_tpr_at_fpr_equals_loop_oracle_with_ties(seed, target):
    # about a quarter of these draws admit no threshold: (0.0, inf)
    rng = np.random.default_rng(seed)
    samples = coarse_samples(rng, int(rng.integers(1, 80)))
    n_neg = int(np.sum(samples.labels != POS_IDX))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = tpr_at_fpr(samples, POS, target)
    assert got == loop_tpr_at_fpr(samples, POS, target)
    scarce = n_neg < math.ceil(1.0 / target)
    assert any("negatives" in str(w.message) for w in caught) == scarce


def test_tpr_at_fpr_clean_separation():
    with pytest.warns(UserWarning):
        tpr, tau = tpr_at_fpr(ladder_samples(), POS, 0.01)
    assert tpr == 1.0
    assert tau == 0.50  # smallest feasible observed score


def test_tpr_at_fpr_monotone_in_target():
    rng = np.random.default_rng(0)
    samples = two_class(rng.uniform(0.3, 0.9, 80), rng.uniform(0.1, 0.7, 200))
    last = -1.0
    for target in (0.01, 0.05, 0.1, 0.3, 0.6):
        tpr, _ = tpr_at_fpr(samples, POS, target)
        assert tpr >= last
        last = tpr


def test_tpr_at_fpr_counts_only_emitted_false_positives():
    # n1 outscores the threshold but its argmax is another class, so it
    # is never emitted; a score-ranked FPR would have blocked tau=0.1
    samples = scores([sample(POS, 0.6, clip_id="p"),
                      sample("laughter", 0.4, argmax_failed=False, clip_id="n1"),
                      sample("laughter", 0.1, argmax_failed=False, clip_id="n2")])
    with pytest.warns(UserWarning):
        tpr, tau = tpr_at_fpr(samples, POS, 0.01)
    assert (tpr, tau) == (1.0, 0.1)


def test_tpr_at_fpr_infeasible_returns_zero_inf():
    samples = scores([sample(POS, 0.7, clip_id="p"),
                      sample("laughter", 0.7, clip_id="n")])
    with pytest.warns(UserWarning):
        tpr, tau = tpr_at_fpr(samples, POS, 0.01)
    assert tpr == 0.0 and tau == math.inf


def test_tpr_at_fpr_warns_when_negatives_are_scarce():
    samples = two_class([0.9] * 5, [0.1] * 50)
    with pytest.warns(UserWarning, match="negatives"):
        tpr_at_fpr(samples, POS, 0.01)


def test_tpr_at_fpr_validates_target():
    with pytest.raises(MetricError):
        tpr_at_fpr(ladder_samples(), POS, 0.0)
    with pytest.raises(MetricError):
        tpr_at_fpr(ladder_samples(), POS, 1.0)


def confusion_rates(samples, positive_class, tau):
    """(TPR, realized FPR) at tau as eval reads them: the positive
    class's recall and FPR in the report of the thresholded confusion."""
    report = per_class_report(thresholded_confusion(samples, tau, positive_class))
    return report[positive_class]["recall"], report[positive_class]["fpr"]


def loop_rates_at_threshold(samples, positive_class, tau):
    """Per-sample reference for the rates at a given threshold, under
    the emission rule of tpr_at_fpr: argmax = positive class and
    score >= tau."""
    idx = CLASSES.index(positive_class)
    truth = np.array([label == positive_class for label, _ in rows(samples)])
    emitted = np.array([int(np.argmax(p)) == idx and p[idx] >= tau
                        for _, p in rows(samples)])
    n_pos = int(truth.sum())
    n_neg = len(samples) - n_pos
    tpr = float((emitted & truth).sum()) / n_pos if n_pos else 0.0
    fpr = float((emitted & ~truth).sum()) / n_neg if n_neg else 0.0
    return tpr, fpr


def test_confusion_rates_hand_case():
    # p3 and n1 never argmax to the positive class, so no threshold emits them
    listed = [sample(POS, 0.6, clip_id="p1"),
              sample(POS, 0.3, clip_id="p2"),
              sample(POS, 0.2, argmax_failed=False, clip_id="p3"),
              sample("laughter", 0.4, argmax_failed=False, clip_id="n1"),
              sample("laughter", 0.5, clip_id="n2")]
    samples = scores(listed)
    assert confusion_rates(samples, POS, 0.3) == (2 / 3, 0.5)
    assert confusion_rates(samples, POS, 0.5) == (1 / 3, 0.5)
    assert confusion_rates(samples, POS, 0.55) == (1 / 3, 0.0)
    assert confusion_rates(samples, POS, 0.0) == (2 / 3, 0.5)
    assert confusion_rates(samples, POS, math.inf) == (0.0, 0.0)
    # an absent class gives a zero rate, not a division error
    assert confusion_rates(scores(listed[:3]), POS, 0.3) == (2 / 3, 0.0)
    assert confusion_rates(scores(listed[3:]), POS, 0.3) == (0.0, 0.5)
    with pytest.raises(MetricError, match="unknown class 'shouting'"):
        thresholded_confusion(samples, 0.3, "shouting")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       target=st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5]))
def test_confusion_rates_match_loop_and_calibration(seed, target):
    rng = np.random.default_rng(seed)
    samples = coarse_samples(rng, int(rng.integers(1, 80)))
    for tau in sorted(set(samples.probs[:, POS_IDX].tolist())) + [math.inf]:
        assert (confusion_rates(samples, POS, tau)
                == loop_rates_at_threshold(samples, POS, tau))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tpr, tau = tpr_at_fpr(samples, POS, target)
    got_tpr, got_fpr = confusion_rates(samples, POS, tau)
    assert got_tpr == tpr
    assert got_fpr <= target


def loop_thresholded_confusion(samples, tau, positive_class):
    """Per-sample reference for the thresholded confusion counts."""
    pos_idx = CLASSES.index(positive_class)
    mat = np.zeros((len(CLASSES), len(CLASSES) + 1), dtype=np.int64)
    for label, p in rows(samples):
        pred = int(np.argmax(p))
        if pred == pos_idx and p[pos_idx] < tau:
            mat[CLASSES.index(label), len(CLASSES)] += 1
        else:
            mat[CLASSES.index(label), pred] += 1
    return mat


def loop_roc_points(samples, positive_class):
    """Per-sample reference for the ROC vertices: walk the samples by
    descending score, one vertex after each tied group."""
    idx = CLASSES.index(positive_class)
    score = np.array([p[idx] for _, p in rows(samples)])
    truth = np.array([label == positive_class for label, _ in rows(samples)])
    n_pos = int(truth.sum())
    n_neg = len(samples) - n_pos
    order = np.argsort(-score, kind="stable")
    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    for k, i in enumerate(order):
        if truth[i]:
            tp += 1
        else:
            fp += 1
        if k + 1 < len(order) and score[order[k + 1]] == score[i]:
            continue
        points.append((fp / n_neg, tp / n_pos, float(score[i])))
    return points


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), positive=st.sampled_from(CLASSES))
def test_confusion_and_roc_equal_loop_oracles(seed, positive):
    rng = np.random.default_rng(seed)
    samples = coarse_samples(rng, int(rng.integers(1, 80)))
    observed = samples.probs[:, CLASSES.index(positive)].tolist()
    for tau in sorted(set(observed)) + [0.0, math.inf]:
        got = thresholded_confusion(samples, tau, positive).matrix
        assert np.array_equal(got, loop_thresholded_confusion(samples, tau, positive))
    n_pos = int(np.sum(samples.labels == CLASSES.index(positive)))
    if 0 < n_pos < len(samples):
        assert roc_points(samples, positive) == loop_roc_points(samples, positive)


def test_confusion_counts_and_rows():
    rng = np.random.default_rng(1)
    samples = []
    for i in range(120):
        label = CLASSES[int(rng.integers(0, 4))]
        samples.append(sample(label, float(rng.uniform(0.05, 0.95)),
                              argmax_failed=bool(rng.random() < 0.5),
                              clip_id="s%d" % i))
    conf = thresholded_confusion(scores(samples), 0.5, POS)
    assert conf.matrix.sum() == 120
    mat = conf.matrix
    for i, cls in enumerate(CLASSES):
        assert mat[i].sum() == sum(1 for s in samples if s[1] == cls)


def test_confusion_routes_below_threshold():
    samples = scores([sample(POS, 0.6, clip_id="a"),       # emitted
                      sample(POS, 0.4, clip_id="b"),       # argmax failed, under tau
                      sample("laughter", 0.1, argmax_failed=False, clip_id="c")])
    mat = thresholded_confusion(samples, 0.5, POS).matrix
    assert mat[POS_IDX, POS_IDX] == 1
    assert mat[POS_IDX, len(CLASSES)] == 1
    # the non-failed argmax sample lands in its argmax column (backchannel)
    assert mat[CLASSES.index("laughter"), 0] == 1


def test_per_class_report_zero_denominators():
    samples = scores([sample(POS, 0.9, clip_id="a"), sample(POS, 0.8, clip_id="b")])
    conf = thresholded_confusion(samples, 0.95, POS)
    report = per_class_report(conf)
    # both predictions fell below threshold: precision and recall are 0
    assert report[POS]["precision"] == 0.0
    assert report[POS]["recall"] == 0.0
    assert report[POS]["support"] == 2
    assert report[POS]["fpr"] == 0.0  # no negatives
    assert report["laughter"]["support"] == 0
    assert report["laughter"]["recall"] == 0.0


def test_roc_points_shape_and_consistency():
    rng = np.random.default_rng(2)
    grid = np.linspace(0.1, 0.9, 9)
    samples = two_class(rng.choice(grid, 40), rng.choice(grid, 60))
    points = roc_points(samples, POS)
    assert points[0] == (0.0, 0.0, math.inf)
    assert points[-1][0] == 1.0 and points[-1][1] == 1.0
    fprs = [p[0] for p in points]
    tprs = [p[1] for p in points]
    thrs = [p[2] for p in points]
    assert fprs == sorted(fprs)
    assert tprs == sorted(tprs)
    assert thrs == sorted(thrs, reverse=True)
    assert len(set(thrs)) == len(thrs)
    # trapezoid area under the vertex curve is the rank AUC
    area = float(np.trapezoid(tprs, fprs))
    assert math.isclose(area, roc_auc(samples, POS), rel_tol=0, abs_tol=1e-12)


def test_csv_writers(tmp_path):
    samples = ladder_samples()
    _, tau = tpr_at_fpr(samples, POS, 0.05)  # 40 negatives suffice here
    conf = thresholded_confusion(samples, tau, POS)

    conf_path = tmp_path / "confusion.csv"
    write_confusion_csv(conf_path, conf)
    rows = list(csv.reader(conf_path.read_text().splitlines()))
    assert rows[0] == ["true_label"] + list(CLASSES) + ["below_threshold"]
    assert len(rows) == 5
    assert sum(int(x) for row in rows[1:] for x in row[1:]) == conf.matrix.sum()

    report_path = tmp_path / "report.csv"
    write_report_csv(report_path, per_class_report(conf))
    rows = list(csv.reader(report_path.read_text().splitlines()))
    assert rows[0] == ["class", "precision", "recall", "support"]
    assert [r[0] for r in rows[1:]] == list(CLASSES)

    roc_path = tmp_path / "roc.csv"
    write_roc_csv(roc_path, roc_points(samples, POS))
    rows = list(csv.reader(roc_path.read_text().splitlines()))
    assert rows[0] == ["fpr", "tpr", "threshold"]
    assert rows[1] == ["0", "0", "inf"]
