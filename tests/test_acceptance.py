"""Release gates. One test per guarantee the package makes; each prints
a single line with the measured value next to its tolerance so a log
scan shows exactly where the margins are.
"""
import csv
import itertools
import math
import time

import numpy as np
import pytest

from conftest import run_cli, tree_digest
from talkover import model as model_mod
from talkover.audio import AudioChannel, MeetingAudio
from talkover.causal import (estimate_impact, filter_eligible, fit_propensity,
                             naive_difference, stratify)
from talkover.features import EmbeddingProfile, LayeredEmbedding, mfcc, spectrogram
from talkover.labels import Votes, aggregate_all, fleiss_kappa
from talkover.metrics import (Scores, roc_auc, thresholded_confusion,
                              tpr_at_fpr)
from talkover.model import (CLASSES, FeatureSpec, TrainConfig, attention_pool,
                            build_model, cross_entropy, forward_batch, train)
from talkover.overlap import detect
from talkover.synth import INJECTED_EFFECT, make_telemetry

POSITIVE = "failed_interruption"


# ------------------------------------------------- attention pooling oracle

def _pool_by_hand(H, w):
    """Scalar-loop transcription of softmax frame pooling, kept free of
    vectorized code so it cannot share a bug with the library."""
    d, M = H.shape
    scores = [sum(w[i] * H[i, m] for i in range(d)) for m in range(M)]
    shift = max(scores)
    exps = [math.exp(s - shift) for s in scores]
    total = sum(exps)
    alphas = [e / total for e in exps]
    return np.array([sum(alphas[m] * H[i, m] for m in range(M)) for i in range(d)])


def test_pooling_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 17))
        M = int(rng.integers(1, 33))
        H = rng.normal(0.0, 1.0, (d, M))
        w = rng.normal(0.0, 1.0, d)
        got = attention_pool(H, w)
        want = _pool_by_hand(H, w)
        rel = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30)
        worst = max(worst, rel)
    assert worst < 1e-10

    # single frame passes through untouched, a zero template averages
    for _ in range(10):
        H1 = rng.normal(0.0, 1.0, (6, 1))
        np.testing.assert_array_equal(
            attention_pool(H1, rng.normal(0.0, 1.0, 6)), H1[:, 0])
        H = rng.normal(0.0, 1.0, (6, 9))
        np.testing.assert_array_equal(
            attention_pool(H, np.zeros(6)), H @ np.full(9, 1.0 / 9.0))

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print("PASS pooling oracle: max rel err %.3g over 1000 cases (tol 1e-10), "
          "identities exact, %.2f s" % (worst, elapsed))


# ------------------------------------------- gradients vs finite differences

_KINK_MARGIN = 5e-3  # keep the probe batch away from activation kinks
_FD_EPS = 1e-4


def _draw_fd_case(rng):
    C = 2
    L = int(rng.integers(2, 5))
    d0 = int(rng.integers(2, 6))
    frames = int(rng.integers(2, 8))
    channels = "right" if rng.random() < 0.3 else "2"
    widths = (int(rng.integers(3, 8)), int(rng.integers(3, 8)), 4)
    profile = EmbeddingProfile("fd", L, d0, frames, C)
    spec = FeatureSpec("emb", C * d0, frames, "fd", channels, L)
    model = build_model(spec, rng, widths)
    model.params["pooler_w"] = rng.normal(0.0, 0.5, C * d0)
    model.params["layer_logits"] = rng.normal(0.0, 0.5, L)
    for _ in range(50):
        batch = [
            LayeredEmbedding(
                rng.normal(0.0, 1.0, (C, L, d0, frames)).astype(np.float32), profile)
            for _ in range(3)
        ]
        _, _, _, zs, _, _ = model_mod._forward_pass(model, batch)
        if min(float(np.min(np.abs(z))) for z in zs) >= _KINK_MARGIN:
            return model, batch
    raise RuntimeError("could not draw a batch clear of activation kinks")


def _fd_worst_rel_err(model, batch, labels):
    grads = model_mod._loss_and_grads(model, batch, labels)[1]
    assert list(grads) == list(model.params)
    y = np.asarray(labels)

    def loss():
        return cross_entropy(forward_batch(model, batch), y)

    worst = 0.0
    for name, arr in model.params.items():
        flat_g = np.asarray(grads[name]).ravel()
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + _FD_EPS
            lp = loss()
            arr.flat[i] = orig - _FD_EPS
            lm = loss()
            arr.flat[i] = orig
            fd = (lp - lm) / (2.0 * _FD_EPS)
            rel = abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-8)
            worst = max(worst, rel)
    return worst


def test_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model, batch = _draw_fd_case(rng)
        labels = [int(rng.integers(0, 4)) for _ in range(3)]
        worst = max(worst, _fd_worst_rel_err(model, batch, labels))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 60.0
    print("PASS gradient check: max rel err %.3g over 20 configs "
          "(eps 1e-4, tol 1e-4), %.1f s" % (worst, elapsed))


# ----------------------------------------------------------- training sanity

def test_training_learns_what_it_should():
    t0 = time.perf_counter()

    rng = np.random.default_rng(0)
    one = [(rng.normal(0.0, 1.0, (16, 4)), 2)]
    res = train(one, TrainConfig(learning_rate=0.5, batch_size=1, epochs=200,
                                 seed=0, patience=10**9))
    overfit_loss = res.train_loss[-1]
    assert overfit_loss < 0.01
    assert res.stopped_epoch <= 200

    rng = np.random.default_rng(1)
    means = rng.normal(0.0, 1.0, (4, 16))
    means = 6.0 * means / np.linalg.norm(means, axis=1, keepdims=True)
    blobs = []
    for i in range(400):
        c = i % 4
        blobs.append(((means[c] + rng.normal(0.0, 1.0, 16)).reshape(16, 1), c))
    res = train(blobs, TrainConfig(learning_rate=0.0015, batch_size=32,
                                   epochs=50, seed=0, patience=10**9))
    probs = forward_batch(res.model, [b[0] for b in blobs])
    acc = float(np.mean(np.argmax(probs, axis=1) == np.array([b[1] for b in blobs])))
    assert acc >= 0.99
    assert res.stopped_epoch <= 50

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("PASS training sanity: overfit-one loss %.3g (tol 0.01), "
          "separable accuracy %.3f (tol 0.99), %.1f s" % (overfit_loss, acc, elapsed))


# ------------------------------------------------------- end-to-end pipeline

def test_pipeline_separates_failed_interruptions(tmp_path):
    t0 = time.perf_counter()
    fix = tmp_path / "fixtures"
    assert run_cli(["gen-fixtures", "--out", fix, "--telemetry-n", 500]) == 0

    emb = fix / "embeddings"
    feat = tmp_path / "features"
    assert run_cli(["featurize", "--manifest", emb / "manifest.jsonl",
                    "--feature", "emb", "--profile", "tiny", "--out", feat]) == 0

    model_out = tmp_path / "model"
    assert run_cli(["train", "--manifest", emb / "manifest.jsonl",
                    "--split", emb / "split.json", "--features", feat,
                    "--feature", "emb", "--profile", "tiny",
                    "--out", model_out]) == 0

    eval_out = tmp_path / "eval"
    assert run_cli(["eval", "--manifest", emb / "manifest.jsonl",
                    "--split", emb / "split.json", "--features", feat,
                    "--feature", "emb", "--profile", "tiny",
                    "--model-dir", model_out, "--out", eval_out]) == 0

    with open(eval_out / "metrics.csv", newline="") as fh:
        rows = {r[0]: r for r in csv.reader(fh)}
    auc = float(rows["0"][1])
    tpr = float(rows["0"][2])
    elapsed = time.perf_counter() - t0
    assert auc >= 0.95
    assert tpr >= 0.5
    assert elapsed < 600.0
    print("PASS pipeline: held-out auc %.4f (tol 0.95), tpr at 1%% fpr %.2f "
          "(tol 0.5), %.0f s" % (auc, tpr, elapsed))


# ------------------------------------------------------- ranking metric oracles

def _graded(clip_id, true_label, score):
    r = (1.0 - score) / 3.0
    return clip_id, true_label, (r, score, r, r)


def _off_class(clip_id, true_label, argmax_idx, failed_score):
    rest = (0.5 - failed_score) / 2.0
    p = [rest] * 4
    p[argmax_idx] = 0.5
    p[1] = failed_score
    return clip_id, true_label, tuple(p)


def _scores(rows):
    """Scores from (clip_id, true_label, probs) rows."""
    clip_ids, labels, probs = zip(*rows)
    return Scores(clip_ids, [CLASSES.index(x) for x in labels], probs)


def _rows(samples):
    """(true_label, probs) per sample, for the scalar oracles."""
    return [(CLASSES[i], tuple(p)) for i, p in zip(samples.labels, samples.probs)]


def _brute_force_auc(samples):
    pos = [p[1] for label, p in _rows(samples) if label == POSITIVE]
    neg = [p[1] for label, p in _rows(samples) if label != POSITIVE]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def _thousand_sample_set():
    """1000 clips, 250 per class, built so the confusion table and the
    operating point are known in closed form."""
    emitted = {"backchannel": 6, "failed_interruption": 131, "interruption": 1,
               "laughter": 0}
    below = {"backchannel": 6, "failed_interruption": 46, "interruption": 8,
             "laughter": 0}
    off = {  # true label -> argmax counts over the other classes
        "backchannel": {0: 219, 2: 8, 3: 11},
        "failed_interruption": {0: 47, 2: 19, 3: 7},
        "interruption": {0: 9, 2: 225, 3: 7},
        "laughter": {0: 37, 2: 1, 3: 212},
    }
    samples = []
    k = 0
    for label, n in emitted.items():
        for _ in range(n):
            samples.append(_graded("s%04d" % len(samples), label,
                                   0.52 + 0.0005 * k))
            k += 1
    k = 0
    for label, n in below.items():
        for i in range(n):
            # one negative sits at 0.50 so the 1% bar fails there and the
            # calibration has to step up to 0.52
            score = 0.50 if (label == "backchannel" and i == n - 1) else \
                0.30 + 0.002 * k
            samples.append(_graded("s%04d" % len(samples), label, score))
            k += 1
    k = 0
    for label, argmaxes in off.items():
        for idx, n in argmaxes.items():
            for _ in range(n):
                samples.append(_off_class("s%04d" % len(samples), label, idx,
                                          0.05 + 0.0002 * k))
                k += 1
    assert len(samples) == 1000
    return _scores(samples)


def test_ranking_metrics_match_oracles():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(20, 501))
        labels = ["backchannel"] * (n // 2) + [POSITIVE] * (n - n // 2)
        samples = _scores([_graded("c%d" % i, labels[i], float(rng.integers(0, 25)) / 24.0)
                           for i in range(n)])
        assert roc_auc(samples, POSITIVE) == _brute_force_auc(samples)

    hand = [_graded("p%d" % i, POSITIVE, s) for i, s in enumerate((0.9, 0.6, 0.35))]
    hand += [_graded("n%d" % i, "laughter", s) for i, s in enumerate((0.8, 0.3, 0.2))]
    assert roc_auc(_scores(hand), POSITIVE) == 7.0 / 9.0

    samples = _thousand_sample_set()
    tpr, tau = tpr_at_fpr(samples, POSITIVE, 0.01)
    assert tau == 0.52
    assert tpr == 131 / 250
    false_hits = sum(1 for label, p in _rows(samples)
                     if label != POSITIVE
                     and int(np.argmax(p)) == 1 and p[1] >= tau)
    assert false_hits == 7  # realized fpr 7/750, just under the 1% bar

    confusion = thresholded_confusion(samples, tau, POSITIVE).matrix
    expected = np.array([[219, 6, 8, 11, 6],
                         [47, 131, 19, 7, 46],
                         [9, 1, 225, 7, 8],
                         [37, 0, 1, 212, 0]])
    assert np.array_equal(confusion, expected)
    assert confusion.sum(axis=1).tolist() == [250, 250, 250, 250]
    print("PASS ranking oracles: pairwise agreement exact on 100 sets, "
          "hand case 7/9, operating point tau=%.2f fpr=%d/750" % (tau, false_hits))


# -------------------------------------------------------------- feature shapes

def test_feature_shapes_and_tone_location():
    rate = 16000
    t = np.arange(160000) / rate
    tone = 0.3 * np.sin(2.0 * np.pi * 1000.0 * t)
    clip = np.stack([np.zeros(160000), tone], axis=1)

    cepstra = mfcc(clip)
    spec = spectrogram(clip)
    assert cepstra.shape == (80, 401)
    assert spec.shape == (514, 313)

    right = spec[257:, :]
    peaks = np.argmax(right[:, 4:-4], axis=0)
    assert np.all(np.abs(peaks - 32) <= 1)
    print("PASS feature shapes: mfcc %s, spectrogram %s, 1 kHz tone peaks "
          "at bin %d..%d (expect 32 +-1)"
          % (cepstra.shape, spec.shape, peaks.min(), peaks.max()))


# ---------------------------------------------------------- overlap gate audit

def _random_segment_lists(rng, duration, n_channels=3):
    lists = []
    for _ in range(n_channels):
        segs = []
        t = float(rng.uniform(0.0, 3.0))
        while True:
            dur = float(rng.uniform(0.1, 4.0))
            if t + dur > duration:
                break
            segs.append((t, t + dur))
            t = t + dur + float(rng.uniform(0.3, 6.0))
        lists.append(segs)
    return lists


def test_gating_has_no_violations_and_tightens_monotonically():
    duration = 40.0
    rate = 16000
    channels = tuple(AudioChannel(np.zeros(int(duration * rate)), rate, "p%d" % i)
                     for i in range(3))
    meeting = MeetingAudio(channels, "audit")

    rng = np.random.default_rng(7)
    total_emitted = 0
    for case in range(200):
        segs = _random_segment_lists(rng, duration)
        result = detect(meeting, segs)
        emitted = {(c.interrupter_id, c.onset_s) for c in result.candidates}

        expected = set()
        n_onsets = 0
        for i, own in enumerate(segs):
            others = [s for j, sl in enumerate(segs) if j != i for s in sl]
            for k, seg in enumerate(own):
                n_onsets += 1
                t = seg[0]
                overlapped = any(o[0] <= t < o[1] for o in others)
                rested = k == 0 or t - own[k - 1][1] >= 3.0
                long_enough = seg[1] - seg[0] >= 0.3
                in_bounds = t >= 5.0 and t + 5.0 <= duration
                if overlapped and rested and long_enough and in_bounds:
                    expected.add(("p%d" % i, t))
        assert emitted == expected, "case %d" % case
        assert len(result.candidates) + sum(result.rejections.values()) == n_onsets
        total_emitted += len(emitted)

        for tightened in (detect(meeting, segs, min_presilence_s=4.0),
                          detect(meeting, segs, min_utterance_s=0.8)):
            subset = {(c.interrupter_id, c.onset_s) for c in tightened.candidates}
            assert subset <= emitted, "case %d" % case

    assert total_emitted > 50  # the audit is only meaningful if gates pass often
    print("PASS gate audit: 200 random layouts, %d clips emitted, zero "
          "violations, tightening only removes" % total_emitted)


# -------------------------------------------------- consensus and agreement

def _kappa_by_hand(table):
    table = np.asarray(table, dtype=np.float64)
    N, _ = table.shape
    n = table[0].sum()
    p_j = table.sum(axis=0) / (N * n)
    p_i = [(sum(c * c for c in row) - n) / (n * (n - 1)) for row in table]
    p_bar = sum(p_i) / N
    p_e = sum(p * p for p in p_j)
    return (p_bar - p_e) / (1.0 - p_e)


def test_consensus_thresholds_and_agreement_oracle():
    for winners, accepted in ((5, True), (4, False)):
        labels = ["laughter"] * winners + ["other"] * (7 - winners)
        for perm in set(itertools.permutations(labels)):
            votes = Votes.from_rows(("c", "ann_%d" % i, lab)
                                    for i, lab in enumerate(perm))
            res = aggregate_all(votes)[0]
            assert res.accepted is accepted
            if accepted:
                assert res.label == "laughter"

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(2, 40))
        kcat = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        table = np.array([rng.multinomial(n, np.ones(kcat) / kcat)
                          for _ in range(N)])
        if np.count_nonzero(table.sum(axis=0)) == 1:
            j = int(np.nonzero(table.sum(axis=0))[0][0])
            table[0, j] -= 1
            table[0, (j + 1) % kcat] += 1
        worst = max(worst, abs(fleiss_kappa(table) - _kappa_by_hand(table)))
    assert worst <= 1e-12

    unanimous = np.array([[7, 0, 0], [0, 7, 0], [7, 0, 0], [0, 0, 7]])
    assert fleiss_kappa(unanimous) == 1.0
    print("PASS consensus: 5-of-7 accepted and 4-of-7 rejected under every "
          "vote order, agreement worst diff %.2g (tol 1e-12), unanimity "
          "exactly 1" % worst)


# ------------------------------------------------------- confounding recovery

def test_stratification_recovers_injected_effect():
    t0 = time.perf_counter()
    deltas5, deltas10, naives = [], [], []
    covered = 0
    for seed in range(100):
        records = make_telemetry(50000, seed)
        eligible, _ = filter_eligible(records)
        model = fit_propensity(eligible)
        est5 = estimate_impact(eligible, stratify(eligible, model, 5))
        est10 = estimate_impact(eligible, stratify(eligible, model, 10))
        deltas5.append(est5.delta)
        deltas10.append(est10.delta)
        naives.append(naive_difference(eligible))
        lo, hi = est5.ci95
        covered += int(lo <= INJECTED_EFFECT <= hi)

    naive_bias = float(np.mean(naives)) - INJECTED_EFFECT
    residual = abs(float(np.mean(deltas5)) - INJECTED_EFFECT)
    removal = 1.0 - residual / naive_bias
    bin_gap = abs(float(np.mean(deltas5)) - float(np.mean(deltas10)))
    elapsed = time.perf_counter() - t0

    assert covered >= 90
    assert removal >= 0.90
    assert bin_gap < 0.005
    assert elapsed < 120.0
    print("PASS causal recovery: coverage %d/100 (tol 90), bias removal "
          "%.1f%% (tol 90%%), 5-vs-10-bin gap %.2f points (tol 0.5), %.0f s"
          % (covered, 100 * removal, 100 * bin_gap, elapsed))


# --------------------------------------------------------- deterministic CLI

def test_every_command_reruns_byte_identical(tmp_path):
    def rerun(argv, out):
        assert run_cli(argv) == 0
        first = tree_digest(out)
        assert run_cli(argv) == 0
        assert tree_digest(out) == first, argv[0]

    fix = tmp_path / "fixtures"
    rerun(["gen-fixtures", "--out", fix, "--telemetry-n", 2000], fix)

    out = tmp_path / "extract"
    rerun(["extract", "--meetings", fix / "audio" / "meetings.json",
           "--out", out], out)

    emb = fix / "embeddings"
    feat = tmp_path / "features"
    rerun(["featurize", "--manifest", emb / "manifest.jsonl", "--feature", "emb",
           "--profile", "tiny", "--out", feat], feat)

    model_out = tmp_path / "model"
    rerun(["train", "--manifest", emb / "manifest.jsonl", "--split",
           emb / "split.json", "--features", feat, "--feature", "emb",
           "--profile", "tiny", "--epochs", 2, "--out", model_out], model_out)

    eval_out = tmp_path / "eval"
    rerun(["eval", "--manifest", emb / "manifest.jsonl", "--split",
           emb / "split.json", "--features", feat, "--feature", "emb",
           "--profile", "tiny", "--model-dir", model_out, "--split-name", "val",
           "--out", eval_out], eval_out)

    labels_out = tmp_path / "labels"
    rerun(["labels", "--votes", fix / "votes" / "votes.csv", "--golden",
           fix / "votes" / "golden.json", "--out", labels_out], labels_out)

    kappa_out = tmp_path / "kappa"
    rerun(["kappa", "--votes", fix / "votes" / "votes.csv", "--out", kappa_out],
          kappa_out)

    impact_out = tmp_path / "impact"
    rerun(["impact", "--telemetry", fix / "telemetry" / "telemetry.csv",
           "--out", impact_out], impact_out)

    print("PASS deterministic reruns: all 8 commands byte-identical on rerun")
