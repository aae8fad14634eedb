"""The benchmark's three workloads: seeded input generators, the CLI
commands each workload runs, and output checks against answers the
generators know.

Every generator takes the seed as an argument and does a fixed amount of
work for any seed: sizes, counts and the number of planted candidates are
constants, only the random content changes. The program under test only
ever sees the files written here.
"""
from __future__ import annotations

import csv
import filecmp
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from talkover import synth
from talkover.audio import SAMPLE_RATE, write_wav
from talkover.labels import VOTE_LABELS, VoteRecord, write_votes_csv


class CheckFailed(Exception):
    """A command's output disagrees with the generator's known answer."""


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _require(cond, message, *args) -> None:
    if not cond:
        raise CheckFailed(message % args)


# ---------------------------------------------------------------- meeting
#
# One meeting, four channels, built on the 20 ms VAD frame grid so the
# detector sees exactly the planned segments. Speakers take turns in
# rotation; every turn starts while the previous holder is still talking
# (an overlap onset). Decoys exercise the other gates: a false start two
# seconds before some turns (itself a candidate, and it makes that turn's
# onset fail the pre-silence gate), 0.2 s backchannels (too short), and
# onsets 4 s from either end (boundary). The first turn starts in silence.

FRAME = 320                      # samples per 20 ms VAD frame
FPS = SAMPLE_RATE // FRAME       # frames per second
SPEAKERS = ("spk0", "spk1", "spk2", "spk3")
SPEECH_AMPLITUDE = 0.2

MEETING_FRAMES = 8 * 60 * FPS    # 8 minutes
_MIN_GAP = 240                   # frames between consecutive onsets
_MEAN_GAP = 280
_EDGE = 200                      # first and last onsets sit 4 s from an end

# detector gates in frames, as the CLI defaults set them
_PRESILENCE = 3 * FPS
_MIN_UTTERANCE = 15
_CLIP_HALF = 5 * FPS
_MARGIN = 5                      # planned values keep this far from a gate


def plan_meeting(seed: int, n_frames: int = MEETING_FRAMES) -> dict:
    """Per-speaker speech segments as [start, end) frame pairs."""
    rng = np.random.default_rng(seed)
    last = n_frames - _EDGE
    span = last - _EDGE
    n_gaps = span // _MEAN_GAP
    gaps = _MIN_GAP + rng.multinomial(span - _MIN_GAP * n_gaps,
                                      np.full(n_gaps, 1.0 / n_gaps))
    onsets = [50, _EDGE] + (_EDGE + np.cumsum(gaps)).tolist()
    n_turns = len(onsets)
    overlaps = rng.integers(20, 61, n_turns)

    segs = {s: [] for s in SPEAKERS}

    def speaker(turn):
        return SPEAKERS[turn % len(SPEAKERS)]

    for j, t in enumerate(onsets):
        end = onsets[j + 1] + int(overlaps[j]) if j + 1 < n_turns else n_frames - 50
        segs[speaker(j)].append([t, end])

    middle = np.arange(2, n_turns - 1)
    for j in sorted(rng.choice(middle, n_gaps // 4, replace=False).tolist()):
        segs[speaker(j)].append([onsets[j] - 100, onsets[j] - 70])

    # backchannel by the speaker two seats on, inside turn k
    for k in sorted(rng.choice(np.arange(1, n_turns - 1), n_gaps // 3,
                               replace=False).tolist()):
        who = speaker(k + 2)
        lo, hi = onsets[k] + 70, onsets[k + 1] - 130
        m = int(rng.integers(lo, hi + 1))
        prev_end = max([e for s, e in segs[who] if e <= m], default=None)
        if prev_end is not None and abs(m - prev_end - _PRESILENCE) < 2 * _MARGIN:
            m = m + 4 * _MARGIN if m + 4 * _MARGIN <= hi else m - 4 * _MARGIN
        segs[who].append([m, m + 10])

    for s in segs:
        segs[s].sort()
    return segs


def gate_oracle(segs: dict, n_frames: int):
    """The detector's gates applied to planned segments, in frames.

    Returns (candidates, rejections): candidates as sorted (speaker,
    onset frame) pairs. Raises AssertionError when a planned value sits
    within _MARGIN frames of a gate, where one frame of VAD error could
    change the answer.
    """
    candidates, rejections = [], {}
    boundaries = [(s, b) for s, ss in segs.items() for seg in ss for b in seg]
    for who, own in segs.items():
        for k, (t, end) in enumerate(own):
            assert end - t >= 8, "segment shorter than the VAD minimum"
            near = [b for s, b in boundaries if s != who and abs(b - t) <= 2]
            assert not near, "another speaker's boundary within 2 frames"
            overlap = any(s <= t < e for o, ss in segs.items() if o != who
                          for s, e in ss)
            checks = []
            if k:
                gap = t - own[k - 1][1]
                assert gap > 10, "same-speaker gap the VAD hangover would merge"
                checks.append(("presilence_too_short", gap, _PRESILENCE))
            checks.append(("utterance_too_short", end - t, _MIN_UTTERANCE))
            reason = None if overlap else "no_other_speaker"
            for name, value, gate in checks:
                assert abs(value - gate) >= _MARGIN, "%s too close to its gate" % name
                if reason is None and value < gate:
                    reason = name
            for value in (t - _CLIP_HALF, n_frames - _CLIP_HALF - t):
                assert abs(value) >= _MARGIN, "onset too close to the boundary gate"
            if reason is None and (t < _CLIP_HALF or t + _CLIP_HALF > n_frames):
                reason = "boundary"
            if reason is None:
                candidates.append((who, t))
            else:
                rejections[reason] = rejections.get(reason, 0) + 1
    return sorted(candidates), rejections


def generate_meeting(in_dir, seed: int, n_frames: int = MEETING_FRAMES) -> dict:
    """Write four PCM16 channel WAVs plus the meetings manifest; returns
    the planted answer."""
    os.makedirs(in_dir, exist_ok=True)
    segs = plan_meeting(seed, n_frames)
    candidates, rejections = gate_oracle(segs, n_frames)
    rng = np.random.default_rng([seed, 1])
    entries = []
    for who in SPEAKERS:
        x = np.zeros(n_frames * FRAME)
        for start, end in segs[who]:
            x[start * FRAME:end * FRAME] = rng.uniform(
                -SPEECH_AMPLITUDE, SPEECH_AMPLITUDE, (end - start) * FRAME)
        wav = "m0_%s.wav" % who
        write_wav(os.path.join(in_dir, wav), x, SAMPLE_RATE, "pcm16")
        entries.append({"participant_id": who, "wav_path": wav})
    _write_json(os.path.join(in_dir, "meetings.json"),
                {"meetings": [{"meeting_id": "m0", "channels": entries}]})
    return {"candidates": [[who, t / FPS] for who, t in candidates],
            "rejections": rejections}


def meeting_commands(in_dir, out_dir, seed):
    return [
        ("extract", ["--meetings", os.path.join(in_dir, "meetings.json"),
                     "--out", os.path.join(out_dir, "extract")]),
        ("featurize", ["--manifest", os.path.join(out_dir, "extract", "manifest.jsonl"),
                       "--feature", "mfcc", "--out", os.path.join(out_dir, "featurize")]),
    ]


def _check_extract(in_dir, out_dir, truth):
    path = os.path.join(out_dir, "extract", "manifest.jsonl")
    with open(path) as fh:
        got = sorted((r["interrupter_id"], r["onset_s"], r["wav_path"])
                     for r in map(json.loads, fh))
    want = sorted(tuple(c) for c in truth["candidates"])
    _require(len(got) == len(want), "extract: %d candidates, planted %d",
             len(got), len(want))
    for (who, onset, wav), (w_who, w_onset) in zip(got, want):
        _require(who == w_who and abs(onset - w_onset) <= 1.0 / FPS + 1e-9,
                 "extract: candidate (%s, %.3f) does not match planted (%s, %.3f)",
                 who, onset, w_who, w_onset)
        _require(os.path.isfile(os.path.join(out_dir, "extract", wav)),
                 "extract: clip %s missing", wav)


def _check_mfcc(in_dir, out_dir, truth):
    feat_dir = os.path.join(out_dir, "featurize")
    shapes = _read_json(os.path.join(feat_dir, "shapes.json"))
    _require(len(shapes) == len(truth["candidates"]),
             "featurize: %d feature files for %d clips",
             len(shapes), len(truth["candidates"]))
    for clip_id in shapes:
        feat = np.load(os.path.join(feat_dir, clip_id + ".npy"))
        _require(feat.shape == (80, 401), "featurize: %s has shape %s",
                 clip_id, feat.shape)
        _require(np.isfinite(feat).all(), "featurize: %s is not finite", clip_id)


# ------------------------------------------------------------- classifier
#
# Half the gen-fixtures corpus (the tiny profile's class-separable
# templates), trained for a fixed number of epochs at a learning rate
# that separates the classes within them.

CORPUS_SPLITS = (("train", 40), ("val", 10), ("test", 50))   # clips per class
EPOCHS = 8
LEARNING_RATE = 0.03
AUC_FLOOR = 0.9


def generate_classifier(in_dir, seed: int, splits=CORPUS_SPLITS) -> dict:
    synth.write_embedding_corpus(in_dir, seed, "tiny", splits)
    return {"clips": 4 * sum(n for _, n in splits),
            "train_clips": 4 * dict(splits)["train"]}


def classifier_commands(in_dir, out_dir, seed):
    manifest = os.path.join(in_dir, "manifest.jsonl")
    split = os.path.join(in_dir, "split.json")
    feats = os.path.join(out_dir, "featurize")
    common = ["--manifest", manifest, "--feature", "emb", "--profile", "tiny"]
    return [
        ("featurize", common + ["--out", feats]),
        ("train", common + ["--split", split, "--features", feats,
                            "--epochs", str(EPOCHS), "--patience", str(EPOCHS),
                            "--lr", str(LEARNING_RATE), "--seed", str(seed),
                            "--out", os.path.join(out_dir, "train")]),
        ("eval", common + ["--split", split, "--features", feats,
                           "--model-dir", os.path.join(out_dir, "train"),
                           "--calibration-split", "val",
                           "--out", os.path.join(out_dir, "eval")]),
    ]


def _check_emb(in_dir, out_dir, truth):
    feat_dir = os.path.join(out_dir, "featurize")
    shapes = _read_json(os.path.join(feat_dir, "shapes.json"))
    _require(len(shapes) == truth["clips"], "featurize: %d of %d clips",
             len(shapes), truth["clips"])
    for clip_id in shapes:
        name = clip_id + ".sie"
        _require(filecmp.cmp(os.path.join(in_dir, name), os.path.join(feat_dir, name),
                             shallow=False),
                 "featurize: %s differs from its validated input", name)


def _check_train(in_dir, out_dir, truth):
    hist = _read_json(os.path.join(out_dir, "train", "history_r0.json"))
    for key in ("train_loss", "val_loss"):
        _require(len(hist[key]) == EPOCHS, "train: %s has %d epochs, expected %d",
                 key, len(hist[key]), EPOCHS)
        _require(all(math.isfinite(v) for v in hist[key]), "train: non-finite %s", key)
    _require(hist["stopped_epoch"] == EPOCHS, "train: stopped at epoch %s",
             hist["stopped_epoch"])
    _require(os.path.isfile(os.path.join(out_dir, "train", "checkpoint_r0.bin")),
             "train: checkpoint missing")


def train_steps(out_dir, truth, batch_size: int = 32) -> int:
    """SGD steps the train command took, from its history file."""
    hist = _read_json(os.path.join(out_dir, "train", "history_r0.json"))
    return len(hist["train_loss"]) * math.ceil(truth["train_clips"] / batch_size)


def _check_eval(in_dir, out_dir, truth):
    with open(os.path.join(out_dir, "eval", "metrics.csv"), newline="") as fh:
        rows = {r[0]: r for r in csv.reader(fh)}
    auc = float(rows["0"][1])
    _require(auc >= AUC_FLOOR, "eval: test AUC %.4f below the floor %.2f", auc, AUC_FLOOR)


# ---------------------------------------------------------------- tabular
#
# A crowd-vote sheet with a known modal count per clip and a golden subset
# of unanimous clips, plus the synth telemetry with its injected effect.

N_VOTE_CLIPS = 8000
N_RATERS = 7
N_ANNOTATORS = 50
N_GOLDEN = 200
_MODAL_COUNTS = (7, 6, 5, 4, 3)
_MODAL_WEIGHTS = (0.3, 0.25, 0.2, 0.15, 0.1)
TELEMETRY_N = 30000
BOOTSTRAP_SAMPLES = 8
CONSENSUS_THRESHOLD = 0.7


def fleiss_kappa_recount(table) -> float:
    """Fleiss' kappa, written out from the textbook definition."""
    n_clips = len(table)
    n = sum(table[0])
    agree = sum((sum(c * c for c in row) - n) / (n * (n - 1)) for row in table)
    p_bar = agree / n_clips
    totals = [sum(row[j] for row in table) for j in range(len(table[0]))]
    p_e = sum((t / (n_clips * n)) ** 2 for t in totals)
    return (p_bar - p_e) / (1.0 - p_e)


def generate_votes(in_dir, seed: int, n_clips: int = N_VOTE_CLIPS) -> dict:
    os.makedirs(in_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    n_labels = len(VOTE_LABELS)
    modal = rng.choice(_MODAL_COUNTS, n_clips, p=_MODAL_WEIGHTS)
    mode = rng.integers(0, n_labels, n_clips)
    # dissenting votes land on any other label, so low modal counts can tie
    dissent = (mode[:, None] + rng.integers(1, n_labels, (n_clips, N_RATERS))) % n_labels
    raters = np.argsort(rng.random((n_clips, N_ANNOTATORS)), axis=1)[:, :N_RATERS]

    votes, table, golden, accepted = [], [], {}, 0
    for i in range(n_clips):
        clip_id = "clip_%05d" % i
        labels = [int(mode[i])] * int(modal[i]) + dissent[i, int(modal[i]):].tolist()
        counts = [labels.count(j) for j in range(n_labels)]
        top = max(counts)
        if counts.count(top) == 1 and top / N_RATERS >= CONSENSUS_THRESHOLD:
            accepted += 1
        if top == N_RATERS and len(golden) < N_GOLDEN:
            golden[clip_id] = VOTE_LABELS[int(mode[i])]
        table.append(counts)
        for a, lab in sorted(zip(raters[i].tolist(), labels)):
            votes.append(VoteRecord(clip_id, "ann_%02d" % a, VOTE_LABELS[lab]))
    write_votes_csv(os.path.join(in_dir, "votes.csv"), votes)
    _write_json(os.path.join(in_dir, "golden.json"), golden)
    return {"clips": n_clips, "accepted": accepted, "golden": len(golden),
            "kappa": fleiss_kappa_recount(table)}


def generate_tabular(in_dir, seed: int, n_clips: int = N_VOTE_CLIPS,
                     telemetry_n: int = TELEMETRY_N) -> dict:
    truth = generate_votes(in_dir, seed, n_clips)
    synth.write_telemetry_fixture(in_dir, telemetry_n, seed)
    truth["injected_effect"] = synth.INJECTED_EFFECT
    return truth


def tabular_commands(in_dir, out_dir, seed):
    votes = os.path.join(in_dir, "votes.csv")
    return [
        ("labels", ["--votes", votes, "--golden", os.path.join(in_dir, "golden.json"),
                    "--out", os.path.join(out_dir, "labels")]),
        ("kappa", ["--votes", votes, "--out", os.path.join(out_dir, "kappa")]),
        ("impact", ["--telemetry", os.path.join(in_dir, "telemetry.csv"),
                    "--bootstrap", "--bootstrap-samples", str(BOOTSTRAP_SAMPLES),
                    "--seed", str(seed), "--out", os.path.join(out_dir, "impact")]),
    ]


def _check_labels(in_dir, out_dir, truth):
    summary = _read_json(os.path.join(out_dir, "labels", "summary.json"))
    _require(summary["clips"] == truth["clips"], "labels: %d clips, generated %d",
             summary["clips"], truth["clips"])
    _require(summary["accepted"] == truth["accepted"],
             "labels: accepted %d, planted %d", summary["accepted"], truth["accepted"])
    acc = _read_json(os.path.join(out_dir, "labels", "annotator_accuracy.json"))
    rated = sum(a["total"] for a in acc.values())
    _require(rated == truth["golden"] * N_RATERS,
             "labels: %d golden votes scored, generated %d", rated,
             truth["golden"] * N_RATERS)
    _require(all(a["accuracy"] == 1.0 for a in acc.values()),
             "labels: golden clips are unanimous, yet an annotator scored below 1")


def _check_kappa(in_dir, out_dir, truth):
    got = _read_json(os.path.join(out_dir, "kappa", "kappa.json"))
    _require(got["n_clips"] == truth["clips"], "kappa: %d clips", got["n_clips"])
    _require(abs(got["kappa"] - truth["kappa"]) <= 1e-9,
             "kappa: %.12f, recount gives %.12f", got["kappa"], truth["kappa"])


def _check_impact(in_dir, out_dir, truth):
    report = _read_json(os.path.join(out_dir, "impact", "report.json"))
    effect = truth["injected_effect"]
    _require(abs(report["delta"] - effect) < abs(report["naive_delta"] - effect),
             "impact: delta %.4f is no closer to the injected %.4f than naive %.4f",
             report["delta"], effect, report["naive_delta"])
    _require(report.get("bootstrap_samples_used") == BOOTSTRAP_SAMPLES,
             "impact: %s of %d bootstrap resamples used",
             report.get("bootstrap_samples_used"), BOOTSTRAP_SAMPLES)


# --------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable      # (in_dir, seed) -> truth
    commands: Callable      # (in_dir, out_dir, seed) -> [(command, argv)]
    checks: dict            # command -> check(in_dir, out_dir, truth)
    train_steps: Callable | None = None   # (out_dir, truth) -> SGD steps

    def verify(self, command: str, in_dir, out_dir, truth) -> str | None:
        """None if the command's outputs match truth, else what is wrong."""
        try:
            self.checks[command](in_dir, out_dir, truth)
        except CheckFailed as exc:
            return str(exc)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return "%s: unreadable output: %r" % (command, exc)
        return None


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "meeting": Workload(
        "meeting",
        generate_meeting, meeting_commands,
        {"extract": _check_extract, "featurize": _check_mfcc}),
    "classifier": Workload(
        "classifier",
        generate_classifier, classifier_commands,
        {"featurize": _check_emb, "train": _check_train, "eval": _check_eval},
        train_steps),
    "tabular": Workload(
        "tabular",
        generate_tabular, tabular_commands,
        {"labels": _check_labels, "kappa": _check_kappa, "impact": _check_impact}),
}
