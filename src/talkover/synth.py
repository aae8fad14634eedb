"""Seeded synthetic fixtures: a small multi-speaker meeting with
engineered overlaps, a class-separable embedding corpus, a crowd-vote
sheet, and confounded meeting telemetry with a known injected effect.

Everything here is deterministic given the seed, so pipelines built on
these fixtures can be checked byte-for-byte.
"""
from __future__ import annotations

import os

import numpy as np

from .audio import SAMPLE_RATE, write_wav
from .causal import Telemetry, _sigmoid, write_telemetry_csv
from .features import PROFILES, LayeredEmbedding, write_embeddings
from .labels import VOTE_LABELS, VoteRecord, write_votes_csv
from .manifest import ClipRecord, write_manifest, write_split
from .textio import write_json
from .vocab import CLASSES

SPEECH_AMPLITUDE = 0.2  # about -19 dBFS RMS, far above the VAD threshold

# One meeting, three speakers, four engineered overlap onsets: two pass
# every gate, one utterance is too short, one follows too little
# silence. All other onsets start in silence and are not overlaps.
_MEETING_DURATION_S = 110.0
_MEETING_SEGMENTS = {
    "alice": [(20.0, 30.0), (70.0, 80.0)],
    "bob": [(5.0, 8.0), (25.0, 26.5), (50.0, 60.0), (71.2, 71.44), (74.0, 75.0)],
    "carol": [(40.0, 42.0), (55.0, 55.6), (90.0, 100.0)],
}
EXPECTED_CANDIDATE_ONSETS = {("bob", 25.0), ("carol", 55.0)}


def make_meeting_audio(seed: int = 0):
    """Channel waveforms for the engineered meeting, keyed by speaker."""
    rng = np.random.default_rng(seed)
    n = int(_MEETING_DURATION_S * SAMPLE_RATE)
    channels = {}
    for speaker in sorted(_MEETING_SEGMENTS):
        x = np.zeros(n)
        for start_s, end_s in _MEETING_SEGMENTS[speaker]:
            lo = int(round(start_s * SAMPLE_RATE))
            hi = int(round(end_s * SAMPLE_RATE))
            x[lo:hi] = rng.uniform(-SPEECH_AMPLITUDE, SPEECH_AMPLITUDE, hi - lo)
        channels[speaker] = x
    return channels


def write_meeting_fixture(out_dir, seed: int = 0) -> str:
    """Write per-speaker WAVs plus the meetings manifest; returns the
    manifest path. WAV paths inside are relative to the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    channels = make_meeting_audio(seed)
    entries = []
    for speaker, samples in channels.items():
        wav_name = "m0_%s.wav" % speaker
        write_wav(os.path.join(out_dir, wav_name), samples, SAMPLE_RATE, "pcm16")
        entries.append({"participant_id": speaker, "wav_path": wav_name})
    manifest = {"meetings": [{"meeting_id": "m0", "channels": entries}]}
    path = os.path.join(out_dir, "meetings.json")
    write_json(path, manifest)
    return path


# Embedding corpus: each class owns a per-layer template; middle layers
# carry most of the class signal so the learned layer weights have
# something to find. Per-sample jitter controls class overlap and the
# per-frame noise averages out under pooling.
_LAYER_GAINS = {
    "tiny": np.array([0.2, 0.6, 1.5, 1.1, 0.3]),
    "base": np.linspace(0.3, 1.2, 13),
    "large": np.linspace(0.3, 1.2, 25),
}
_SAMPLE_JITTER = 2.0
_FRAME_NOISE = 6.0

CORPUS_SPLITS = (("train", 80), ("val", 20), ("test", 100))


def _class_templates(rng, profile):
    gains = _LAYER_GAINS[profile.name]
    return {
        label: gains[None, :, None]
        * rng.normal(size=(profile.channels, profile.layers, profile.dim))
        for label in CLASSES
    }


def sample_embedding(rng, profile, template) -> LayeredEmbedding:
    base = template + rng.normal(0.0, _SAMPLE_JITTER, template.shape)
    frames = rng.normal(0.0, _FRAME_NOISE,
                        template.shape + (profile.frames,))
    data = (base[..., None] + frames).astype(np.float32)
    return LayeredEmbedding(data, profile)


def write_embedding_corpus(out_dir, seed: int = 0, profile_name: str = "tiny",
                           splits=CORPUS_SPLITS):
    """Labeled SIE1 corpus with a train/val/test split; returns
    (manifest_path, split_path)."""
    os.makedirs(out_dir, exist_ok=True)
    profile = PROFILES[profile_name]
    rng = np.random.default_rng(seed)
    templates = _class_templates(rng, profile)

    records = []
    split = {name: [] for name, _ in splits}
    for split_name, per_class in splits:
        for label in CLASSES:
            for i in range(per_class):
                clip_id = "emb_%s_%s_%04d" % (split_name, label, i)
                emb = sample_embedding(rng, profile, templates[label])
                sie_name = clip_id + ".sie"
                write_embeddings(os.path.join(out_dir, sie_name), emb)
                # no audio behind synthetic embeddings; wav_path carries
                # the container file instead
                records.append(ClipRecord(clip_id, "synthetic", "synthetic",
                                          5.0, sie_name, label=label))
                split[split_name].append(clip_id)

    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    split_path = os.path.join(out_dir, "split.json")
    write_manifest(manifest_path, records)
    write_split(split_path, split)
    return manifest_path, split_path


# Vote sheet: 24 clips with fixed agreement patterns. (votes_for_mode,
# n_clips); the remaining votes scatter over other labels.
_VOTE_PATTERNS = ((7, 10), (6, 4), (5, 6), (4, 4))
N_ANNOTATORS = 7
GOLDEN_COUNT = 6


def write_votes_fixture(out_dir, seed: int = 0):
    """votes.csv plus golden.json (known labels for a golden subset);
    returns (votes_path, golden_path)."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    annotators = ["ann_%d" % (i + 1) for i in range(N_ANNOTATORS)]

    votes = []
    golden = {}
    clip_index = 0
    for modal_votes, n_clips in _VOTE_PATTERNS:
        for _ in range(n_clips):
            clip_id = "vote_%04d" % clip_index
            mode = VOTE_LABELS[clip_index % len(VOTE_LABELS)]
            dissent = next(l for l in VOTE_LABELS if l != mode)
            labels = [mode] * modal_votes + [dissent] * (N_ANNOTATORS - modal_votes)
            order = rng.permutation(N_ANNOTATORS)
            for a, label in zip(order, labels):
                votes.append(VoteRecord(clip_id, annotators[a], label))
            if modal_votes == N_ANNOTATORS and len(golden) < GOLDEN_COUNT:
                golden[clip_id] = mode
            clip_index += 1

    votes.sort(key=lambda v: (v.clip_id, v.annotator_id))
    votes_path = os.path.join(out_dir, "votes.csv")
    golden_path = os.path.join(out_dir, "golden.json")
    write_votes_csv(votes_path, votes)
    write_json(golden_path, golden)
    return votes_path, golden_path


# Telemetry: larger meetings with video/screenshare run longer and both
# raise hands more and score as inclusive more often, so the naive
# treated-vs-control difference overstates the injected effect by well
# over 2 points.
INJECTED_EFFECT = 0.034


def make_telemetry(n: int = 50000, seed: int = 0,
                   effect: float = INJECTED_EFFECT) -> Telemetry:
    rng = np.random.default_rng(seed)
    size = 2 + rng.poisson(3.5, n)
    dur = np.exp(rng.normal(3.2, 0.5, n))
    # a constant column (n == 1, say) has spread 0; as in causal, z is then 0
    z_size = (size - size.mean()) / (size.std() or 1.0)
    z_dur = (dur - dur.mean()) / (dur.std() or 1.0)

    video = rng.random(n) < _sigmoid(0.2 + 0.6 * z_dur)
    share = rng.random(n) < _sigmoid(-0.5 + 0.7 * z_size)

    propensity = _sigmoid(-1.2 + 0.9 * z_size + 0.5 * z_dur
                          + 0.4 * video + 0.3 * share)
    treated = rng.random(n) < propensity

    base = 0.32 + 0.20 * _sigmoid(1.0 * z_size + 0.7 * z_dur
                                  + 0.5 * video + 0.3 * share)
    p = base + effect * treated  # bounded in (0.32, 0.52 + effect); no clipping
    outcome = rng.random(n) < p

    ids = ["mtg_%06d" % i for i in range(n)]
    return Telemetry(ids, size, dur, video, share, treated, outcome)


def write_telemetry_fixture(out_dir, n: int = 50000, seed: int = 0,
                            effect: float = INJECTED_EFFECT):
    """telemetry.csv plus truth.json recording the injected effect;
    returns (csv_path, truth_path)."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "telemetry.csv")
    write_telemetry_csv(csv_path, make_telemetry(n, seed, effect))
    truth_path = os.path.join(out_dir, "truth.json")
    write_json(truth_path, {"injected_effect": effect, "n": n, "seed": seed})
    return csv_path, truth_path


def write_all_fixtures(out_dir, seed: int = 0, profile_name: str = "tiny",
                       telemetry_n: int = 50000) -> dict:
    """Everything gen-fixtures produces, in fixed subdirectories."""
    paths = {"meetings": write_meeting_fixture(os.path.join(out_dir, "audio"), seed)}
    paths["embedding_manifest"], paths["embedding_split"] = write_embedding_corpus(
        os.path.join(out_dir, "embeddings"), seed, profile_name)
    paths["votes"], paths["golden"] = write_votes_fixture(os.path.join(out_dir, "votes"), seed)
    paths["telemetry"], paths["telemetry_truth"] = write_telemetry_fixture(
        os.path.join(out_dir, "telemetry"), telemetry_n, seed)
    return paths
