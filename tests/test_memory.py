"""Peak memory of train and eval grows with one clip, not with the split:
training and inference read each clip from its SIE1 or .npy file and
pool it alone, and a training step keeps only its batch's float64 H
and the pooled results. labels and kappa hold votes as code columns,
not one object per vote, and impact holds telemetry as columns that
own their data. Each command runs in a child process, and its
peak RSS is the ru_maxrss that os.wait4 reports for that child alone.
Clips are cut, written, read and featurized in buffers allocated once,
so what each clip allocates on top of them is traced in-process with
tracemalloc, which sees numpy's array data."""
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from talkover.audio import SAMPLE_RATE, MeetingAudio, load_wav, write_wav
from talkover.causal import TELEMETRY_COLUMNS, read_telemetry_csv, write_telemetry_csv
from talkover.features import MfccScratch, SpectrogramScratch, mfcc, spectrogram
from talkover.labels import VOTE_LABELS, VoteRecord, write_votes_csv
from talkover.manifest import ClipRecord, load_clip, write_manifest, write_split
from talkover.overlap import CLIP_DURATION_S, export_clip
from talkover.synth import make_telemetry
from talkover.vocab import CLASSES

SRC = Path(__file__).resolve().parents[1] / "src"
TINY_BATCH_MIB = 32 * 2 * 5 * 32 * 249 * 4 / 2 ** 20  # 32 tiny clips, 9.7 MiB
MFCC_BATCH_MIB = 32 * 80 * 401 * 8 / 2 ** 20  # 32 MFCC-shaped f64 clips, 7.8 MiB
# from 7,000 to 112,000 votes, labels --golden and kappa grew 34.6 and
# 30.8 MiB with a VoteRecord per vote, and grow 8.0 and 6.1 MiB as columns
VOTES_GROWTH_MIB = 18.0

CLIP_ROWS = int(CLIP_DURATION_S * SAMPLE_RATE)
F64_CLIP_BYTES = CLIP_ROWS * 2 * 8  # 2.56 MB
# small blocks that numpy's and Python's caches keep from one clip to the
# next, about 1 KiB over 8 clips; the smallest per-clip array, a PCM16
# channel window, is 320 KB
CACHED_BYTES = 16 * 1024

# A child's ru_maxrss starts at its parent's peak RSS at spawn, which for
# a test process can exceed the CLI's own peak. So a fresh small process
# spawns the CLI, waits for it, and prints its exit code and ru_maxrss.
LAUNCHER = (
    "import os, subprocess, sys\n"
    "with open(sys.argv[1], 'wb') as log:\n"
    "    proc = subprocess.Popen(sys.argv[2:], stdin=subprocess.DEVNULL, stdout=log,\n"
    "                            stderr=subprocess.STDOUT)\n"
    "    _, status, usage = os.wait4(proc.pid, 0)\n"
    "proc.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(proc.returncode, usage.ru_maxrss)\n"
)


def peak_rss_mib(argv, log_path):
    """Run the CLI in a child; returns its peak RSS in MiB."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", LAUNCHER, str(log_path), sys.executable,
                           "-m", "talkover.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, check=True)
    code, max_rss_kib = map(int, done.stdout.split())
    assert code == 0, Path(log_path).read_text()
    return max_rss_kib / 1024


def test_train_and_eval_peak_rss_does_not_grow_with_the_split(fixtures_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    full = json.loads((emb / "split.json").read_text())
    # every class keeps its share; train keeps 40 clips, so that a
    # training step pools 32 clips at both sizes
    small = {"train": full["train"][::8], "val": full["val"][::2], "test": full["test"][::10]}
    common = ["--manifest", emb / "manifest.jsonl", "--features", emb,
              "--feature", "emb", "--profile", "tiny"]
    peaks = {}
    for size, split in (("small", small), ("full", full)):
        split_path = tmp_path / ("%s.json" % size)
        split_path.write_text(json.dumps(split))
        model = tmp_path / ("model_" + size)
        peaks["train", size] = peak_rss_mib(
            ["train", *common, "--split", split_path, "--epochs", 2, "--out", model],
            tmp_path / ("train_%s.log" % size))
        peaks["eval", size] = peak_rss_mib(
            ["eval", *common, "--split", split_path, "--model-dir", tmp_path / "model_small",
             "--out", tmp_path / ("eval_" + size)],
            tmp_path / ("eval_%s.log" % size))
    for command, names in (("train", ("train", "val")), ("eval", ("test",))):
        clips = [sum(len(split[name]) for name in names) for split in (small, full)]
        assert clips[1] - clips[0] >= 120
        growth = peaks[command, "full"] - peaks[command, "small"]
        assert growth < TINY_BATCH_MIB, (
            "%s peak grew %.1f MiB from %d to %d clips" % (command, growth, *clips))


def test_eval_peak_rss_on_npy_features_does_not_grow_with_the_split(tmp_path):
    # each .npy clip is checked when the split is read and read again, by
    # offset, when it is pooled; 16 distinct MFCC-shaped matrices are
    # hard-linked under every clip id, so the corpus stays small on disk
    rng = np.random.default_rng(33)
    sources = tmp_path / "sources"
    sources.mkdir()
    for k in range(16):
        np.save(sources / ("%d.npy" % k), rng.normal(k % 4, 1.0, (80, 401)))
    peaks = {}
    for n in (200, 800):
        corpus = tmp_path / ("corpus_%d" % n)
        corpus.mkdir()
        records, split = [], {"train": [], "test": []}
        for name, count in (("train", 8), ("test", n)):
            for i in range(count):
                clip_id = "%s_%04d" % (name, i)
                os.link(sources / ("%d.npy" % (i % 16)), corpus / (clip_id + ".npy"))
                records.append(ClipRecord(clip_id, "m0", "p0", 5.0, clip_id + ".wav",
                                          CLASSES[i % 4]))
                split[name].append(clip_id)
        write_manifest(corpus / "manifest.jsonl", records)
        write_split(corpus / "split.json", split)
        common = ["--manifest", corpus / "manifest.jsonl", "--split", corpus / "split.json",
                  "--features", corpus, "--feature", "mfcc"]
        model = tmp_path / "model"
        if n == 200:
            peak_rss_mib(["train", *common, "--epochs", 1, "--out", model],
                         tmp_path / "train.log")
        peaks[n] = peak_rss_mib(["eval", *common, "--model-dir", model, "--threshold", 0.5,
                                 "--out", tmp_path / ("eval_%d" % n)],
                                tmp_path / ("eval_%d.log" % n))
    growth = peaks[800] - peaks[200]
    assert growth < MFCC_BATCH_MIB, "eval peak grew %.1f MiB from 200 to 800 clips" % growth


def test_labels_and_kappa_peak_rss_grows_slower_than_per_vote_objects(tmp_path):
    # 7 votes on each clip from a pool of 20 annotators
    rng = np.random.default_rng(5)
    peaks = {}
    for n_clips in (1000, 16000):
        votes_dir = tmp_path / ("votes_%d" % n_clips)
        votes_dir.mkdir()
        raters = np.argsort(rng.random((n_clips, 20)), axis=1)[:, :7]
        labels = rng.integers(0, len(VOTE_LABELS), (n_clips, 7))
        write_votes_csv(votes_dir / "votes.csv", [
            VoteRecord("clip_%05d" % c, "ann_%02d" % a, VOTE_LABELS[lab])
            for c in range(n_clips)
            for a, lab in zip(raters[c].tolist(), labels[c].tolist())])
        (votes_dir / "golden.json").write_text(json.dumps(
            {"clip_%05d" % c: "other" for c in range(0, n_clips, 20)}))
        for command, extra in (("labels", ["--golden", votes_dir / "golden.json"]),
                               ("kappa", [])):
            peaks[command, n_clips] = peak_rss_mib(
                [command, "--votes", votes_dir / "votes.csv", *extra,
                 "--out", tmp_path / ("%s_%d" % (command, n_clips))],
                tmp_path / ("%s_%d.log" % (command, n_clips)))
    for command in ("labels", "kappa"):
        growth = peaks[command, 16000] - peaks[command, 1000]
        assert growth < VOTES_GROWTH_MIB, (
            "%s peak grew %.1f MiB from 7,000 to 112,000 votes" % (command, growth))


def test_telemetry_read_from_csv_holds_columns_that_own_their_data(tmp_path):
    # a column kept as a strided view of the parsed rows keeps all of them
    # alive; impact's peak RSS on 30k meetings grew 1.9 MiB that way
    telemetry = make_telemetry(n=300, seed=6)
    telemetry = dataclasses.replace(telemetry, extras={
        "a": np.linspace(0.0, 1.0, 300), "b": np.arange(300.0)})
    write_telemetry_csv(tmp_path / "telemetry.csv", telemetry)
    telemetry = read_telemetry_csv(tmp_path / "telemetry.csv")
    columns = {name: getattr(telemetry, name) for name in TELEMETRY_COLUMNS}
    columns.update(telemetry.extras)
    assert list(telemetry.extras) == ["a", "b"]
    for name, column in columns.items():
        assert column.flags.c_contiguous and column.flags.owndata, name


def traced_peak(step, items):
    """The tracemalloc peak, in bytes, of step over items."""
    tracemalloc.start()
    try:
        for item in items:
            step(item)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pcm16_meeting(tmp_path, seconds=40.0):
    rng = np.random.default_rng(8)
    channels = []
    for pid in ("a", "b", "c", "d"):
        path = tmp_path / (pid + ".wav")
        write_wav(path, rng.uniform(-0.4, 0.4, int(seconds * SAMPLE_RATE)), encoding="pcm16")
        channels.append(load_wav(path, pid))
    return MeetingAudio.from_channels(channels, "m")


def clip_rows(meeting, n):
    ids = [ch.participant_id for ch in meeting.channels]
    return [ClipRecord("m_%d" % k, "m", ids[k % len(ids)], 5.0 + 3.0 * k, "m_%d.wav" % k)
            for k in range(n)]


def test_cutting_and_writing_clips_allocates_no_clip_per_clip(tmp_path):
    meeting = pcm16_meeting(tmp_path)
    clip = np.empty((CLIP_ROWS, 2), dtype=np.float32)

    def cut(rec):
        export_clip(rec, meeting, out=clip)
        write_wav(tmp_path / rec.wav_path, clip, SAMPLE_RATE, "float32")

    rows = clip_rows(meeting, 8)
    cut(rows[0])
    peaks = [traced_peak(cut, rows[:n]) for n in (2, 8)]
    assert peaks[1] <= peaks[0] + CACHED_BYTES, (
        "8 clips peaked at %d bytes, 2 at %d" % (peaks[1], peaks[0]))
    assert peaks[1] < F64_CLIP_BYTES


@pytest.mark.parametrize("extract, scratch",
                         [(mfcc, MfccScratch), (spectrogram, SpectrogramScratch)])
def test_reading_and_featurizing_clips_allocates_no_clip_per_clip(tmp_path, extract, scratch):
    meeting = pcm16_meeting(tmp_path)
    clip = np.empty((CLIP_ROWS, 2), dtype=np.float32)
    rows = clip_rows(meeting, 8)
    for rec in rows:
        write_wav(tmp_path / rec.wav_path, export_clip(rec, meeting), SAMPLE_RATE, "float32")
    scratch = scratch()

    def featurize(rec):
        extract(load_clip(rec, tmp_path / rec.wav_path, out=clip), scratch)

    featurize(rows[0])
    peaks = [traced_peak(featurize, rows[:n]) for n in (2, 8)]
    assert peaks[1] <= peaks[0] + CACHED_BYTES, (
        "8 clips peaked at %d bytes, 2 at %d" % (peaks[1], peaks[0]))
    assert peaks[1] < F64_CLIP_BYTES


def test_write_wav_writes_a_float32_clip_without_a_copy(tmp_path):
    clip = np.random.default_rng(9).uniform(-1.0, 1.0, (CLIP_ROWS, 2)).astype(np.float32)
    peak = traced_peak(lambda path: write_wav(path, clip), [tmp_path / "c.wav"])
    assert peak < 0.1 * clip.nbytes, "write_wav allocated %d bytes" % peak
