import json
import warnings
from collections import Counter

import numpy as np

from conftest import same_telemetry
from talkover.audio import (SAMPLE_RATE, AudioChannel, MeetingAudio,
                            read_wav_data)
from talkover.causal import naive_difference, read_telemetry_csv
from talkover.features import PROFILES, load_embeddings
from talkover.labels import (VOTE_LABELS, aggregate_all, annotator_accuracy,
                             read_votes_csv)
from talkover.manifest import read_manifest, read_split
from talkover.model import CLASSES
from talkover.overlap import (REJECT_NO_OVERLAP, REJECT_PRESILENCE,
                              REJECT_TOO_SHORT, detect, vad)
from talkover.synth import (EXPECTED_CANDIDATE_ONSETS, INJECTED_EFFECT,
                            N_ANNOTATORS, make_meeting_audio,
                            make_telemetry, write_telemetry_fixture)


def test_meeting_audio_is_deterministic():
    a = make_meeting_audio(seed=0)
    b = make_meeting_audio(seed=0)
    assert sorted(a) == ["alice", "bob", "carol"]
    for speaker in a:
        np.testing.assert_array_equal(a[speaker], b[speaker])
        assert len(a[speaker]) == int(110.0 * SAMPLE_RATE)
        assert np.max(np.abs(a[speaker])) <= 0.2
    c = make_meeting_audio(seed=1)
    assert not np.array_equal(a["alice"], c["alice"])
    # channels are silent outside their speech segments
    assert np.all(a["alice"][: 20 * SAMPLE_RATE] == 0.0)


def test_meeting_fixture_hits_the_designed_gates():
    channels = [AudioChannel(x, SAMPLE_RATE, pid)
                for pid, x in sorted(make_meeting_audio(seed=0).items())]
    meeting = MeetingAudio(tuple(channels), "m0")
    segments = [vad(ch) for ch in channels]
    result = detect(meeting, segments)

    got = {(c.interrupter_id, c.onset_s) for c in result.candidates}
    assert got == EXPECTED_CANDIDATE_ONSETS
    assert [c.clip_id for c in result.candidates] == [
        "m0_bob_0025000", "m0_carol_0055000"]
    assert dict(result.rejections) == {
        REJECT_NO_OVERLAP: 6, REJECT_PRESILENCE: 1, REJECT_TOO_SHORT: 1}


def test_meeting_fixture_on_disk(fixtures_dir):
    audio_dir = fixtures_dir / "audio"
    manifest = json.loads((audio_dir / "meetings.json").read_text())
    meetings = manifest["meetings"]
    assert len(meetings) == 1 and meetings[0]["meeting_id"] == "m0"
    entries = meetings[0]["channels"]
    assert [e["participant_id"] for e in entries] == ["alice", "bob", "carol"]
    for e in entries:
        rate, frames = read_wav_data(audio_dir / e["wav_path"])
        assert rate == SAMPLE_RATE
        assert frames.shape == (int(110.0 * SAMPLE_RATE), 1)


def test_embedding_corpus_layout(fixtures_dir):
    emb_dir = fixtures_dir / "embeddings"
    records = read_manifest(emb_dir / "manifest.jsonl")
    split = read_split(emb_dir / "split.json")

    assert len(records) == 800
    assert {len(split[s]) for s in split} == {320, 80, 400}
    assert sorted(split) == ["test", "train", "val"]
    assert sorted(r.clip_id for r in records) == sorted(
        cid for ids in split.values() for cid in ids)

    by_split = Counter()
    for r in records:
        assert r.label in CLASSES
        prefix, split_name, rest = r.clip_id.split("_", 2)
        assert prefix == "emb"
        by_split[(split_name, r.label)] += 1
        assert r.wav_path == r.clip_id + ".sie"
    for label in CLASSES:
        assert by_split[("train", label)] == 80
        assert by_split[("val", label)] == 20
        assert by_split[("test", label)] == 100

    emb = load_embeddings(emb_dir / records[0].wav_path, PROFILES["tiny"])
    assert emb.profile.shape == (2, 5, 32, 249)
    emb.read_into(np.empty((2, 5, 32, 249), np.float32))


def test_votes_fixture_patterns(fixtures_dir):
    votes_dir = fixtures_dir / "votes"
    votes = read_votes_csv(votes_dir / "votes.csv")
    assert len(votes.clip_ids) == 24
    assert len(votes) == 24 * N_ANNOTATORS

    results = aggregate_all(votes)
    accepted = [r for r in results if r.accepted]
    assert len(accepted) == 20
    # rejected clips all sit below the 0.7 agreement bar
    for r in results:
        if not r.accepted:
            assert r.agreement_fraction < 0.7
    # accepted labels follow the fixed rotation through the label set
    for r in accepted:
        idx = int(r.clip_id.split("_")[1])
        assert r.label == VOTE_LABELS[idx % len(VOTE_LABELS)]

    golden = json.loads((votes_dir / "golden.json").read_text())
    assert sorted(golden) == ["vote_%04d" % i for i in range(6)]
    by_clip = {r.clip_id: r for r in results}
    for cid, label in golden.items():
        assert by_clip[cid].label == label
        assert by_clip[cid].agreement_fraction == 1.0

    acc = annotator_accuracy(votes, golden)
    assert len(acc) == N_ANNOTATORS
    for stats in acc.values():
        assert stats == {"correct": 6, "total": 6, "accuracy": 1.0}


def test_telemetry_is_deterministic():
    a = make_telemetry(n=300, seed=3)
    b = make_telemetry(n=300, seed=3)
    assert same_telemetry(a, b)
    assert not same_telemetry(a, make_telemetry(n=300, seed=4))


def test_telemetry_of_one_meeting_draws_from_finite_probabilities():
    # one row makes every numeric column constant, so its spread is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        records = make_telemetry(n=1, seed=0)
    assert len(records) == 1
    assert records.participant_count[0] >= 2 and records.duration_min[0] > 0


def test_telemetry_confounds_the_naive_estimate():
    records = make_telemetry(n=20000, seed=2)
    assert np.all(records.participant_count >= 2)
    naive = naive_difference(records)
    assert naive - INJECTED_EFFECT > 0.015


def test_telemetry_fixture_files(tmp_path):
    csv_path, truth_path = write_telemetry_fixture(tmp_path, n=200, seed=5)
    records = read_telemetry_csv(csv_path)
    assert len(records) == 200
    with open(truth_path) as fh:
        truth = json.load(fh)
    assert truth == {"injected_effect": INJECTED_EFFECT, "n": 200, "seed": 5}


def test_all_fixture_files_present(fixtures_dir):
    expected = ["audio/meetings.json", "embeddings/manifest.jsonl",
                "embeddings/split.json", "votes/votes.csv", "votes/golden.json",
                "telemetry/telemetry.csv", "telemetry/truth.json"]
    for rel in expected:
        assert (fixtures_dir / rel).is_file(), rel
