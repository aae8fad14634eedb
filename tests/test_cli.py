import ast
import csv
import dataclasses
import importlib
import json
import math
import os
import re
import shutil
import string
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import talkover
from conftest import run_cli
from talkover import cli, synth
from talkover.audio import AudioChannel, MeetingAudio, SAMPLE_RATE, read_wav_data, write_wav
from talkover.causal import write_telemetry_csv
from talkover.labels import VOTE_LABELS, fleiss_kappa, read_votes_csv, votes_to_table
from talkover.manifest import ClipRecord, read_manifest, read_split, write_manifest, write_split
from talkover.overlap import detect, export_clip, vad
from talkover.vocab import CLASSES

pytestmark = pytest.mark.usefixtures("fixtures_dir")

REPO_ROOT = Path(__file__).resolve().parents[1]

# What a pip-generated console-script launcher does: argv[0] is the script
# name, the entry point is loaded and its return value is the exit status.
CONSOLE_LAUNCHER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "value = sys.argv.pop(1)\n"
    "sys.argv[0] = 'talkover'\n"
    "sys.exit(EntryPoint('talkover', value, 'console_scripts').load()())\n"
)


@pytest.fixture(scope="module")
def extract_out(fixtures_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("extract")
    code = run_cli(["extract", "--meetings", fixtures_dir / "audio" / "meetings.json",
                    "--out", out])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_dir(fixtures_dir, tmp_path_factory):
    emb = fixtures_dir / "embeddings"
    out = tmp_path_factory.mktemp("model")
    code = run_cli(["train", "--manifest", emb / "manifest.jsonl",
                    "--split", emb / "split.json", "--features", emb,
                    "--feature", "emb", "--profile", "tiny",
                    "--epochs", 2, "--out", out])
    assert code == 0
    return out


def test_usage_errors_exit_2():
    for argv in ([], ["frobnicate"], ["featurize", "--out", "x"],
                 ["train", "--out", "x", "--feature", "wavelet"]):
        with pytest.raises(SystemExit) as err:
            run_cli(argv)
        assert err.value.code == 2


@pytest.mark.parametrize("command, flag", [
    ("train", "--epochs"), ("train", "--batch-size"), ("train", "--runs"), ("eval", "--runs"),
])
def test_zero_counts_exit_2(fixtures_dir, model_dir, tmp_path, command, flag):
    emb = fixtures_dir / "embeddings"
    argv = [command, "--manifest", emb / "manifest.jsonl", "--split", emb / "split.json",
            "--features", emb, "--feature", "emb", "--profile", "tiny",
            flag, 0, "--out", tmp_path / "o"]
    if command == "eval":
        argv += ["--model-dir", model_dir]
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [0, -5])
def test_telemetry_n_below_one_exits_2(tmp_path, value):
    with pytest.raises(SystemExit) as err:
        run_cli(["gen-fixtures", "--telemetry-n", value, "--out", tmp_path / "o"])
    assert err.value.code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("labels", "--threshold", 2), ("labels", "--threshold", 0),
    ("labels", "--threshold", "nan"), ("train", "--patience", -1),
    ("impact", "--bootstrap-samples", 0), ("impact", "--bootstrap-samples", -3),
    ("train", "--lr", 0), ("train", "--lr", -1), ("train", "--lr", "nan"),
    ("train", "--lr", "inf"), ("eval", "--threshold", "nan"),
    ("impact", "--bins", 1), ("impact", "--bins", 0),
    ("extract", "--energy-threshold", "nan"), ("extract", "--energy-threshold", "inf"),
    ("extract", "--min-utterance", "nan"), ("extract", "--min-utterance", -0.1),
    ("extract", "--min-presilence", "nan"), ("extract", "--min-presilence", "inf"),
    ("eval", "--fpr-target", 1.5), ("eval", "--fpr-target", 1), ("eval", "--fpr-target", 0),
    ("eval", "--fpr-target", -1), ("eval", "--fpr-target", "nan"),
    ("eval", "--fpr-target", "inf"),
    ("train", "--seed", -1), ("impact", "--seed", -1), ("gen-fixtures", "--seed", -1),
])
def test_unworkable_counts_and_fractions_exit_2(fixtures_dir, tmp_path, command, flag, value):
    emb = fixtures_dir / "embeddings"
    corpus = ["--manifest", emb / "manifest.jsonl", "--split", emb / "split.json",
              "--features", emb, "--feature", "emb", "--profile", "tiny"]
    inputs = {
        "extract": ["--meetings", fixtures_dir / "audio" / "meetings.json"],
        "labels": ["--votes", fixtures_dir / "votes" / "votes.csv"],
        "train": corpus,
        "eval": corpus + ["--model-dir", tmp_path / "model"],
        "impact": ["--telemetry", fixtures_dir / "telemetry" / "telemetry.csv", "--bootstrap"],
        "gen-fixtures": [],
    }
    with pytest.raises(SystemExit) as err:
        run_cli([command] + inputs[command] + [flag, value, "--out", tmp_path / "o"])
    assert err.value.code == 2
    assert not (tmp_path / "o").exists()


def test_missing_input_exits_10(tmp_path):
    code = run_cli(["kappa", "--votes", tmp_path / "nope.csv", "--out", tmp_path])
    assert code == 10


@pytest.mark.parametrize("argv", [
    ["extract", "--meetings", "{missing}"],
    ["featurize", "--manifest", "{missing}", "--feature", "emb"],
    ["train", "--manifest", "{missing}", "--split", "{missing}", "--features", "{missing}",
     "--feature", "emb"],
    ["eval", "--manifest", "{missing}", "--split", "{missing}", "--features", "{missing}",
     "--feature", "emb", "--model-dir", "{missing}"],
    ["labels", "--votes", "{missing}"],
    ["kappa", "--votes", "{missing}"],
    ["impact", "--telemetry", "{missing}"],
], ids=lambda argv: argv[0])
def test_out_is_made_before_any_input_is_read(tmp_path, argv):
    out = tmp_path / "a" / "b"
    missing = str(tmp_path / "missing")
    assert run_cli([missing if a == "{missing}" else a for a in argv] + ["--out", out]) == 10
    assert os.listdir(out) == []


def test_bad_votes_header_exits_7(tmp_path, capsys):
    votes = tmp_path / "votes.csv"
    votes.write_text("who,what,when\na,b,c\n")
    assert run_cli(["labels", "--votes", votes, "--out", tmp_path]) == 7
    # an unknown label after a good header: the error names the file and line
    votes.write_text("clip_id,annotator_id,label\na,b,other\n\na,c,shouting\n")
    capsys.readouterr()
    assert run_cli(["labels", "--votes", votes, "--out", tmp_path / "o"]) == 7
    assert capsys.readouterr().err == "error: %s:4: unknown vote label 'shouting'\n" % votes


def test_wrong_profile_exits_4(fixtures_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    code = run_cli(["featurize", "--manifest", emb / "manifest.jsonl",
                    "--feature", "emb", "--profile", "base", "--out", tmp_path])
    assert code == 4


def test_meetings_without_channel_list_exits_9(tmp_path):
    bad = tmp_path / "meetings.json"
    bad.write_text(json.dumps({"meetings": [{"meeting_id": "x", "channels": []}]}))
    assert run_cli(["extract", "--meetings", bad, "--out", tmp_path]) == 9


def test_repeated_meeting_id_exits_9_before_reading_audio(fixtures_dir, tmp_path, capsys):
    audio = fixtures_dir / "audio"
    meeting = json.loads((audio / "meetings.json").read_text())["meetings"][0]
    for ch in meeting["channels"]:
        ch["wav_path"] = str(audio / ch["wav_path"])
    bad = tmp_path / "meetings.json"
    bad.write_text(json.dumps({"meetings": [meeting, meeting]}))
    capsys.readouterr()
    assert run_cli(["extract", "--meetings", bad, "--out", tmp_path / "o"]) == 9
    assert repr(meeting["meeting_id"]) in capsys.readouterr().err
    assert list((tmp_path / "o" / "clips").glob("*.wav")) == []
    assert not (tmp_path / "o" / "manifest.jsonl").exists()


_TWO_CHANNELS = [{"participant_id": "a", "wav_path": "a.wav"},
                 {"participant_id": "b", "wav_path": "b.wav"}]
# about 2 KB that the JSON decoder, recursing once a level, cannot parse
DEEP_JSON = "[" * 1000 + "]" * 1000


@pytest.mark.parametrize("blob", [
    json.dumps({"meetings": [{"meeting_id": "x", "channels": _TWO_CHANNELS}]})[:-5],
    json.dumps([{"meeting_id": "x", "channels": _TWO_CHANNELS}]),
    json.dumps({"meetings": [{"meeting_id": "x", "channels": [
        {"wav_path": "a.wav"}, {"participant_id": "b", "wav_path": "b.wav"}]}]}),
    json.dumps({"meetings": [{"channels": _TWO_CHANNELS}]}),
    json.dumps({"meetings": ["x"]}),
    json.dumps({"meetings": [{"meeting_id": "x", "channels": _TWO_CHANNELS}] * 2}),
    json.dumps({"meetings": [{"meeting_id": "x", "channels": [
        {"participant_id": "a", "wav_path": "a.wav\0"}, _TWO_CHANNELS[1]]}]}),
    DEEP_JSON,
], ids=["truncated", "top-level list", "no participant_id", "no meeting_id",
        "meeting not an object", "repeated meeting_id", "NUL in wav_path",
        "nested 1,000 deep"])
def test_malformed_meetings_manifest_exits_9(tmp_path, blob):
    bad = tmp_path / "meetings.json"
    bad.write_text(blob)
    assert run_cli(["extract", "--meetings", bad, "--out", tmp_path / "o"]) == 9
    assert not (tmp_path / "o" / "manifest.jsonl").exists()
    assert not (tmp_path / "o" / "clips").exists()


@pytest.mark.parametrize("blob", [b'{"vote_0000": "other"', b'["vote_0000"]',
                                  b'{"vote_0000": "shouting"}', DEEP_JSON.encode()],
                         ids=["truncated", "list", "unknown label", "nested 1,000 deep"])
def test_malformed_golden_labels_exit_7(fixtures_dir, tmp_path, blob):
    golden = tmp_path / "golden.json"
    golden.write_bytes(blob)
    assert run_cli(["labels", "--votes", fixtures_dir / "votes" / "votes.csv",
                    "--golden", golden, "--out", tmp_path / "o"]) == 7
    assert not (tmp_path / "o" / "consensus.jsonl").exists()


def _with_byte_ff(src, dst):
    """Copy a text file with one byte that is not UTF-8 in its second line."""
    lines = Path(src).read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:2] + b"\xff" + lines[1][2:]
    Path(dst).write_bytes(b"".join(lines))
    return dst


@pytest.mark.parametrize("command", ["labels", "kappa"])
def test_undecodable_votes_exit_7(fixtures_dir, tmp_path, command):
    votes = _with_byte_ff(fixtures_dir / "votes" / "votes.csv", tmp_path / "votes.csv")
    assert run_cli([command, "--votes", votes, "--out", tmp_path / "o"]) == 7


@pytest.mark.parametrize("command, flag, name, code", [
    ("kappa", "--votes", "votes/votes.csv", 7),
    ("impact", "--telemetry", "telemetry/telemetry.csv", 8)])
def test_oversized_csv_field_exits_7_or_8(fixtures_dir, tmp_path, command, flag, name, code):
    # a stray quote in a large file reads the rest of it as one field,
    # past the csv module's field size limit
    lines = (fixtures_dir / name).read_text().splitlines()
    lines[1] = '"' + lines[1] + "x" * csv.field_size_limit()
    path = tmp_path / "input.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run_cli([command, flag, path, "--out", tmp_path / "o"]) == code


def test_undecodable_telemetry_exits_8(fixtures_dir, tmp_path):
    telemetry = _with_byte_ff(fixtures_dir / "telemetry" / "telemetry.csv",
                              tmp_path / "telemetry.csv")
    assert run_cli(["impact", "--telemetry", telemetry, "--out", tmp_path / "o"]) == 8


CLIP_LINE = {"clip_id": "vote_0000", "meeting_id": "m9", "interrupter_id": "dana",
             "onset_s": 5.0, "wav_path": "clips/vote_0000.wav"}


@pytest.mark.parametrize("line", [
    "[1]", '"s"',
    json.dumps(dict(CLIP_LINE, onset_s="abc")),
    json.dumps(dict(CLIP_LINE, wav_path=5)),
    json.dumps(dict(CLIP_LINE, clip_id=7)),
    json.dumps(dict(CLIP_LINE, meeting_id=None)),
    json.dumps(dict(CLIP_LINE, interrupter_id=["dana"])),
    json.dumps(dict(CLIP_LINE, label=3)),
    json.dumps(dict(CLIP_LINE, onset_s=True)),
    json.dumps(dict(CLIP_LINE, label="laughter", agreement="high")),
    json.dumps(dict(CLIP_LINE, onset_s=10 ** 400)),
    json.dumps(CLIP_LINE)[:-1] + ', "x": %s}' % ("1" * 5000),
    json.dumps(dict(CLIP_LINE, onset_s=math.nan)),
    json.dumps(dict(CLIP_LINE, onset_s=math.inf)),
    json.dumps(dict(CLIP_LINE, label="laughter", agreement=-math.inf)),
    json.dumps(CLIP_LINE).replace("5.0", "5e400"),
    json.dumps(dict(CLIP_LINE, x=0)).replace("0}", DEEP_JSON + "}"),
], ids=["list", "string", "onset not a number", "wav_path a number", "clip_id a number",
        "meeting_id null", "interrupter_id a list", "label a number", "onset a bool",
        "agreement a string", "onset past the float range", "integer past the digit limit",
        "onset NaN", "onset Infinity", "agreement -Infinity", "onset 5e400",
        "field nested 1,000 deep"])
def test_malformed_clip_manifest_line_exits_9(fixtures_dir, tmp_path, line):
    manifest = tmp_path / "clips.jsonl"
    manifest.write_text(line + "\n")
    assert run_cli(["labels", "--votes", fixtures_dir / "votes" / "votes.csv",
                    "--manifest", manifest, "--out", tmp_path / "o"]) == 9
    assert not (tmp_path / "o" / "consensus.jsonl").exists()


def test_repeated_clip_id_exits_9(fixtures_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    lines = (emb / "manifest.jsonl").read_text().splitlines(keepends=True)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(lines[:1] + lines))
    for name in os.listdir(emb):
        if name.endswith(".sie"):
            os.symlink(emb / name, tmp_path / name)
    assert run_cli(["featurize", "--manifest", manifest, "--feature", "emb",
                    "--profile", "tiny", "--out", tmp_path / "o"]) == 9
    assert os.listdir(tmp_path / "o") == []
    assert run_cli(["train", "--manifest", manifest, "--split", emb / "split.json",
                    "--features", emb, "--feature", "emb", "--profile", "tiny",
                    "--out", tmp_path / "m"]) == 9


def test_split_of_non_string_ids_exits_9(fixtures_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"train": [["emb_train_backchannel_0000"]]}))
    assert run_cli(["train", "--manifest", emb / "manifest.jsonl", "--split", split,
                    "--features", emb, "--feature", "emb", "--profile", "tiny",
                    "--out", tmp_path / "o"]) == 9
    assert not (tmp_path / "o" / "checkpoint_r0.bin").exists()


def test_split_nested_1000_deep_exits_9(fixtures_dir, tmp_path, capsys):
    emb = fixtures_dir / "embeddings"
    split = tmp_path / "split.json"
    split.write_text(DEEP_JSON)
    assert run_cli(["train", "--manifest", emb / "manifest.jsonl", "--split", split,
                    "--features", emb, "--feature", "emb", "--profile", "tiny",
                    "--out", tmp_path / "o"]) == 9
    assert capsys.readouterr().err == "error: %s: JSON nested too deeply\n" % split


def test_undecodable_clip_manifest_exits_9(fixtures_dir, tmp_path):
    manifest = _with_byte_ff(fixtures_dir / "embeddings" / "manifest.jsonl",
                             tmp_path / "manifest.jsonl")
    assert run_cli(["labels", "--votes", fixtures_dir / "votes" / "votes.csv",
                    "--manifest", manifest, "--out", tmp_path / "o"]) == 9


def test_unreadable_wav_exits_3(tmp_path):
    (tmp_path / "a.wav").write_text("not audio")
    (tmp_path / "b.wav").write_text("still not audio")
    doc = {"meetings": [{"meeting_id": "x", "channels": [
        {"participant_id": "a", "wav_path": "a.wav"},
        {"participant_id": "b", "wav_path": "b.wav"}]}]}
    meetings = tmp_path / "meetings.json"
    meetings.write_text(json.dumps(doc))
    assert run_cli(["extract", "--meetings", meetings, "--out", tmp_path / "o"]) == 3


def test_repeated_participant_ids_exit_3(fixtures_dir, tmp_path):
    # two clips whose interrupter cannot be told apart must not be written
    audio = fixtures_dir / "audio"
    doc = json.loads((audio / "meetings.json").read_text())
    for ch in doc["meetings"][0]["channels"]:
        ch["participant_id"] = "same"
        ch["wav_path"] = str(audio / ch["wav_path"])
    meetings = tmp_path / "meetings.json"
    meetings.write_text(json.dumps(doc))
    assert run_cli(["extract", "--meetings", meetings, "--out", tmp_path / "o"]) == 3
    assert not (tmp_path / "o" / "manifest.jsonl").exists()


def _write_meeting(directory, tracks, encoding):
    """One WAV per (participant id, samples) pair, plus their meetings manifest."""
    entries = []
    for pid, samples in tracks:
        write_wav(os.path.join(directory, pid + ".wav"), samples, encoding=encoding)
        entries.append({"participant_id": pid, "wav_path": pid + ".wav"})
    meetings = os.path.join(directory, "meetings.json")
    with open(meetings, "w") as fh:
        json.dump({"meetings": [{"meeting_id": "m", "channels": entries}]}, fh)
    return meetings


def _tones(duration_s, bursts, freq):
    t = np.arange(int(duration_s * SAMPLE_RATE)) / SAMPLE_RATE
    on = np.zeros(t.size, dtype=bool)
    for lo, hi in bursts:
        on |= (t >= lo) & (t < hi)
    return np.where(on, 0.3 * np.sin(2 * np.pi * freq * t), 0.0)


def _new_files_outside(root, out, before):
    """Files under root that are not in before and not under out."""
    return sorted(p for p in root.rglob("*")
                  if p.is_file() and p not in before and out not in p.parents)


@pytest.mark.parametrize("field, value", [
    ("meeting_id", "../../escaped"), ("meeting_id", "m\0"), ("participant_id", "b/ob"),
], ids=["meeting_id leaves --out", "NUL in meeting_id", "slash in participant_id"])
def test_extract_of_an_id_no_file_may_have_exits_9(tmp_path, capsys, field, value):
    meetings = Path(_write_meeting(tmp_path, [("a", _tones(30.0, [(1.0, 28.0)], 300.0)),
                                              ("b", _tones(30.0, [(18.0, 19.5)], 500.0))],
                                   "pcm16"))
    doc = json.loads(meetings.read_text())
    meeting = doc["meetings"][0]
    (meeting if field == "meeting_id" else meeting["channels"][1])[field] = value
    meetings.write_text(json.dumps(doc))
    out = tmp_path / "x" / "y" / "o"
    before = set(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run_cli(["extract", "--meetings", meetings, "--out", out]) == 9
    assert repr(value)[1:-1] in capsys.readouterr().err
    assert _new_files_outside(tmp_path, out, before) == []
    assert not (out / "manifest.jsonl").exists()


@pytest.mark.parametrize("field, value", [("clip_id", "../../../escaped_clip"),
                                          ("wav_path", "x.sie\0")])
def test_featurize_of_a_clip_row_no_file_may_have_exits_9(small_corpus, tmp_path, field, value):
    rows = [dict(r.to_dict(), wav_path=str(small_corpus / r.wav_path))
            for r in read_manifest(small_corpus / "manifest.jsonl")]
    rows[0][field] = value
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "a" / "b" / "c" / "o"
    before = set(tmp_path.rglob("*"))
    assert run_cli(["featurize", "--manifest", manifest, "--feature", "emb",
                    "--profile", "tiny", "--out", out]) == 9
    assert _new_files_outside(tmp_path, out, before) == []
    assert not (out / "shapes.json").exists()


# a lone surrogate that no file name encodes; U+DC80 to U+DCFF stand for
# the bytes 0x80 to 0xFF and do
UNENCODABLE = "x\ud800"


def test_extract_of_an_unencodable_wav_path_exits_9(tmp_path, capsys):
    meetings = Path(_write_meeting(tmp_path, [("a", _tones(12.0, [(1.0, 11.0)], 300.0)),
                                              ("b", _tones(12.0, [(6.0, 7.5)], 500.0))],
                                   "pcm16"))
    doc = json.loads(meetings.read_text())
    doc["meetings"][0]["channels"][1]["wav_path"] = UNENCODABLE + ".wav"
    meetings.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["extract", "--meetings", meetings, "--out", tmp_path / "o"]) == 9
    assert "\\ud800" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.jsonl").exists()


@pytest.mark.parametrize("field", ["clip_id", "wav_path"])
def test_featurize_of_an_unencodable_clip_row_exits_9(small_corpus, tmp_path, field):
    rows = [dict(r.to_dict(), wav_path=str(small_corpus / r.wav_path))
            for r in read_manifest(small_corpus / "manifest.jsonl")]
    rows[0][field] = UNENCODABLE
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert run_cli(["featurize", "--manifest", manifest, "--feature", "emb",
                    "--profile", "tiny", "--out", tmp_path / "o"]) == 9
    assert os.listdir(tmp_path / "o") == []


def test_train_of_an_unencodable_clip_id_exits_9(fixtures_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    rows = [json.loads(line) for line in (emb / "manifest.jsonl").read_text().splitlines()]
    split = json.loads((emb / "split.json").read_text())
    old = split["train"][0]
    for row in rows:
        if row["clip_id"] == old:
            row["clip_id"] = UNENCODABLE
    split["train"][0] = UNENCODABLE
    manifest, split_path = tmp_path / "manifest.jsonl", tmp_path / "split.json"
    manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
    split_path.write_text(json.dumps(split))
    assert run_cli(["train", "--manifest", manifest, "--split", split_path, "--features", emb,
                    "--feature", "emb", "--profile", "tiny", "--epochs", 1,
                    "--out", tmp_path / "o"]) == 9
    assert not (tmp_path / "o" / "checkpoint_r0.bin").exists()


def test_extract_writes_the_rows_detect_returns(fixtures_dir, extract_out):
    from talkover.audio import load_wav
    audio = fixtures_dir / "audio"
    rows = []
    for m in json.loads((audio / "meetings.json").read_text())["meetings"]:
        meeting = MeetingAudio.from_channels(
            [load_wav(audio / ch["wav_path"], ch["participant_id"]) for ch in m["channels"]],
            m["meeting_id"])
        rows += [c.to_dict() for c in
                 detect(meeting, [vad(ch) for ch in meeting.channels]).candidates]
    written = (extract_out / "manifest.jsonl").read_text().splitlines()
    assert rows and [json.loads(line) for line in written] == rows
    assert all((extract_out / row["wav_path"]).is_file() for row in rows)


def test_clip_id_two_meetings_make_exits_9_before_overwriting(tmp_path, capsys):
    # meeting a_b's c and meeting a's b_c both interrupt at 10 s: a_b_c_0010000
    entries = {}
    for meeting_id, interrupter, freq in (("a_b", "c", 700.0), ("a", "b_c", 500.0)):
        entries[meeting_id] = []
        for pid, samples in (("x", _tones(40.0, [(1.0, 38.0)], 300.0)),
                             (interrupter, _tones(40.0, [(10.0, 12.0)], freq))):
            wav = "%s-%s.wav" % (meeting_id, pid)
            write_wav(tmp_path / wav, samples, encoding="pcm16")
            entries[meeting_id].append({"participant_id": pid, "wav_path": wav})
    for name, ids in (("first.json", ["a_b"]), ("both.json", ["a_b", "a"])):
        (tmp_path / name).write_text(json.dumps({"meetings": [
            {"meeting_id": m, "channels": entries[m]} for m in ids]}))

    assert run_cli(["extract", "--meetings", tmp_path / "first.json",
                    "--out", tmp_path / "first"]) == 0
    capsys.readouterr()
    assert run_cli(["extract", "--meetings", tmp_path / "both.json",
                    "--out", tmp_path / "both"]) == 9
    assert "clip id a_b_c_0010000 comes from meetings a_b and a" in capsys.readouterr().err
    clip = os.path.join("clips", "a_b_c_0010000.wav")
    assert (tmp_path / "both" / clip).read_bytes() == (tmp_path / "first" / clip).read_bytes()
    assert not (tmp_path / "both" / "manifest.jsonl").exists()


@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
def test_extract_pads_a_short_channel_like_in_memory_channels(tmp_path, encoding):
    # c stops at 21 s; the clips of b at 18 s and of c at 17 s reach past it
    meetings = _write_meeting(tmp_path, [
        ("a", _tones(30.0, [(1.0, 28.0)], 300.0)),
        ("b", _tones(30.0, [(18.0, 19.5)], 500.0)),
        ("c", _tones(21.0, [(10.0, 12.0), (17.0, 20.9)], 700.0)),
    ], encoding)
    assert run_cli(["extract", "--meetings", meetings, "--out", tmp_path / "o"]) == 0

    meeting = MeetingAudio.from_channels(
        [AudioChannel(read_wav_data(tmp_path / (pid + ".wav"))[1][:, 0], SAMPLE_RATE, pid)
         for pid in "abc"], "m")
    result = detect(meeting, [vad(ch) for ch in meeting.channels])
    assert [d.clip_id for d in result.candidates] == \
        ["m_b_0018000", "m_c_0010000", "m_c_0017000"]
    assert [r.clip_id for r in read_manifest(tmp_path / "o" / "manifest.jsonl")] == \
        [d.clip_id for d in result.candidates]
    for rec in result.candidates:
        clip = export_clip(rec, meeting)
        want = tmp_path / "want.wav"
        write_wav(want, clip)
        got = tmp_path / "o" / "clips" / (rec.clip_id + ".wav")
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("float_channel", [None, "b"])
def test_extract_sums_pcm16_meetings_without_window(tmp_path, monkeypatch, float_channel):
    from talkover.audio import WavChannel
    meetings = _write_meeting(tmp_path, [
        ("a", _tones(30.0, [(1.0, 28.0)], 300.0)),
        ("b", _tones(30.0, [(18.0, 19.5)], 500.0)),
        ("c", _tones(21.0, [(10.0, 12.0), (17.0, 20.9)], 700.0)),
    ], "pcm16")
    if float_channel:
        path = tmp_path / (float_channel + ".wav")
        write_wav(path, read_wav_data(path)[1], encoding="float32")
    callers = []
    window = WavChannel.window
    monkeypatch.setattr(WavChannel, "window", lambda self, start, stop, out=None: (
        callers.append(sys._getframe(1).f_code.co_name), window(self, start, stop, out))[1])
    assert run_cli(["extract", "--meetings", meetings, "--out", tmp_path / "o"]) == 0
    n_clips = len(read_manifest(tmp_path / "o" / "manifest.jsonl"))
    assert n_clips == 3
    if float_channel is None:
        # only each clip's interrupter column is decoded, into the clip
        assert callers == ["export_clip"] * n_clips
    else:
        assert {"frame_energies_db", "mixdown", "export_clip"} == set(callers)


def test_nan_in_trailing_partial_frame_exits_3(tmp_path):
    # the VAD drops the last 100 samples, which hold the NaN; write_wav
    # refuses a NaN, so it is patched into the file's last sample
    meetings = _write_meeting(tmp_path, [("a", _tones(20.0, [(6.0, 9.0)], 300.0)),
                                         ("b", np.zeros(20 * SAMPLE_RATE + 100))], "float32")
    with open(tmp_path / "b.wav", "r+b") as fh:
        fh.seek(-4, os.SEEK_END)
        fh.write(np.float32(np.nan).tobytes())
    assert run_cli(["extract", "--meetings", meetings, "--out", tmp_path / "o"]) == 3
    assert not (tmp_path / "o" / "manifest.jsonl").exists()


# Runs each argv (a JSON list of lists) from a small process and prints
# each child's own peak RSS in KiB: a child's ru_maxrss from wait4 is
# never below its parent's peak RSS at spawn time, and pytest is large.
_PEAK_RSS_KIB = """
import json, os, subprocess, sys
peaks = []
for argv in json.loads(sys.argv[1]):
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit("%s exited %d" % (argv, proc.returncode))
    peaks.append(usage.ru_maxrss)
print(json.dumps(peaks))
"""


def test_extract_memory_does_not_grow_with_meeting_length(tmp_path, monkeypatch):
    # the benchmark's meeting generator: four PCM16 channels
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    minutes = 5
    workloads.generate_meeting(tmp_path / "in", 3, minutes * 60 * workloads.FPS)
    # the floor imports what extract imports
    argvs = [[sys.executable, "-c",
              "import numpy, talkover.cli, talkover.manifest, talkover.overlap"],
             [sys.executable, "-m", "talkover.cli", "extract",
              "--meetings", str(tmp_path / "in" / "meetings.json"),
              "--out", str(tmp_path / "out")]]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS_KIB, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    import_kib, extract_kib = json.loads(out.stdout)
    one_float64_channel_kib = minutes * 60 * SAMPLE_RATE * 8 / 1024
    assert extract_kib - import_kib < one_float64_channel_kib


def _short_meeting_wavs(directory):
    """Two 1 s PCM16 channels that overlap, plus their meetings manifest."""
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    entries = []
    for pid, lo, freq in (("a", 0.1, 300.0), ("b", 0.5, 700.0)):
        samples = np.where(t >= lo, 0.3 * np.sin(2 * np.pi * freq * t), 0.0)
        write_wav(os.path.join(directory, pid + ".wav"), samples, encoding="pcm16")
        entries.append({"participant_id": pid, "wav_path": pid + ".wav"})
    meetings = os.path.join(directory, "meetings.json")
    with open(meetings, "w") as fh:
        json.dump({"meetings": [{"meeting_id": "m", "channels": entries}]}, fh)
    return meetings


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_wav_exits_0_or_3(data):
    with tempfile.TemporaryDirectory() as tmp:
        meetings = _short_meeting_wavs(tmp)
        path = os.path.join(tmp, data.draw(st.sampled_from(["a.wav", "b.wav"]), label="file"))
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        for _ in range(data.draw(st.integers(0, 4), label="bytes")):
            at = data.draw(st.integers(0, 43), label="header byte")
            blob[at] = data.draw(st.integers(0, 255), label="value")
        blob = blob[:data.draw(st.none() | st.integers(0, len(blob)), label="truncate at")]
        with open(path, "wb") as fh:
            fh.write(blob)
        code = run_cli(["extract", "--meetings", meetings, "--out", os.path.join(tmp, "o")])
        event("exit %d" % code)
        assert code in (0, 3)


def test_single_class_telemetry_exits_8(tmp_path):
    rows = ["meeting_id,participant_count,duration_min,video_used,"
            "screenshare_used,vrh_used,predicted_inclusive"]
    rows += ["m%d,4,30.0,0,0,1,1" % i for i in range(10)]
    path = tmp_path / "telemetry.csv"
    path.write_text("\n".join(rows) + "\n")
    assert run_cli(["impact", "--telemetry", path, "--out", tmp_path / "o"]) == 8


@pytest.mark.parametrize("duration", ["inf", "1e308"])
def test_non_finite_or_overflowing_duration_exits_8(fixtures_dir, tmp_path, duration):
    # one bad duration in an eligible meeting; a finite 1e308 overflows
    # the column's spread
    lines = (fixtures_dir / "telemetry" / "telemetry.csv").read_text().splitlines()
    row = next(i for i in range(1, len(lines)) if int(lines[i].split(",")[1]) >= 3)
    cells = lines[row].split(",")
    cells[2] = duration
    lines[row] = ",".join(cells)
    path = tmp_path / "telemetry.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run_cli(["impact", "--telemetry", path, "--out", tmp_path / "o"]) == 8
    assert not (tmp_path / "o" / "report.json").exists()


def test_doubled_telemetry_exits_8(fixtures_dir, tmp_path):
    # every meeting listed twice would narrow the CI as if twice as many
    # meetings had been seen
    lines = (fixtures_dir / "telemetry" / "telemetry.csv").read_text().splitlines()
    path = tmp_path / "telemetry.csv"
    path.write_text("\n".join(lines + lines[1:]) + "\n")
    assert run_cli(["impact", "--telemetry", path, "--out", tmp_path / "o"]) == 8
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("name, code", [("intercept", 8), ("spread", 0)])
def test_extra_column_named_intercept_exits_8(fixtures_dir, tmp_path, capsys, name, code):
    # under another name the same column is a sixth coefficient
    lines = (fixtures_dir / "telemetry" / "telemetry.csv").read_text().splitlines()
    values = np.random.default_rng(33).normal(size=len(lines) - 1)
    path = tmp_path / "telemetry.csv"
    path.write_text("\n".join([lines[0] + "," + name]
                              + ["%s,%.6f" % row for row in zip(lines[1:], values)]) + "\n")
    capsys.readouterr()
    assert run_cli(["impact", "--telemetry", path, "--out", tmp_path / "o"]) == code
    report = tmp_path / "o" / "report.json"
    if code:
        assert capsys.readouterr().err == ("error: extra column 'intercept' is reserved for "
                                           "the fitted intercept\n")
        assert not report.exists()
    else:
        assert sorted(json.loads(report.read_text())["propensity"]["coefficients"]) == [
            "duration_min", "intercept", "participant_count", "screenshare_used", "spread",
            "video_used"]


# the last seven reach both telemetry read paths: np.loadtxt refuses 1_0
# and 1\0 as numbers, +1, 01 and 100 are numbers but not booleans, and a
# quote sends the file to the per-cell parse
FUZZ_CELLS = ["nan", "inf", "-inf", "1e308", "-1", "2", "", "abc", "0.5",
              "1_0", "+1", "01", "100", "1\0", "#0", '"1"']


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_telemetry_exits_0_or_8(data):
    telemetry = synth.make_telemetry(n=120, seed=4)
    telemetry = dataclasses.replace(
        telemetry, extras={"x": np.linspace(-1.0, 1.0, len(telemetry))})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "telemetry.csv")
        write_telemetry_csv(path, telemetry)
        with open(path) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        for _ in range(data.draw(st.integers(0, 4), label="cells")):
            i = data.draw(st.integers(1, len(rows) - 1), label="row")
            j = data.draw(st.integers(1, len(rows[0]) - 1), label="column")
            rows[i][j] = data.draw(st.sampled_from(FUZZ_CELLS), label="value")
        blob = "".join(",".join(r) + "\n" for r in rows).encode()
        blob = blob[:data.draw(st.none() | st.integers(0, len(blob)), label="truncate at")]
        with open(path, "wb") as fh:
            fh.write(blob)
        argv = ["impact", "--telemetry", path, "--out", os.path.join(tmp, "o")]
        if data.draw(st.booleans(), label="bootstrap"):
            argv += ["--bootstrap", "--bootstrap-samples", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli(argv)
        event("exit %d" % code)
        assert code in (0, 8)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """Two train and one val clip per class, as a tiny SIE1 corpus."""
    out = tmp_path_factory.mktemp("small_corpus")
    synth.write_embedding_corpus(str(out), seed=5, splits=(("train", 2), ("val", 1)))
    return out


WRONG_TYPES = [5, 1.5, None, True, [], ["x"], {}, {"a": 1}]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_manifest_and_split_exit_0_or_their_codes(small_corpus, data):
    with open(small_corpus / "manifest.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    with open(small_corpus / "split.json") as fh:
        split = json.load(fh)
    for _ in range(data.draw(st.integers(0, 3), label="manifest fields")):
        rec = data.draw(st.sampled_from(records), label="record")
        key = data.draw(st.sampled_from(sorted(rec)), label="field")
        if data.draw(st.booleans(), label="drop"):
            del rec[key]
        else:
            rec[key] = data.draw(st.sampled_from(WRONG_TYPES), label="value")
    for _ in range(data.draw(st.integers(0, 2), label="split entries")):
        ids = split[data.draw(st.sampled_from(sorted(split)), label="split")]
        at = data.draw(st.integers(0, len(ids) - 1), label="entry")
        ids[at] = data.draw(st.sampled_from(WRONG_TYPES), label="entry value")
    manifest_blob = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()
    split_blob = json.dumps(split, indent=2).encode()
    if data.draw(st.booleans(), label="truncate manifest"):
        manifest_blob = manifest_blob[:data.draw(st.integers(0, len(manifest_blob)))]
    if data.draw(st.booleans(), label="truncate split"):
        split_blob = split_blob[:data.draw(st.integers(0, len(split_blob)))]
    with tempfile.TemporaryDirectory() as tmp:
        manifest, split_path = os.path.join(tmp, "manifest.jsonl"), os.path.join(tmp, "split.json")
        with open(manifest, "wb") as fh:
            fh.write(manifest_blob)
        with open(split_path, "wb") as fh:
            fh.write(split_blob)
        # the manifest lives apart from the corpus, so wav_path resolves
        # against a directory of copies
        for name in os.listdir(small_corpus):
            if name.endswith(".sie"):
                os.symlink(small_corpus / name, os.path.join(tmp, name))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli(["featurize", "--manifest", manifest, "--feature", "emb",
                            "--profile", "tiny", "--out", os.path.join(tmp, "feat")])
            event("featurize exit %d" % code)
            assert code in (0, 9)
            code = run_cli(["train", "--manifest", manifest, "--split", split_path,
                            "--features", small_corpus, "--feature", "emb",
                            "--profile", "tiny", "--epochs", 1,
                            "--out", os.path.join(tmp, "model")])
        event("train exit %d" % code)
        # a record without a label fails at training as a label error
        assert code in (0, 7, 9)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_surrogate_in_manifest_and_split_exits_0_9_or_10(small_corpus, data):
    with open(small_corpus / "manifest.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    with open(small_corpus / "split.json") as fh:
        split = json.load(fh)
    rec = data.draw(st.sampled_from(records), label="record")
    field = data.draw(st.sampled_from(["clip_id", "meeting_id", "interrupter_id", "wav_path"]),
                      label="field")
    old, rec[field] = rec[field], _with_surrogates(rec[field], data)
    renamed = field == "clip_id" and data.draw(st.booleans(), label="renamed in the split")
    if renamed:
        split = {name: [rec[field] if cid == old else cid for cid in ids]
                 for name, ids in split.items()}
    with tempfile.TemporaryDirectory() as tmp:
        manifest, split_path = os.path.join(tmp, "manifest.jsonl"), os.path.join(tmp, "split.json")
        with open(manifest, "w") as fh:
            fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)
        with open(split_path, "w") as fh:
            json.dump(split, fh)
        for name in os.listdir(small_corpus):
            if name.endswith(".sie"):
                os.symlink(small_corpus / name, os.path.join(tmp, name))
        featurized = run_cli(["featurize", "--manifest", manifest, "--feature", "emb",
                              "--profile", "tiny", "--out", os.path.join(tmp, "feat")])
        trained = run_cli(["train", "--manifest", manifest, "--split", split_path,
                           "--features", small_corpus, "--feature", "emb", "--profile", "tiny",
                           "--epochs", 1, "--out", os.path.join(tmp, "model")])
    event("featurize exit %d, train exit %d" % (featurized, trained))
    if field in ("clip_id", "wav_path") and not _encodes(rec[field]):
        assert (featurized, trained) == (9, 9)
    elif field == "clip_id":
        # no feature file has the new id; the split names the old one
        assert (featurized, trained) == (0, 10 if renamed else 9)
    elif field == "wav_path":
        # featurize reads the .sie of the path's stem, which may still exist
        sie = small_corpus / cli._embedding_path(rec[field])
        assert (featurized, trained) == (0 if sie.exists() else 10, 0)
    else:
        assert (featurized, trained) == (0, 0)


VOTE_FUZZ_CELLS = ["", "shouting", "Other", "interruption", "ann_1", "vote_0000",
                   "vote_0001", '"', "a,b"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupted_votes_exit_0_or_7(data):
    with tempfile.TemporaryDirectory() as tmp:
        votes_path, _ = synth.write_votes_fixture(tmp, seed=3)
        with open(votes_path) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        for _ in range(data.draw(st.integers(0, 4), label="cells")):
            i = data.draw(st.integers(1, len(rows) - 1), label="row")
            j = data.draw(st.integers(0, 2), label="column")
            rows[i][j] = data.draw(st.sampled_from(VOTE_FUZZ_CELLS), label="value")
        for _ in range(data.draw(st.integers(0, 2), label="repeats")):
            # the same (clip, annotator) pair again, with any label
            row = list(rows[data.draw(st.integers(1, len(rows) - 1), label="repeat row")])
            row[2] = data.draw(st.sampled_from(VOTE_LABELS), label="repeat label")
            rows.insert(data.draw(st.integers(1, len(rows)), label="repeat at"), row)
        blob = "".join(",".join(r) + "\n" for r in rows).encode()
        if data.draw(st.booleans(), label="non-UTF-8 byte"):
            at = data.draw(st.integers(0, len(blob)), label="byte at")
            blob = blob[:at] + b"\xff" + blob[at:]
        blob = blob[:data.draw(st.none() | st.integers(0, len(blob)), label="truncate at")]
        with open(votes_path, "wb") as fh:
            fh.write(blob)
        for command in ("labels", "kappa"):
            code = run_cli([command, "--votes", votes_path,
                            "--out", os.path.join(tmp, command)])
            event("%s exit %d" % (command, code))
            assert code in (0, 7)


JSON_FUZZ_BYTES = list(b'{}[]",:\\ 0e-')


def _corrupt_json(blob, data):
    """blob with one drawn fault: overwritten bytes, inserted bytes, a
    truncation, or the document nested in arrays, up to deeper than the
    JSON decoder can recurse."""
    fault = data.draw(st.sampled_from(["overwrite", "insert", "truncate", "nest"]),
                      label="fault")
    event(fault)
    if fault == "nest":
        depth = data.draw(st.sampled_from([1, 2, 500, 1000, 100000]), label="depth")
        return b"[" * depth + blob + b"]" * depth
    if fault == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="truncate at")]
    byte = st.sampled_from(JSON_FUZZ_BYTES) | st.integers(0, 255)
    blob = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4), label="bytes")):
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        if fault == "overwrite":
            blob[at] = data.draw(byte, label="value")
        else:
            blob.insert(at, data.draw(byte, label="value"))
    return bytes(blob)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupted_meetings_manifest_exits_0_3_9_or_10(data):
    with tempfile.TemporaryDirectory() as tmp:
        meetings = _short_meeting_wavs(tmp)
        with open(meetings, "rb") as fh:
            blob = _corrupt_json(fh.read(), data)
        with open(meetings, "wb") as fh:
            fh.write(blob)
        code = run_cli(["extract", "--meetings", meetings, "--out", os.path.join(tmp, "o")])
    event("exit %d" % code)
    assert code in (0, 3, 9, 10)


# the ends of the surrogate blocks, and of U+DC80 to U+DCFF, which
# encode as the bytes 0x80 to 0xFF
SURROGATES = st.sampled_from([0xD800, 0xDBFF, 0xDC00, 0xDC7F, 0xDC80, 0xDCFF, 0xDD00,
                              0xDFFF]) | st.integers(0xD800, 0xDFFF)


def _with_surrogates(text, data):
    """text with 1 to 3 surrogates inserted, which json.dumps writes as
    \\uDxxx escapes; a high one before a low one decodes as one pair."""
    for _ in range(data.draw(st.integers(1, 3), label="surrogates")):
        at = data.draw(st.integers(0, len(text)), label="at")
        text = text[:at] + chr(data.draw(SURROGATES, label="code point")) + text[at:]
    return json.loads(json.dumps(text))


def _encodes(name):
    try:
        os.fsencode(name)
    except UnicodeEncodeError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_surrogate_in_meetings_manifest_exits_0_9_or_10(data):
    with tempfile.TemporaryDirectory() as tmp:
        # b interrupts a once, so meeting m gives clip m_b_...
        meetings = _write_meeting(tmp, [("a", _tones(12.0, [(1.0, 11.0)], 300.0)),
                                        ("b", _tones(12.0, [(6.0, 7.5)], 500.0))], "pcm16")
        with open(meetings) as fh:
            doc = json.load(fh)
        meeting = doc["meetings"][0]
        field = data.draw(st.sampled_from(["meeting_id", "participant_id", "wav_path"]),
                          label="field")
        channel = data.draw(st.integers(0, 1), label="channel")
        holder = meeting if field == "meeting_id" else meeting["channels"][channel]
        holder[field] = name = _with_surrogates(holder[field], data)
        with open(meetings, "w") as fh:
            json.dump(doc, fh)
        code = run_cli(["extract", "--meetings", meetings, "--out", os.path.join(tmp, "o")])
    event("exit %d" % code)
    # a's participant id names no clip; b's, the interrupter's, does
    if (field != "participant_id" or channel == 1) and not _encodes(name):
        assert code == 9
    else:
        assert code == (10 if field == "wav_path" else 0)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupted_golden_labels_exit_0_or_7(fixtures_dir, data):
    blob = _corrupt_json((fixtures_dir / "votes" / "golden.json").read_bytes(), data)
    with tempfile.TemporaryDirectory() as tmp:
        golden = os.path.join(tmp, "golden.json")
        with open(golden, "wb") as fh:
            fh.write(blob)
        code = run_cli(["labels", "--votes", fixtures_dir / "votes" / "votes.csv",
                        "--golden", golden, "--out", os.path.join(tmp, "o")])
    event("exit %d" % code)
    assert code in (0, 7)


def _corrupt_sie(blob, data):
    """blob with one drawn fault: a truncation, a changed header field, a
    non-finite value, or bytes appended after the payload."""
    fault = data.draw(st.sampled_from(["truncate", "header", "non-finite", "append"]),
                      label="fault")
    event(fault)
    if fault == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="truncate at")]
    if fault == "append":
        return blob + data.draw(st.binary(min_size=1, max_size=1024), label="appended")
    blob = bytearray(blob)
    if fault == "header":
        # magic, then the u32s version, layers, dim, frames, channels
        at = 4 * data.draw(st.integers(0, 5), label="field")
        old = bytes(blob[at: at + 4])
        new = st.binary(min_size=4, max_size=4) if at == 0 else \
            st.integers(0, 2 ** 32 - 1).map(lambda v: struct.pack("<I", v))
        blob[at: at + 4] = data.draw(new.filter(lambda b: b != old), label="value")
    else:
        at = 24 + 4 * data.draw(st.integers(0, (len(blob) - 24) // 4 - 1), label="value at")
        blob[at: at + 4] = struct.pack(
            "<f", data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value"))
    return bytes(blob)


def _corpus_links(corpus, tmp, skip=None):
    """Link every corpus file but skip into tmp."""
    for name in os.listdir(corpus):
        if name != skip:
            os.symlink(corpus / name, os.path.join(tmp, name))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_corrupted_sie_exits_4(small_corpus, data):
    names = sorted(n for n in os.listdir(small_corpus) if n.endswith(".sie"))
    victim = data.draw(st.sampled_from(names), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        _corpus_links(small_corpus, tmp, skip=victim)
        with open(os.path.join(tmp, victim), "wb") as fh:
            fh.write(_corrupt_sie((small_corpus / victim).read_bytes(), data))
        manifest = os.path.join(tmp, "manifest.jsonl")
        common = ["--manifest", manifest, "--feature", "emb", "--profile", "tiny"]
        assert run_cli(["featurize", *common, "--out", os.path.join(tmp, "feat")]) == 4
        assert run_cli(["train", *common, "--split", os.path.join(tmp, "split.json"),
                        "--features", tmp, "--epochs", 1,
                        "--out", os.path.join(tmp, "model")]) == 4


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sie_cut_after_its_check_exits_4_at_the_batch_read(small_corpus, data):
    # the file passes its check, then loses its tail before a train batch
    # or a validation slice reads it
    from talkover import features
    names = sorted(n for n in os.listdir(small_corpus) if n.endswith(".sie"))
    victim = data.draw(st.sampled_from(names), label="file")
    cut = data.draw(st.integers(0, (small_corpus / victim).stat().st_size - 1), label="cut at")
    real_load = features.load_embeddings

    def load_then_cut(path, profile):
        handle = real_load(path, profile)
        if os.path.basename(path) == victim:
            os.truncate(path, cut)
        return handle

    with tempfile.TemporaryDirectory() as tmp:
        _corpus_links(small_corpus, tmp, skip=victim)
        shutil.copyfile(small_corpus / victim, os.path.join(tmp, victim))
        with mock.patch.object(features, "load_embeddings", load_then_cut):
            code = run_cli(["train", "--manifest", os.path.join(tmp, "manifest.jsonl"),
                            "--split", os.path.join(tmp, "split.json"), "--features", tmp,
                            "--feature", "emb", "--profile", "tiny", "--epochs", 1,
                            "--out", os.path.join(tmp, "model")])
    assert code == 4


@pytest.fixture(scope="module")
def npy_corpus(tmp_path_factory):
    """One (6, 5) float64 .npy clip per class, listed in both the train
    and the test split, and the directory of a model trained on them."""
    corpus = tmp_path_factory.mktemp("npy_corpus")
    rng = np.random.default_rng(32)
    for label in CLASSES:
        np.save(corpus / (label + ".npy"), rng.normal(size=(6, 5)))
    write_manifest(corpus / "manifest.jsonl",
                   [ClipRecord(label, "m0", "p0", 5.0, label + ".wav", label)
                    for label in CLASSES])
    write_split(corpus / "split.json", {"train": list(CLASSES), "test": list(CLASSES)})
    model = tmp_path_factory.mktemp("npy_model")
    assert run_cli(["train", "--manifest", corpus / "manifest.jsonl", "--split",
                    corpus / "split.json", "--features", corpus, "--feature", "mfcc",
                    "--epochs", 1, "--out", model]) == 0
    return corpus, model


def _corrupt_npy(blob, data):
    fault = data.draw(st.sampled_from(["truncate", "garbage", "non-finite", "append"]),
                      label="fault")
    event(fault)
    if fault == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="truncate at")]
    if fault == "append":
        return blob + data.draw(st.binary(min_size=1, max_size=64), label="appended")
    if fault == "garbage":
        # keep the magic, or the magic and the header length, or nothing
        keep = data.draw(st.sampled_from([0, 8, 10]), label="kept")
        return blob[:keep] + data.draw(st.binary(max_size=len(blob)), label="garbage")
    blob = bytearray(blob)
    at = 128 + 8 * data.draw(st.integers(0, 29), label="value at")  # np.save's 128-byte header
    blob[at: at + 8] = struct.pack(
        "<d", data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value"))
    return bytes(blob)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupted_npy_exits_4(npy_corpus, data):
    corpus, model = npy_corpus
    victim = data.draw(st.sampled_from(CLASSES), label="clip") + ".npy"
    with tempfile.TemporaryDirectory() as tmp:
        _corpus_links(corpus, tmp, skip=victim)
        with open(os.path.join(tmp, victim), "wb") as fh:
            fh.write(_corrupt_npy((corpus / victim).read_bytes(), data))
        common = ["--manifest", os.path.join(tmp, "manifest.jsonl"),
                  "--split", os.path.join(tmp, "split.json"), "--features", tmp,
                  "--feature", "mfcc"]
        assert run_cli(["train", *common, "--epochs", 1,
                        "--out", os.path.join(tmp, "model")]) == 4
        assert run_cli(["eval", *common, "--model-dir", model, "--threshold", 0.5,
                        "--out", os.path.join(tmp, "eval")]) == 4


def test_matrix_model_history_has_no_layer_weights(npy_corpus):
    history = json.loads((npy_corpus[1] / "history_r0.json").read_text())
    assert history["layer_weights"] is None


def test_corrupt_checkpoint_exits_5(fixtures_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    bad_dir = tmp_path / "model"
    bad_dir.mkdir()
    (bad_dir / "checkpoint_r0.bin").write_bytes(b"JUNKJUNKJUNK")
    code = run_cli(["eval", "--manifest", emb / "manifest.jsonl",
                    "--split", emb / "split.json", "--features", emb,
                    "--feature", "emb", "--profile", "tiny",
                    "--model-dir", bad_dir, "--out", tmp_path / "o"])
    assert code == 5


def test_checkpoint_header_nested_1000_deep_exits_5(small_corpus, model_dir, tmp_path):
    blob = (model_dir / "checkpoint_r0.bin").read_bytes()
    header_len = int.from_bytes(blob[8:12], "little")
    text = DEEP_JSON.encode()
    bad_dir = tmp_path / "model"
    bad_dir.mkdir()
    (bad_dir / "checkpoint_r0.bin").write_bytes(
        blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + header_len:])
    assert run_cli(["eval", "--manifest", small_corpus / "manifest.jsonl",
                    "--split", small_corpus / "split.json", "--features", small_corpus,
                    "--feature", "emb", "--profile", "tiny", "--split-name", "val",
                    "--model-dir", bad_dir, "--out", tmp_path / "o"]) == 5


def _corrupt_checkpoint(blob, data):
    """blob with one drawn fault: random bytes after a kept prefix, a
    truncation, appended bytes, a changed header length, or one header
    field replaced by a JSON value that no model accepts there."""
    fault = data.draw(st.sampled_from(["random", "truncate", "append", "length", "field"]),
                      label="fault")
    event(fault)
    if fault == "random":
        # nothing, the magic, or the magic, version and header length
        kept = data.draw(st.sampled_from([0, 4, 12]), label="kept prefix")
        return blob[:kept] + data.draw(st.binary(max_size=256), label="bytes")
    if fault == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="truncate at")]
    if fault == "append":
        return blob + data.draw(st.binary(min_size=1, max_size=64), label="appended")
    header_len = int.from_bytes(blob[8:12], "little")
    if fault == "length":
        new = data.draw(st.integers(0, 2 ** 32 - 1).filter(lambda v: v != header_len),
                        label="header length")
        return blob[:8] + struct.pack("<I", new) + blob[12:]
    header = json.loads(blob[12: 12 + header_len])
    owners = [(header, k) for k in header]
    owners += [(header["feature_spec"], k) for k in header["feature_spec"]]
    owners += [(header["head_widths"], i) for i in range(len(header["head_widths"]))]
    owner, key = data.draw(st.sampled_from(owners), label="field")
    old = owner[key]
    values = (st.sampled_from([math.inf, -math.inf, math.nan])
              | st.sampled_from([None, True, False, 2.5, 1e308])
              | st.integers(-2 ** 70, 2 ** 70)
              | st.text(string.ascii_letters, max_size=6)
              | st.lists(st.integers(-2, 600) | st.sampled_from([math.inf, math.nan]),
                         max_size=5))
    # "right" is the one other channels mode a model may have
    owner[key] = data.draw(values.filter(lambda v: v != old and not (
        key == "channels" and v == "right")), label="value")
    text = json.dumps(header, sort_keys=True).encode()
    return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + header_len:]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_checkpoint_exits_5(small_corpus, model_dir, data):
    blob = _corrupt_checkpoint((model_dir / "checkpoint_r0.bin").read_bytes(), data)
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "checkpoint_r0.bin"), "wb") as fh:
            fh.write(blob)
        code = run_cli(["eval", "--manifest", small_corpus / "manifest.jsonl",
                        "--split", small_corpus / "split.json", "--features", small_corpus,
                        "--feature", "emb", "--profile", "tiny", "--split-name", "val",
                        "--model-dir", tmp, "--out", os.path.join(tmp, "o")])
    assert code == 5


def test_non_finite_checkpoint_exits_5(fixtures_dir, model_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    blob = bytearray((model_dir / "checkpoint_r0.bin").read_bytes())
    header_len = int.from_bytes(blob[8:12], "little")
    blob[12 + header_len: 16 + header_len] = np.float32(np.nan).tobytes()
    bad_dir = tmp_path / "model"
    bad_dir.mkdir()
    (bad_dir / "checkpoint_r0.bin").write_bytes(bytes(blob))
    code = run_cli(["eval", "--manifest", emb / "manifest.jsonl",
                    "--split", emb / "split.json", "--features", emb,
                    "--feature", "emb", "--profile", "tiny",
                    "--model-dir", bad_dir, "--out", tmp_path / "o"])
    assert code == 5
    assert not (tmp_path / "o" / "metrics.csv").exists()


def test_unknown_calibration_split_exits_9(fixtures_dir, model_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    code = run_cli(["eval", "--manifest", emb / "manifest.jsonl",
                    "--split", emb / "split.json", "--features", emb,
                    "--feature", "emb", "--profile", "tiny",
                    "--model-dir", model_dir, "--split-name", "val",
                    "--calibration-split", "holdout", "--out", tmp_path])
    assert code == 9


def test_eval_reads_each_clip_once_across_runs(fixtures_dir, model_dir, tmp_path,
                                               monkeypatch):
    from talkover import features
    emb = fixtures_dir / "embeddings"
    two_runs = tmp_path / "model"
    two_runs.mkdir()
    for run in (0, 1):
        shutil.copy(model_dir / "checkpoint_r0.bin", two_runs / ("checkpoint_r%d.bin" % run))
    paths = []
    real_load = features.load_embeddings
    monkeypatch.setattr(features, "load_embeddings",
                        lambda path, profile: paths.append(path) or real_load(path, profile))
    code = run_cli(["eval", "--manifest", emb / "manifest.jsonl",
                    "--split", emb / "split.json", "--features", emb,
                    "--feature", "emb", "--profile", "tiny", "--runs", 2,
                    "--model-dir", two_runs, "--calibration-split", "val",
                    "--out", tmp_path / "o"])
    assert code == 0
    split = json.loads((emb / "split.json").read_text())
    assert len(paths) == len(set(paths)) == len(split["test"]) + len(split["val"])
    with open(tmp_path / "o" / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][1:] == rows[2][1:]  # the same checkpoint twice scores the same


def eval_on_an_infinite_threshold_split(fixtures_dir, model_dir, tmp_path, checkpoints):
    """metrics.csv's rows from eval of the checkpoints, in run order,
    calibrated on the negatives checkpoint_r0 emits as
    failed_interruption: no threshold on them meets a 1% FPR target,
    so checkpoint_r0 calibrates to an infinite tau."""
    from talkover import model as model_mod
    from talkover.features import PROFILES, load_embeddings
    emb = fixtures_dir / "embeddings"
    records = {r.clip_id: r for r in read_manifest(emb / "manifest.jsonl")}
    split = json.loads((emb / "split.json").read_text())
    ids = split["train"] + split["val"]
    feats = [load_embeddings(emb / (cid + ".sie"), PROFILES["tiny"]) for cid in ids]
    labels = [CLASSES.index(records[cid].label) for cid in ids]
    probs = model_mod.forward_batch(model_mod.load_model(model_dir / "checkpoint_r0.bin"), feats)
    positive = CLASSES.index("failed_interruption")
    split["calib"] = [cid for cid, p, y in zip(ids, probs.argmax(axis=1).tolist(), labels)
                      if p == positive != y]
    assert 0 < len(split["calib"]) < 100
    (tmp_path / "split.json").write_text(json.dumps(split))
    model = tmp_path / "model"
    model.mkdir()
    for run, net in enumerate(checkpoints):
        model_mod.save_model(net, model / ("checkpoint_r%d.bin" % run))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli(["eval", "--manifest", emb / "manifest.jsonl",
                        "--split", tmp_path / "split.json", "--features", emb,
                        "--feature", "emb", "--profile", "tiny", "--runs", len(checkpoints),
                        "--model-dir", model, "--calibration-split", "calib",
                        "--fpr-target", 0.01, "--out", tmp_path / "o"])
    assert code == 0
    with open(tmp_path / "o" / "metrics.csv", newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("runs", [1, 2])
def test_eval_sd_of_an_infinite_threshold_is_zero(fixtures_dir, model_dir, tmp_path, runs):
    from talkover.model import load_model
    net = load_model(model_dir / "checkpoint_r0.bin")
    rows = eval_on_an_infinite_threshold_split(fixtures_dir, model_dir, tmp_path, [net] * runs)
    assert [row[3] for row in rows[1:runs + 2]] == ["inf"] * (runs + 1)
    assert rows[-1] == ["sd", "0", "0", "0", "0"]


def test_eval_sd_of_runs_that_disagree_on_an_infinite_threshold_is_inf(
        fixtures_dir, model_dir, tmp_path):
    # run 1 never emits failed_interruption, so none of its calibration
    # negatives is a false positive and it calibrates to a finite tau
    from talkover.model import load_model
    nets = [load_model(model_dir / "checkpoint_r0.bin") for _ in range(2)]
    last_bias = [name for name in nets[1].params if name.startswith("head_b")][-1]
    nets[1].params[last_bias][CLASSES.index("failed_interruption")] = -100.0
    rows = eval_on_an_infinite_threshold_split(fixtures_dir, model_dir, tmp_path, nets)
    assert rows[1][3] == "inf" and math.isfinite(float(rows[2][3]))
    assert rows[-2][3] == rows[-1][3] == "inf"
    assert all(math.isfinite(float(v)) for v in rows[-1][1:3] + rows[-1][4:])


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("fault, code", [("unknown clip", 9), ("label not a class", 7)])
def test_split_clip_the_manifest_cannot_serve_exits(fixtures_dir, model_dir, tmp_path,
                                                     capsys, command, fault, code):
    emb = fixtures_dir / "embeddings"
    manifest, split = emb / "manifest.jsonl", read_split(emb / "split.json")
    if fault == "unknown clip":
        split = {name: ids + ["ghost"] for name, ids in split.items()}
        expected = "split references unknown clip ghost"
    else:
        records = read_manifest(manifest)
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(manifest, [dataclasses.replace(r, label="other") for r in records])
        expected = "has label 'other'"
    write_split(tmp_path / "split.json", split)
    extra = ["--model-dir", model_dir] if command == "eval" else ["--epochs", 1]
    capsys.readouterr()
    assert run_cli([command, "--manifest", manifest, "--split", tmp_path / "split.json",
                    "--features", emb, "--feature", "emb", "--profile", "tiny",
                    "--out", tmp_path / "o"] + extra) == code
    assert expected in capsys.readouterr().err
    assert os.listdir(tmp_path / "o") == []


def test_unknown_split_name_exits_9(fixtures_dir, model_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    code = run_cli(["eval", "--manifest", emb / "manifest.jsonl",
                    "--split", emb / "split.json", "--features", emb,
                    "--feature", "emb", "--profile", "tiny",
                    "--model-dir", model_dir, "--split-name", "holdout",
                    "--out", tmp_path])
    assert code == 9


@pytest.mark.parametrize("edit, err", [
    ("no train", "error: split file has no 'train' entry\n"),
    ("train twice", "lists clip %s more than once\n"),
])
def test_train_without_a_list_of_distinct_train_clips_exits_9(fixtures_dir, tmp_path,
                                                              capsys, edit, err):
    emb = fixtures_dir / "embeddings"
    split = read_split(emb / "split.json")
    if edit == "no train":
        del split["train"]
    else:
        split["train"].append(split["train"][0])
        err %= split["train"][0]
    write_split(tmp_path / "split.json", split)
    capsys.readouterr()
    assert run_cli(["train", "--manifest", emb / "manifest.jsonl",
                    "--split", tmp_path / "split.json", "--features", emb,
                    "--feature", "emb", "--profile", "tiny", "--epochs", 1,
                    "--out", tmp_path / "o"]) == 9
    assert capsys.readouterr().err.endswith(err)
    assert os.listdir(tmp_path / "o") == []


def test_split_without_negatives_exits_6(fixtures_dir, model_dir, tmp_path, capsys):
    emb = fixtures_dir / "embeddings"
    labels = {r.clip_id: r.label for r in read_manifest(emb / "manifest.jsonl")}
    positives = [c for c in read_split(emb / "split.json")["val"]
                 if labels[c] == "failed_interruption"]
    split = tmp_path / "split.json"
    write_split(split, {"val": positives})
    code = run_cli(["eval", "--manifest", emb / "manifest.jsonl",
                    "--split", split, "--features", emb,
                    "--feature", "emb", "--profile", "tiny",
                    "--model-dir", model_dir, "--split-name", "val",
                    "--out", tmp_path / "o"])
    assert code == 6
    assert capsys.readouterr().err.startswith("error: ")


def test_extract_finds_the_engineered_overlaps(extract_out, capsys):
    records = read_manifest(extract_out / "manifest.jsonl")
    assert [r.clip_id for r in records] == ["m0_bob_0025000", "m0_carol_0055000"]
    assert records[0].onset_s == 25.0
    assert records[1].interrupter_id == "carol"

    for r in records:
        rate, frames = read_wav_data(extract_out / r.wav_path)
        assert rate == 16000
        assert frames.shape == (160000, 2)
        assert np.max(np.abs(frames)) > 0.01

    config = json.loads((extract_out / "config.json").read_text())
    assert config["command"] == "extract"
    assert config["arguments"]["min_presilence"] == 3.0
    assert "func" not in config["arguments"]


def test_extract_reports_rejections(fixtures_dir, tmp_path, capsys):
    code = run_cli(["extract", "--meetings", fixtures_dir / "audio" / "meetings.json",
                    "--out", tmp_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "candidates: 2" in out
    assert "rejected no_other_speaker: 6" in out
    assert "rejected presilence_too_short: 1" in out
    assert "rejected utterance_too_short: 1" in out


def test_featurize_mfcc_and_spec(extract_out, tmp_path):
    for feature, shape in (("mfcc", [80, 401]), ("spec", [514, 313])):
        out = tmp_path / feature
        code = run_cli(["featurize", "--manifest", extract_out / "manifest.jsonl",
                        "--feature", feature, "--out", out])
        assert code == 0
        shapes = json.loads((out / "shapes.json").read_text())
        assert shapes == {"m0_bob_0025000": shape, "m0_carol_0055000": shape}
        arr = np.load(out / "m0_bob_0025000.npy")
        assert list(arr.shape) == shape


def test_featurize_bytes_do_not_depend_on_the_blas_thread_count(extract_out, tmp_path):
    # OpenBLAS splits a product over threads only where it is large
    # enough; the MFCC's DCT product is, so a split that changed its sums
    # would show here
    for feature in ("mfcc", "spec"):
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / ("%s_%s" % (feature, threads))
            proc = subprocess.run(
                [sys.executable, "-m", "talkover.cli", "featurize", "--manifest",
                 extract_out / "manifest.jsonl", "--feature", feature, "--out", out],
                capture_output=True, text=True,
                env=dict(_src_env(), OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            blobs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.npy"))})
        assert len(blobs[0]) == 2
        assert blobs[0] == blobs[1], feature


def test_pipeline_bytes_do_not_depend_on_the_blas_thread_count(fixtures_dir, tmp_path):
    # the classifier's head and backward pass, and the propensity fit's
    # Newton steps, multiply matrices through BLAS too
    emb = fixtures_dir / "embeddings"
    corpus = ["--manifest", emb / "manifest.jsonl", "--split", emb / "split.json",
              "--features", "feat", "--feature", "emb", "--profile", "tiny"]
    commands = [
        ["extract", "--meetings", fixtures_dir / "audio" / "meetings.json", "--out", "clips"],
        ["featurize", "--manifest", emb / "manifest.jsonl", "--feature", "emb",
         "--profile", "tiny", "--out", "feat"],
        ["train", *corpus, "--epochs", 3, "--out", "model"],
        ["eval", *corpus, "--model-dir", "model", "--out", "eval"],
        ["impact", "--telemetry", fixtures_dir / "telemetry" / "telemetry.csv",
         "--bootstrap", "--out", "impact"],
    ]
    runs = []
    for threads in ("1", "2"):
        # outputs are named relative to the run's directory, so each
        # config.json echoes the same arguments
        cwd = tmp_path / threads
        cwd.mkdir()
        stdout = []
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "talkover.cli", *map(str, argv)],
                                  cwd=cwd, capture_output=True, text=True,
                                  env=dict(_src_env(), OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            stdout.append(proc.stdout)
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for p in sorted(cwd.rglob("*")) if p.is_file()}
        runs.append((stdout, files))
    (stdout_1, files_1), (stdout_2, files_2) = runs
    assert stdout_1 == stdout_2
    assert sorted(files_1) == sorted(files_2)
    assert {"model/checkpoint_r0.bin", "eval/metrics.csv", "impact/report.json"} <= set(files_1)
    assert [name for name in files_1 if files_1[name] != files_2[name]] == []


@pytest.mark.parametrize("seconds", [9, 11])
def test_featurize_clip_of_wrong_length_exits_3(tmp_path, capsys, seconds):
    wav = tmp_path / "clips" / "m0_bob_0025000.wav"
    wav.parent.mkdir()
    write_wav(wav, np.zeros((seconds * SAMPLE_RATE, 2)))
    write_manifest(tmp_path / "manifest.jsonl",
                   [ClipRecord("m0_bob_0025000", "m0", "bob", 25.0,
                               os.path.join("clips", wav.name))])
    capsys.readouterr()
    assert run_cli(["featurize", "--manifest", tmp_path / "manifest.jsonl",
                    "--feature", "mfcc", "--out", tmp_path / "o"]) == 3
    assert str(wav) in capsys.readouterr().err
    assert not (tmp_path / "o" / "m0_bob_0025000.npy").exists()


def _clip_corpus(directory, frames):
    """One clip WAV holding frames, and its clip manifest."""
    wav = directory / "clips" / "m0_bob_0025000.wav"
    wav.parent.mkdir(parents=True)
    write_wav(wav, frames)
    write_manifest(directory / "manifest.jsonl",
                   [ClipRecord("m0_bob_0025000", "m0", "bob", 25.0,
                               os.path.join("clips", wav.name))])
    return wav


def test_featurize_of_a_clip_holding_a_nan_exits_3(tmp_path, capsys):
    # write_wav refuses a NaN, so it is patched into the last 5 s that
    # mfcc reads
    frames = np.random.default_rng(12).uniform(-0.5, 0.5, (10 * SAMPLE_RATE, 2))
    wav = _clip_corpus(tmp_path, frames.astype(np.float32))
    with open(wav, "r+b") as fh:
        fh.seek(-4 * 2 * SAMPLE_RATE, os.SEEK_END)
        fh.write(np.float32(np.nan).tobytes())
    capsys.readouterr()
    assert run_cli(["featurize", "--manifest", tmp_path / "manifest.jsonl",
                    "--feature", "mfcc", "--out", tmp_path / "o"]) == 3
    assert capsys.readouterr().err == "error: %s: non-finite values\n" % wav
    assert not (tmp_path / "o" / "m0_bob_0025000.npy").exists()


@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
def test_track_cut_after_its_check_exits_3_at_the_read(fixtures_dir, tmp_path, capsys,
                                                       encoding):
    # load_wav checks the track, which then loses its second half before
    # vad reads it: a float32 track through WavChannel.window, a PCM16
    # one through WavChannel.stored
    from talkover import audio
    meeting = json.loads((fixtures_dir / "audio" / "meetings.json").read_text())["meetings"][0]
    for ch in meeting["channels"]:
        rate, samples = read_wav_data(fixtures_dir / "audio" / ch["wav_path"])
        ch["wav_path"] = ch["participant_id"] + ".wav"
        write_wav(tmp_path / ch["wav_path"], samples, rate, encoding)
    (tmp_path / "meetings.json").write_text(json.dumps({"meetings": [meeting]}))
    victim = str(tmp_path / meeting["channels"][-1]["wav_path"])
    real_load = audio.load_wav

    def load_then_cut(path, participant_id=None):
        channel = real_load(path, participant_id)
        if path == victim:
            os.truncate(path, os.path.getsize(path) // 2)
        return channel

    capsys.readouterr()
    with mock.patch.object(audio, "load_wav", load_then_cut):
        assert run_cli(["extract", "--meetings", tmp_path / "meetings.json",
                        "--out", tmp_path / "o"]) == 3
    assert capsys.readouterr().err == "error: %s: file shrank after it was checked\n" % victim
    assert not (tmp_path / "o" / "manifest.jsonl").exists()


@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
def test_clip_cut_after_its_check_exits_3_at_the_read(tmp_path, capsys, encoding):
    # load_clip checks the header, then the clip loses its last frame
    # before read_wav_into reads it
    from talkover import audio
    frames = np.random.default_rng(14).uniform(-0.5, 0.5, (10 * SAMPLE_RATE, 2))
    wav = _clip_corpus(tmp_path, frames.astype(np.float32))
    write_wav(wav, frames, SAMPLE_RATE, encoding)
    real_layout = audio.wav_layout

    def layout_then_cut(path, n_channels):
        layout = real_layout(path, n_channels)
        os.truncate(path, os.path.getsize(path) - 1)
        return layout

    capsys.readouterr()
    with mock.patch.object(audio, "wav_layout", layout_then_cut):
        assert run_cli(["featurize", "--manifest", tmp_path / "manifest.jsonl",
                        "--feature", "mfcc", "--out", tmp_path / "o"]) == 3
    assert capsys.readouterr().err == "error: %s: file shrank after it was checked\n" % wav
    assert not (tmp_path / "o" / "m0_bob_0025000.npy").exists()


def test_featurize_clips_samples_beyond_one(tmp_path):
    frames = np.random.default_rng(13).uniform(-3.0, 3.0, (10 * SAMPLE_RATE, 2))
    outs = []
    for name, clip in (("loud", frames), ("clipped", np.clip(frames, -1.0, 1.0))):
        _clip_corpus(tmp_path / name, clip.astype(np.float32))
        assert run_cli(["featurize", "--manifest", tmp_path / name / "manifest.jsonl",
                        "--feature", "mfcc", "--out", tmp_path / name / "o"]) == 0
        outs.append((tmp_path / name / "o" / "m0_bob_0025000.npy").read_bytes())
    assert outs[0] == outs[1]


def test_featurize_emb_copies_files_and_may_run_in_place(small_corpus, tmp_path):
    for name in os.listdir(small_corpus):
        shutil.copy(small_corpus / name, tmp_path / name)
    argv = ["featurize", "--manifest", tmp_path / "manifest.jsonl", "--feature", "emb",
            "--profile", "tiny"]
    assert run_cli(argv + ["--out", tmp_path / "copy"]) == 0
    assert run_cli(argv + ["--out", tmp_path]) == 0
    sie = sorted(n for n in os.listdir(small_corpus) if n.endswith(".sie"))
    for name in sie:
        original = (small_corpus / name).read_bytes()
        assert (tmp_path / "copy" / name).read_bytes() == (tmp_path / name).read_bytes() == original
    shapes = json.loads((tmp_path / "shapes.json").read_text())
    assert len(shapes) == len(sie) and all(s == [2, 5, 32, 249] for s in shapes.values())


def test_featurize_emb_reads_the_sie_beside_a_wav_clip(small_corpus, tmp_path):
    # an extract manifest names clip WAVs; encoder outputs placed beside
    # them as <clip>.sie are what featurize --feature emb reads
    records = read_manifest(small_corpus / "manifest.jsonl")
    (tmp_path / "clips").mkdir()
    for rec in records:
        shutil.copy(small_corpus / rec.wav_path, tmp_path / "clips" / rec.wav_path)
    write_manifest(tmp_path / "manifest.jsonl",
                   [dataclasses.replace(rec, wav_path="clips/%s.wav" % rec.clip_id)
                    for rec in records])
    assert run_cli(["featurize", "--manifest", tmp_path / "manifest.jsonl",
                    "--feature", "emb", "--profile", "tiny", "--out", tmp_path / "o"]) == 0
    for rec in records:
        name = rec.clip_id + ".sie"
        assert (tmp_path / "o" / name).read_bytes() == (small_corpus / name).read_bytes()


def test_mismatched_npy_frame_count_exits_5(tmp_path):
    # matrix clips are pooled one at a time, so nothing stacks them; a clip
    # whose shape differs from the first must still exit 5
    rng = np.random.default_rng(31)
    records, split = [], {"train": [], "test": []}
    for name in split:
        for label in CLASSES:
            clip_id = "%s_%s" % (name, label)
            np.save(tmp_path / (clip_id + ".npy"), rng.normal(size=(6, 5)))
            records.append(ClipRecord(clip_id, "m0", "p0", 5.0, clip_id + ".wav", label))
            split[name].append(clip_id)
    write_manifest(tmp_path / "manifest.jsonl", records)
    write_split(tmp_path / "split.json", split)
    common = ["--manifest", tmp_path / "manifest.jsonl", "--split", tmp_path / "split.json",
              "--features", tmp_path, "--feature", "mfcc"]
    train = ["train", *common, "--epochs", 1, "--out", tmp_path / "model"]
    assert run_cli(train) == 0
    for clip_id in ("train_interruption", "test_laughter"):
        np.save(tmp_path / (clip_id + ".npy"), rng.normal(size=(6, 7)))
    assert run_cli(train) == 5
    assert run_cli(["eval", *common, "--model-dir", tmp_path / "model", "--threshold", 0.5,
                    "--out", tmp_path / "eval"]) == 5


def test_train_writes_checkpoint_and_history(model_dir):
    assert (model_dir / "checkpoint_r0.bin").is_file()
    history = json.loads((model_dir / "history_r0.json").read_text())
    assert history["seed"] == 0
    assert len(history["train_loss"]) == history["stopped_epoch"] == 2
    assert len(history["val_loss"]) == 2
    # softmax(layer_logits) after each epoch, one weight per tiny layer
    assert [len(w) for w in history["layer_weights"]] == [5, 5]
    assert all(math.isclose(sum(w), 1.0, abs_tol=1e-12) for w in history["layer_weights"])
    config = json.loads((model_dir / "config.json").read_text())
    assert config["command"] == "train"
    assert config["arguments"]["epochs"] == 2


def test_eval_writes_metric_files(fixtures_dir, model_dir, tmp_path, capsys):
    emb = fixtures_dir / "embeddings"
    code = run_cli(["eval", "--manifest", emb / "manifest.jsonl",
                    "--split", emb / "split.json", "--features", emb,
                    "--feature", "emb", "--profile", "tiny",
                    "--model-dir", model_dir, "--split-name", "val",
                    "--out", tmp_path])
    assert code == 0
    # the 20 val clips per class hold 60 negatives; the warning is one
    # line of the program's, not Python's with a source location
    assert capsys.readouterr().err == ("warning: only 60 negatives for a 0.01 FPR target; "
                                       "the realized FPR is coarse\n")
    for name in ("confusion_r0.csv", "report_r0.csv", "roc_r0.csv", "metrics.csv"):
        assert (tmp_path / name).is_file(), name

    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "auc", "tpr", "threshold", "realized_fpr"]
    assert [r[0] for r in rows[1:]] == ["0", "mean", "sd"]
    assert 0.0 <= float(rows[1][1]) <= 1.0


def test_eval_with_fixed_threshold(fixtures_dir, model_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    code = run_cli(["eval", "--manifest", emb / "manifest.jsonl",
                    "--split", emb / "split.json", "--features", emb,
                    "--feature", "emb", "--profile", "tiny",
                    "--model-dir", model_dir, "--split-name", "val",
                    "--threshold", 0.5, "--out", tmp_path])
    assert code == 0
    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][3] == "0.5"


def test_labels_consensus_and_accuracy(fixtures_dir, tmp_path):
    votes_dir = fixtures_dir / "votes"
    code = run_cli(["labels", "--votes", votes_dir / "votes.csv",
                    "--golden", votes_dir / "golden.json", "--out", tmp_path])
    assert code == 0

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["clips"] == 24
    assert summary["accepted"] == 20
    assert summary["rejected"] == 4
    assert set(summary["per_label"].values()) == {4}

    lines = (tmp_path / "consensus.jsonl").read_text().splitlines()
    assert len(lines) == 24
    first = json.loads(lines[0])
    assert first["clip_id"] == "vote_0000"
    assert first["agreement"] == 1.0 and first["votes"] == 7

    acc = json.loads((tmp_path / "annotator_accuracy.json").read_text())
    assert all(v["accuracy"] == 1.0 for v in acc.values())


def test_labels_merges_manifest_and_lower_threshold(fixtures_dir, tmp_path):
    manifest = tmp_path / "clips.jsonl"
    manifest.write_text(json.dumps({
        "clip_id": "vote_0000", "meeting_id": "m9", "interrupter_id": "dana",
        "onset_s": 8.0, "wav_path": "clips/vote_0000.wav"}) + "\n")
    code = run_cli(["labels", "--votes", fixtures_dir / "votes" / "votes.csv",
                    "--manifest", manifest, "--threshold", 0.5,
                    "--out", tmp_path / "o"])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["accepted"] == 24  # 4-of-7 clips clear a 0.5 bar

    lines = [json.loads(l) for l in
             (tmp_path / "o" / "consensus.jsonl").read_text().splitlines()]
    merged = next(l for l in lines if l["clip_id"] == "vote_0000")
    assert merged["meeting_id"] == "m9"
    assert merged["wav_path"] == "clips/vote_0000.wav"
    assert "label" in merged


def test_kappa_matches_library(fixtures_dir, tmp_path):
    votes_path = fixtures_dir / "votes" / "votes.csv"
    assert run_cli(["kappa", "--votes", votes_path, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "kappa.json").read_text())

    table, clip_ids = votes_to_table(read_votes_csv(votes_path))
    assert report["kappa"] == fleiss_kappa(table)
    assert report["n_clips"] == len(clip_ids) == 24
    assert report["ratings_per_clip"] == 7
    assert len(report["categories"]) == 5
    assert 0.0 < report["kappa"] < 1.0


def test_impact_report(fixtures_dir, tmp_path):
    code = run_cli(["impact", "--telemetry",
                    fixtures_dir / "telemetry" / "telemetry.csv",
                    "--out", tmp_path])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_records"] == 4000
    assert report["n_eligible"] + report["n_excluded_small_meetings"] == 4000
    assert report["n_bins"] == 5
    lo, hi = report["ci95"]
    assert lo <= report["delta"] <= hi
    assert report["naive_delta"] > report["delta"]


def test_impact_report_is_strict_json_when_an_smd_is_infinite(tmp_path, capsys):
    # on these 40 meetings video_used is constant in each arm of a bin
    # and differs between them, so its SMD there is infinite
    path = tmp_path / "telemetry.csv"
    write_telemetry_csv(path, synth.make_telemetry(40, 2))
    assert run_cli(["impact", "--telemetry", path, "--out", tmp_path / "o"]) == 0
    # a stratum lacking an arm is dropped, with one line of warning
    err = capsys.readouterr().err
    assert re.fullmatch(r"warning: dropping strata \[\d+(, \d+)*\] with no treated or no "
                        r"control meetings; weights renormalized\n", err), err

    def refuse(name):
        raise ValueError("non-standard JSON constant %s" % name)
    with open(tmp_path / "o" / "report.json") as fh:
        report = json.load(fh, parse_constant=refuse)
    assert report["balance"]["summary"]["video_used"] is None
    assert None in [smds["video_used"] for smds in report["balance"]["per_bin"].values()]


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "talkover.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("extract", "featurize", "train", "eval", "labels",
                 "kappa", "impact", "gen-fixtures"):
        assert name in proc.stdout

    if shutil.which("talkover"):
        target = "talkover on PATH"
        console = subprocess.run(["talkover", "--help"], capture_output=True, text=True)
    else:
        # Uninstalled checkout: run the declared [project.scripts] target the
        # way an installed launcher would. What is no longer checked here is
        # that an installer put the executable on PATH.
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
        assert "talkover" in scripts, (
            f"pyproject.toml [project.scripts] declares no talkover script: {scripts}")
        target = f"[project.scripts] talkover = {scripts['talkover']!r}"
        console = subprocess.run(
            [sys.executable, "-c", CONSOLE_LAUNCHER, scripts["talkover"], "--help"],
            capture_output=True, text=True)
    assert console.returncode == 0, (
        f"{target} exited {console.returncode} on --help; stderr:\n{console.stderr}")
    assert "interruption" in console.stdout, f"{target} --help printed:\n{console.stdout}"


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src_dir = os.path.dirname(os.path.dirname(talkover.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


def test_labels_reads_utf8_text_whatever_the_locale(tmp_path):
    votes = tmp_path / "votes.csv"
    votes.write_text("clip_id,annotator_id,label\n"
                     + "".join("r\u00e9union_%d,%s,%s\n" % (i, who, label)
                               for i, labels in enumerate([["laughter"] * 3,
                                                           ["other", "other", "laughter"]])
                               for who, label in zip(["jos\u00e9", "zo\u00eb", "\u674e"],
                                                     labels)),
                     encoding="utf-8")
    golden = tmp_path / "golden.json"
    golden.write_text('{"r\u00e9union_0": "laughter"}', encoding="utf-8")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps(ClipRecord("r\u00e9union_0", "r\u00e9union", "jos\u00e9",
                                              5.0, "clips/r\u00e9union_0.wav").to_dict(),
                                   ensure_ascii=False) + "\n", encoding="utf-8")
    env = _src_env()
    ascii_env = dict(env, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    outputs = {}
    for name, child_env in (("default", env), ("ascii", ascii_env)):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "talkover.cli", "labels",
                               "--votes", votes, "--golden", golden, "--manifest", manifest,
                               "--out", out], capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0, proc.stderr
        outputs[name] = {p.name: p.read_bytes().replace(bytes(out), b"<out>")
                         for p in out.iterdir()}
    assert outputs["ascii"] == outputs["default"]
    assert json.loads(outputs["ascii"]["consensus.jsonl"].splitlines()[0])["meeting_id"] == \
        "r\u00e9union"


def test_a_name_the_locale_cannot_encode_exits_9(small_corpus, fixtures_dir, tmp_path):
    # under a C locale without UTF-8 mode the file system encoding is
    # ASCII: featurize cannot open a clip's file named by a non-ASCII
    # clip id and wav_path, nor extract a non-ASCII track, though labels
    # reads and writes the same manifest
    sie = sorted(n for n in os.listdir(small_corpus) if n.endswith(".sie"))[0]
    shutil.copy(small_corpus / sie, tmp_path / "r\u00e9union.sie")
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(manifest, [ClipRecord("r\u00e9union", "m0", "p0", 5.0, "r\u00e9union.wav")])
    votes = tmp_path / "votes.csv"
    votes.write_text("clip_id,annotator_id,label\n" + "".join(
        "r\u00e9union,a%d,laughter\n" % i for i in range(3)), encoding="utf-8")
    meeting = json.loads((fixtures_dir / "audio" / "meetings.json").read_text())["meetings"][0]
    for ch in meeting["channels"]:
        name = "r\u00e9union_" + ch["wav_path"]
        shutil.copy(fixtures_dir / "audio" / ch["wav_path"], tmp_path / name)
        ch["wav_path"] = name
    meetings = tmp_path / "meetings.json"
    meetings.write_text(json.dumps({"meetings": [meeting]}))
    featurize = ["featurize", "--manifest", manifest, "--feature", "emb", "--profile", "tiny"]
    runs = {"featurize": featurize, "extract": ["extract", "--meetings", meetings],
            "labels": ["labels", "--votes", votes, "--manifest", manifest]}
    env = _src_env()
    ascii_env = dict(env, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")

    def run(name, child_env):
        return subprocess.run([sys.executable, "-m", "talkover.cli", *map(str, runs[name]),
                               "--out", str(tmp_path / name)],
                              capture_output=True, text=True, env=child_env)

    assert run("featurize", env).returncode == 0
    assert run("labels", ascii_env).returncode == 0
    for name, unencodable in (("featurize", tmp_path / "r\u00e9union.sie"),
                              ("extract", tmp_path / meeting["channels"][0]["wav_path"])):
        proc = run(name, ascii_env)
        assert proc.returncode == 9, proc.stderr
        assert proc.stderr == "error: %s cannot be encoded as a file name: 'ascii' codec " \
            "can't encode character '\\xe9' in position %d: ordinal not in range(128)\n" % (
                ascii(str(unencodable)), len(str(tmp_path)) + 2)


def test_cli_import_loads_no_scipy():
    # scipy.stats and scipy.fft cost over a second of start-up per
    # command; a stray import would not fail anything else.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, talkover.cli\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _imported_modules(argv):
    """Every module a talkover.cli child imports, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "talkover.cli",
                           *map(str, argv)], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("command", ["extract", "featurize", "train", "eval", "labels",
                                     "kappa", "impact", "gen-fixtures"])
def test_help_loads_no_numpy(command):
    modules = _imported_modules([command, "--help"])
    assert "talkover.errors" in modules  # the CLI module ran as __main__
    assert not {m for m in modules if m.split(".")[0] == "numpy"}


@pytest.mark.parametrize("command, module", [("labels", "talkover.labels"),
                                             ("labels", "talkover.manifest"),
                                             ("kappa", "talkover.labels"),
                                             ("impact", "talkover.causal")])
def test_table_commands_load_no_audio_or_classifier_code(fixtures_dir, tmp_path, command,
                                                         module):
    inputs = {"labels": ["--votes", fixtures_dir / "votes" / "votes.csv",
                         "--golden", fixtures_dir / "votes" / "golden.json"],
              "kappa": ["--votes", fixtures_dir / "votes" / "votes.csv"],
              "impact": ["--telemetry", fixtures_dir / "telemetry" / "telemetry.csv",
                         "--bootstrap", "--bootstrap-samples", 3]}[command]
    if module == "talkover.manifest":  # labels --manifest reads a clip manifest
        inputs += ["--manifest", fixtures_dir / "embeddings" / "manifest.jsonl"]
    modules = _imported_modules([command, *inputs, "--out", tmp_path])
    assert module in modules
    assert not modules & {"talkover.audio", "talkover.features", "talkover.model",
                          "talkover.overlap"}


def test_impact_bootstrap_loads_no_numpy_ma(fixtures_dir, tmp_path):
    # np.quantile, and np.unique without return flags, import numpy.ma:
    # about 20 ms and 2 MiB of peak RSS that impact has no use for
    modules = _imported_modules(["impact", "--telemetry",
                                 fixtures_dir / "telemetry" / "telemetry.csv",
                                 "--bootstrap", "--bootstrap-samples", 3, "--out", tmp_path])
    assert "talkover.causal" in modules
    assert "numpy.ma" not in modules


@pytest.mark.parametrize("command", ["featurize", "train", "eval", "gen-fixtures"])
def test_profile_choices_are_the_feature_profiles(command):
    # the parser lists the profiles without importing talkover.features
    from talkover.features import PROFILES
    proc = subprocess.run([sys.executable, "-m", "talkover.cli", command, "--help"],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    choices = re.search(r"--profile \{([^}]*)\}", proc.stdout).group(1)
    assert choices.split(",") == sorted(PROFILES)


def test_runtime_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    # every runtime dependency here imports under its distribution name
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in declared}

    imported = set()
    for path in sorted((REPO_ROOT / "src" / "talkover").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported.update(n.split(".")[0] for n in names
                            if n.split(".")[0] not in sys.stdlib_module_names)
    assert imported == declared == {"numpy"}
