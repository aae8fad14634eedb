import ast
import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import talkover
from conftest import run_cli
from talkover import synth
from talkover.audio import read_wav_data
from talkover.causal import write_telemetry_csv
from talkover.labels import fleiss_kappa, read_votes_csv, votes_to_table
from talkover.manifest import read_manifest

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


def test_missing_input_exits_10(tmp_path):
    code = run_cli(["kappa", "--votes", tmp_path / "nope.csv", "--out", tmp_path])
    assert code == 10


def test_bad_votes_header_exits_7(tmp_path):
    votes = tmp_path / "votes.csv"
    votes.write_text("who,what,when\na,b,c\n")
    assert run_cli(["labels", "--votes", votes, "--out", tmp_path]) == 7


def test_wrong_profile_exits_4(fixtures_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    code = run_cli(["featurize", "--manifest", emb / "manifest.jsonl",
                    "--feature", "emb", "--profile", "base", "--out", tmp_path])
    assert code == 4


def test_meetings_without_channel_list_exits_9(tmp_path):
    bad = tmp_path / "meetings.json"
    bad.write_text(json.dumps({"meetings": [{"meeting_id": "x", "channels": []}]}))
    assert run_cli(["extract", "--meetings", bad, "--out", tmp_path]) == 9


def test_unreadable_wav_exits_3(tmp_path):
    (tmp_path / "a.wav").write_text("not audio")
    (tmp_path / "b.wav").write_text("still not audio")
    doc = {"meetings": [{"meeting_id": "x", "channels": [
        {"participant_id": "a", "wav_path": "a.wav"},
        {"participant_id": "b", "wav_path": "b.wav"}]}]}
    meetings = tmp_path / "meetings.json"
    meetings.write_text(json.dumps(doc))
    assert run_cli(["extract", "--meetings", meetings, "--out", tmp_path / "o"]) == 3


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


FUZZ_CELLS = ["nan", "inf", "-inf", "1e308", "-1", "2", "", "abc", "0.5"]


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


def test_unknown_split_name_exits_9(fixtures_dir, model_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    code = run_cli(["eval", "--manifest", emb / "manifest.jsonl",
                    "--split", emb / "split.json", "--features", emb,
                    "--feature", "emb", "--profile", "tiny",
                    "--model-dir", model_dir, "--split-name", "holdout",
                    "--out", tmp_path])
    assert code == 9


def test_bad_fpr_target_exits_6(fixtures_dir, model_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    code = run_cli(["eval", "--manifest", emb / "manifest.jsonl",
                    "--split", emb / "split.json", "--features", emb,
                    "--feature", "emb", "--profile", "tiny",
                    "--model-dir", model_dir, "--split-name", "val",
                    "--fpr-target", 0.0, "--out", tmp_path])
    assert code == 6


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


def test_train_writes_checkpoint_and_history(model_dir):
    assert (model_dir / "checkpoint_r0.bin").is_file()
    history = json.loads((model_dir / "history_r0.json").read_text())
    assert history["seed"] == 0
    assert len(history["train_loss"]) == history["stopped_epoch"] == 2
    assert len(history["val_loss"]) == 2
    config = json.loads((model_dir / "config.json").read_text())
    assert config["command"] == "train"
    assert config["arguments"]["epochs"] == 2


def test_eval_writes_metric_files(fixtures_dir, model_dir, tmp_path):
    emb = fixtures_dir / "embeddings"
    code = run_cli(["eval", "--manifest", emb / "manifest.jsonl",
                    "--split", emb / "split.json", "--features", emb,
                    "--feature", "emb", "--profile", "tiny",
                    "--model-dir", model_dir, "--split-name", "val",
                    "--out", tmp_path])
    assert code == 0
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


def test_cli_import_loads_no_scipy():
    # scipy.stats and scipy.fft cost over a second of start-up per
    # command; a stray import would not fail anything else.
    src_dir = os.path.dirname(os.path.dirname(talkover.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, talkover.cli\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
