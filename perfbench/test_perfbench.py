"""Tests of the benchmark itself: seeded generators are byte-deterministic,
each output check rejects a corrupted output, per-child RSS comes from that
child alone, traced children record nested spans, and BENCHMARK.json names
the metrics the runner prints."""
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from talkover import cli  # noqa: E402

MINUTE = 60 * wl.FPS
SMALL_CORPUS = (("train", 2), ("val", 1), ("test", 2))
FILLED_BY_RUNNER = ("model.train.steps", "model.train.s_per_step", "cli.import_s",
                    "trace.overhead_s")


def tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


SMALL_GENERATORS = {
    "meeting": lambda d, s: wl.generate_meeting(d, s, MINUTE),
    "classifier": lambda d, s: wl.generate_classifier(d, s, SMALL_CORPUS),
    "tabular": lambda d, s: wl.generate_tabular(d, s, n_clips=300, telemetry_n=2000),
}


@pytest.mark.parametrize("name", sorted(SMALL_GENERATORS))
def test_generators_are_byte_deterministic(name, tmp_path):
    gen = SMALL_GENERATORS[name]
    truths = [gen(str(tmp_path / d), s) for d, s in (("a", 5), ("b", 5), ("c", 6))]
    assert truths[0] == truths[1]
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


def test_meeting_plan_is_fixed_work_with_margins():
    shapes = set()
    for seed in range(40):
        candidates, rejections = wl.gate_oracle(wl.plan_meeting(seed), wl.MEETING_FRAMES)
        shapes.add((len(candidates), sum(rejections.values())))
    assert len(shapes) == 1
    (n_candidates, n_rejected), = shapes
    assert n_candidates > 50 and n_rejected > 0


def _pipeline(tmp_path, name, generate, seed=3):
    workload = wl.WORKLOADS[name]
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    truth = generate(in_dir, seed)
    for command, argv in workload.commands(in_dir, out_dir, seed):
        assert cli.main([command] + argv) == 0
        assert workload.verify(command, in_dir, out_dir, truth) is None
    return workload, in_dir, out_dir, truth


def _rewrite_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_meeting_checks_reject_corruption(tmp_path):
    workload, in_dir, out_dir, truth = _pipeline(
        tmp_path, "meeting", lambda d, s: wl.generate_meeting(d, s, 2 * MINUTE))
    manifest = os.path.join(out_dir, "extract", "manifest.jsonl")
    with open(manifest) as fh:
        lines = fh.readlines()
    rec = json.loads(lines[0])
    rec["onset_s"] += 2.0 / wl.FPS
    for corrupt in ([json.dumps(rec) + "\n"] + lines[1:], lines[1:]):
        with open(manifest, "w") as fh:
            fh.writelines(corrupt)
        assert workload.verify("extract", in_dir, out_dir, truth) is not None

    feat = os.path.join(out_dir, "featurize", rec["clip_id"] + ".npy")
    good = np.load(feat)
    for bad in (np.where(np.arange(good.size).reshape(good.shape) == 7, np.nan, good),
                good[:, :400]):
        np.save(feat, bad)
        assert "featurize" in workload.verify("featurize", in_dir, out_dir, truth)


def test_classifier_checks_reject_corruption(tmp_path):
    workload, in_dir, out_dir, truth = _pipeline(tmp_path, "classifier",
                                                 wl.generate_classifier)
    history = os.path.join(out_dir, "train", "history_r0.json")
    _rewrite_json(history, lambda h: h["train_loss"].pop())
    assert workload.verify("train", in_dir, out_dir, truth) is not None

    metrics_csv = os.path.join(out_dir, "eval", "metrics.csv")
    with open(metrics_csv) as fh:
        rows = fh.read().splitlines()
    cells = rows[1].split(",")
    cells[1] = "0.5"
    rows[1] = ",".join(cells)
    with open(metrics_csv, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    assert "AUC" in workload.verify("eval", in_dir, out_dir, truth)

    sie = sorted(f for f in os.listdir(os.path.join(out_dir, "featurize"))
                 if f.endswith(".sie"))[0]
    with open(os.path.join(out_dir, "featurize", sie), "r+b") as fh:
        fh.seek(100)
        byte = fh.read(1)
        fh.seek(100)
        fh.write(bytes([byte[0] ^ 1]))
    assert "differs" in workload.verify("featurize", in_dir, out_dir, truth)


def test_tabular_checks_reject_corruption(tmp_path):
    workload, in_dir, out_dir, truth = _pipeline(
        tmp_path, "tabular",
        lambda d, s: wl.generate_tabular(d, s, n_clips=500, telemetry_n=10000))
    labels_dir = os.path.join(out_dir, "labels")
    _rewrite_json(os.path.join(labels_dir, "summary.json"),
                  lambda s: s.update(accepted=s["accepted"] + 1))
    assert "accepted" in workload.verify("labels", in_dir, out_dir, truth)

    _rewrite_json(os.path.join(out_dir, "kappa", "kappa.json"),
                  lambda k: k.update(kappa=k["kappa"] + 1e-6))
    assert "recount" in workload.verify("kappa", in_dir, out_dir, truth)

    report = os.path.join(out_dir, "impact", "report.json")
    _rewrite_json(report, lambda r: r.update(delta=r["naive_delta"]))
    assert "closer" in workload.verify("impact", in_dir, out_dir, truth)


def test_kappa_recount_matches_a_hand_computed_value():
    # two raters, two clips: perfect agreement, then perfect disagreement
    assert wl.fleiss_kappa_recount([[2, 0], [0, 2]]) == pytest.approx(1.0)
    assert wl.fleiss_kappa_recount([[1, 1], [1, 1]]) == pytest.approx(-1.0)


ALLOCATE = "b = b'x' * (%d << 20)"


def test_wait4_rss_isolates_each_child(tmp_path):
    # run from a fresh, small process: a child's ru_maxrss starts from its
    # parent's peak RSS, and this test process has grown large
    code = ("import json, sys\nsys.path.insert(0, %r)\nimport run\n"
            "print(json.dumps([run.run_child([sys.executable, '-c', %r %% m], %r)[2]"
            " for m in (300, 60)]))" % (HERE, ALLOCATE, str(tmp_path / "log")))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    big, small = json.loads(out.stdout)
    assert big >= 300
    assert 60 <= small < 100


def _traced(tmp_path, command, argv):
    span_path = str(tmp_path / "spans.json")
    env = dict(os.environ, PYTHONPATH=SRC)
    code, _, _ = run.run_child(
        [sys.executable, os.path.join(HERE, "traced_child.py"), span_path, command] + argv,
        str(tmp_path / "log"), env)
    assert code == 0, open(tmp_path / "log").read()
    with open(span_path) as fh:
        return json.load(fh)


def test_traced_child_records_nested_spans(tmp_path):
    truth = wl.generate_votes(str(tmp_path / "in"), 1, n_clips=50)
    doc = _traced(tmp_path, "kappa", ["--votes", str(tmp_path / "in" / "votes.csv"),
                                      "--out", str(tmp_path / "out")])
    assert doc["missing"] == []
    assert doc["import_s"] > 0
    by_name = {s[2]: s for s in doc["spans"]}
    root = by_name["cli.kappa"]
    assert root[1] is None
    for name in ("labels.read_votes_csv", "labels.votes_to_table", "labels.fleiss_kappa"):
        assert by_name[name][1] == root[0]
        assert root[3] <= by_name[name][3] <= by_name[name][4] <= root[4]
    m = spans.layer_metrics([doc])
    assert m["labels.votes"] == truth["clips"] * wl.N_RATERS
    assert set(m) | set(FILLED_BY_RUNNER) == set(spans.per_layer_units())
    assert 0 < m["cli.kappa.self_s"] < root[4] - root[3]


def test_self_time_subtracts_direct_children():
    spans_list = [[0, None, "a", 0.0, 10.0, None], [1, 0, "b", 1.0, 4.0, None],
                  [2, 1, "c", 2.0, 3.0, None], [3, 0, "b", 5.0, 6.0, None]]
    assert spans.self_times(spans_list) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert [spans.tail_percentile(n) for n in (19, 20, 40, 100, 200, 1000)] == \
        [0.0, 50.0, 75.0, 90.0, 95.0, 99.0]


def test_benchmark_json_names_the_runner_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.per_layer_units()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "meeting",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
