"""Peak memory of train and eval grows with the batch, and at inference
with one clip, not with the split: every batch is read from its SIE1
files into one reused buffer, and inference reads and pools one clip at
a time. Each command runs in a child process, and its peak RSS is the
ru_maxrss that os.wait4 reports for that child alone."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TINY_BATCH_MIB = 32 * 2 * 5 * 32 * 249 * 4 / 2 ** 20  # 32 tiny clips, 9.7 MiB

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
    # every class keeps its share; train keeps 40 clips, so that train
    # makes a buffer of 32 clips at both sizes
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
