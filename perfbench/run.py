"""talkover benchmark: runs a workload's CLI commands in child processes
and reports end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload meeting|classifier|tabular|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout: the program is the talkover package under src/.
Each command runs in its own child, one at a time (a closed loop with one
client); BLAS threading is left at its default. Inputs are generated from
the seed, then the workload's commands run repeatedly for about --seconds,
and every command's output is checked against the generator's answers.

--trace 0 prints the end-to-end metrics: setup_s (input generation,
median of three), wall_ref (the sum of the commands' wall times),
startup_ref (a `talkover <command> --help` child) and peak_rss_mb (the
largest child ru_maxrss, taken per child from wait4), each a median over
iterations. The two *_ref metrics are wall times divided by that of a
reference child run in the same iteration, which imports the program's
dependencies and nothing else: on a shared machine the cost of starting
a process drifts by a third over minutes, and the ratio cancels it. The
readable report also gives them in seconds, as wall_s and startup_s.
--trace 1 alternates untraced iterations with traced ones, whose children
record spans around the calls into each module (spans.py), and prints the
per-layer metrics. The last line of output is one JSON object; lines
before it are a readable report, and the full record goes to
perfbench/_work/BENCH_<workload>_seed<N>_trace<T>.json.

This process imports nothing heavy: generation and checks run in
worker.py, so that its own peak RSS stays far below any child's.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
WORKLOADS = ("meeting", "classifier", "tabular")

END_TO_END = {"setup_s": "s", "wall_ref": "x_ref", "startup_ref": "x_ref",
              "peak_rss_mb": "MiB"}
REFERENCE = ["-c", "import numpy, scipy.fft, scipy.stats"]
SETUP_REPEATS = 3
RUN_BUDGET_S = 150.0         # children are killed past this point of a run
NOTE = ("inputs are read warm from the page cache; disk behaviour is not "
        "measured, because caches are not dropped")


def run_child(argv, log_path, env=None, timeout=120.0):
    """Run argv to completion; returns (exit code, wall seconds, peak RSS
    in MiB). The RSS is this child's own ru_maxrss from wait4, unlike
    RUSAGE_CHILDREN, which keeps the maximum over all children so far. It
    is never below the caller's peak RSS at spawn time."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Worker:
    """Client of worker.py; see its docstring for the protocol."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self, op, *args):
        self.proc.stdin.write(json.dumps([op, args]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark worker exited with code %s" % self.proc.wait())
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError("benchmark worker failed in %s:\n%s" % (op, reply["error"]))
        return reply["ok"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def _git_revision() -> str:
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Runner:
    """Runs one workload's iterations and counts attempted and failed
    commands."""

    def __init__(self, name, seed: int, worker, env):
        self.name = name
        self.seed = seed
        self.worker = worker
        self.env = env
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.dir = os.path.join(WORK, name)
        self.in_dir = os.path.join(self.dir, "in")
        self.out_dir = os.path.join(self.dir, "out")
        self.attempted = 0
        self.failed = 0
        self.truth = None
        self.commands = []

    def setup(self) -> list:
        shutil.rmtree(self.dir, ignore_errors=True)
        times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.in_dir, ignore_errors=True)
            self.truth, seconds = self.worker("setup", self.name, self.in_dir, self.seed)
            times.append(seconds)
        self.commands = self.worker("commands", self.name, self.in_dir, self.out_dir,
                                    self.seed)
        return times

    def _child(self, argv, log_name):
        timeout = max(1.0, self.deadline - time.perf_counter())
        return run_child([sys.executable] + argv, os.path.join(self.dir, log_name),
                         self.env, timeout)

    def startup(self, command: str) -> float:
        code, wall, _ = self._child(["-m", "talkover.cli", command, "--help"], "help.log")
        self.attempted += 1
        self.failed += code != 0
        return wall

    def reference(self) -> float:
        code, wall, _ = self._child(REFERENCE, "reference.log")
        if code != 0:
            raise RuntimeError("the reference child failed; see %s"
                               % os.path.join(self.dir, "reference.log"))
        return wall

    def iteration(self, traced: bool) -> dict:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        records, span_docs, broken = [], [], False
        for name, argv in self.commands:
            self.attempted += 1
            if broken:
                self.failed += 1
                records.append({"command": name, "error": "skipped after a failure"})
                continue
            span_path = os.path.join(self.dir, "spans_%s.json" % name)
            if traced:
                cli = [os.path.join(HERE, "traced_child.py"), span_path, name]
            else:
                cli = ["-m", "talkover.cli", name]
            code, wall, rss = self._child(cli + argv, name + ".log")
            error = None if code == 0 else "exit code %d" % code
            if error is None:
                error = self.worker("verify", self.name, name, self.in_dir, self.out_dir,
                                    self.truth)
            if traced and os.path.exists(span_path):
                with open(span_path) as fh:
                    span_docs.append(json.load(fh))
            broken = error is not None
            self.failed += broken
            records.append({"command": name, "wall_s": wall, "rss_mb": rss, "error": error})
        it = {"traced": traced, "commands": records,
              "wall_s": sum(r.get("wall_s", 0.0) for r in records),
              "peak_rss_mb": max(r.get("rss_mb", 0.0) for r in records)}
        if traced:
            it["layers"] = self._layers(span_docs)
        return it

    def _layers(self, span_docs) -> dict:
        m = spans.layer_metrics(span_docs)
        steps = self.worker("train_steps", self.name, self.out_dir, self.truth)
        m["model.train.steps"] = steps
        m["model.train.s_per_step"] = m["model.train.self_s"] / steps if steps else 0.0
        m["cli.import_s"] = _median([d["import_s"] for d in span_docs])
        m["trace.missing"] = sorted({t for d in span_docs for t in d["missing"]})
        return m


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed: int, seconds: float, trace: bool, worker, env) -> dict:
    runner = Runner(name, seed, worker, env)
    setups = runner.setup()
    commands = [c for c, _ in runner.commands]

    iterations, helps, refs = [], [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 1
        iterations.append(runner.iteration(traced))
        helps.append(runner.startup(commands[len(helps) % len(commands)]))
        refs.append(runner.reference())
        elapsed = time.perf_counter() - start
        per_iteration = elapsed / len(iterations)
        want_traced = trace and len(iterations) < 2
        if not want_traced and elapsed + per_iteration > seconds:
            break
        if time.perf_counter() + 2 * per_iteration > runner.deadline:
            break

    plain = [(it, ref) for it, ref in zip(iterations, refs) if not it["traced"]]
    report = {
        "setup_s": _median(setups),
        "wall_ref": _median([it["wall_s"] / ref for it, ref in plain]),
        "startup_ref": _median([h / ref for h, ref in zip(helps, refs)]),
        "peak_rss_mb": _median([it["peak_rss_mb"] for it, _ in plain]),
        "wall_s": _median([it["wall_s"] for it, _ in plain]),
        "startup_s": _median(helps),
        "reference_s": _median(refs),
    }
    for command in commands:
        runs = [r for it, _ in plain for r in it["commands"] if r["command"] == command]
        report[command + "_s"] = _median([r["wall_s"] for r in runs if "wall_s" in r])
        report[command + "_rss_mb"] = _median([r["rss_mb"] for r in runs if "rss_mb" in r])
    report["failed_frac"] = runner.failed / runner.attempted

    layers = {}
    if trace:
        traced = [it["layers"] for it in iterations if it["traced"]]
        for metric in spans.per_layer_units():
            layers[metric] = _median([t[metric] for t in traced if metric in t])
        layers["trace.overhead_s"] = (
            _median([it["wall_s"] for it in iterations if it["traced"]]) - report["wall_s"])
        missing = sorted({m for t in traced for m in t["trace.missing"]})
        if missing:
            print("warning: the program no longer defines %s" % ", ".join(missing),
                  file=sys.stderr)

    shutil.rmtree(runner.dir, ignore_errors=True)
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "attempted": runner.attempted, "failed": runner.failed,
            "setup_runs_s": setups, "startup_runs_s": helps, "reference_runs_s": refs,
            "iterations": iterations,
            "report": report, "layers": layers}


def _print_report(result, facts) -> None:
    print("# workload %s, seed %d: medians of %d setups, %d iterations and %d startup "
          "children; %d commands attempted, %d failed"
          % (result["workload"], result["seed"], len(result["setup_runs_s"]),
             len(result["iterations"]), len(result["startup_runs_s"]),
             result["attempted"], result["failed"]))
    print("# machine: %s" % json.dumps(facts, sort_keys=True))
    for name, value in result["report"].items():
        unit = END_TO_END.get(name) or (
            "MiB" if name.endswith("_mb") else "ratio" if name == "failed_frac" else "s")
        print("%-28s %12.4f %s" % (name, value, unit))
    units = spans.per_layer_units()
    for name, value in result["layers"].items():
        print("%-40s %14.6g %s" % (name, value, units[name]))
    for it in result["iterations"]:
        for r in it["commands"]:
            if r["error"]:
                print("failed: %s: %s" % (r["command"], r["error"]))


def _result_line(result) -> dict:
    if result["trace"]:
        metrics = {m: {"value": result["layers"][m], "unit": u}
                   for m, u in spans.per_layer_units().items()}
    else:
        metrics = {m: {"value": result["report"][m], "unit": u}
                   for m, u in END_TO_END.items()}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "talkover", "cli.py")):
        print("error: no talkover sources under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(WORK, exist_ok=True)

    worker = Worker(env)
    try:
        facts = dict(worker("machine_facts"), git_revision=_git_revision(), note=NOTE)
        lines = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  worker, env)
            result["machine"] = facts
            path = os.path.join(WORK, "BENCH_%s_seed%d_trace%d.json"
                                % (name, args.seed, args.trace))
            with open(path, "w") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
            _print_report(result, facts)
            lines.append(_result_line(result))
    finally:
        worker.close()

    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {"%s.%s" % (n, m): v for n, line in zip(names, lines)
                        for m, v in line["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
