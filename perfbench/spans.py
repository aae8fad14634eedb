"""Span recording around calls into the talkover modules, and the
per-layer metrics computed from the recorded spans.

The wrappers live here, in the benchmark, not in the program: a traced
child process installs them and then runs the CLI's main(). A span holds
its name, start, end, the span that was open when it started, and the
counts its hook took from the call. Spans are kept in memory and written
once when the child ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time


def _path_bytes(name):
    """Count: size of the file named by the call's `name` argument."""
    def count(bound, result):
        return {"bytes": os.path.getsize(bound.arguments[name])}
    return count


def _vad_frames(bound, result):
    channel = bound.arguments["channel"]
    params = bound.arguments["params"]
    return {"frames": len(channel) // params.frame_samples(channel.sample_rate)}


def _detect_counts(bound, result):
    n = len(result.candidates)
    return {"candidates": n, "onsets": n + sum(result.rejections.values())}


def _aggregate_counts(bound, result):
    return {"clips": len(result), "accepted": sum(r.accepted for r in result)}


def _bootstrap_counts(bound, result):
    return {"used": result[2], "requested": bound.arguments["n_boot"]}


def _len_arg(arg, key):
    def count(bound, result):
        return {key: len(bound.arguments[arg])}
    return count


def _len_result(key):
    def count(bound, result):
        return {key: len(result)}
    return count


# Functions wrapped, by module, with the hook that takes counts from each
# call. "Class.method" names a classmethod.
TARGETS = {
    "audio": {"load_wav": _path_bytes("path"), "read_wav_data": None,
              "write_wav": _path_bytes("path"),
              "MeetingAudio.from_channels": None, "mixdown": None},
    "overlap": {"vad": _vad_frames, "detect": _detect_counts, "export_clip": None},
    "features": {"mfcc": None, "load_embeddings": _path_bytes("path"),
                 "write_embeddings": None},
    "manifest": {"read_manifest": None, "write_manifest": None, "load_clip": None},
    "model": {"train": None, "evaluate_loss": None,
              "forward_batch": _len_arg("features_list", "clips"),
              "load_model": None, "save_model": None},
    "metrics": {"roc_auc": _len_arg("samples", "samples"), "tpr_at_fpr": None,
                "roc_points": None, "thresholded_confusion": None},
    "labels": {"read_votes_csv": _len_result("votes"),
               "aggregate_all": _aggregate_counts, "votes_to_table": None,
               "fleiss_kappa": None, "annotator_accuracy": None},
    "causal": {"read_telemetry_csv": _len_result("records"), "fit_propensity": None,
               "predict_ps": None, "stratify": None, "balance_report": None,
               "estimate_impact": None, "bootstrap_ci": _bootstrap_counts},
    "cli": {"cmd_" + c: None for c in
            ("extract", "featurize", "train", "eval", "labels", "kappa", "impact")},
}


class Tracer:
    """Records spans of wrapped calls in one single-threaded process."""

    def __init__(self):
        self.spans = []      # [id, parent, name, start, end, counts]
        self.missing = []    # targets the program no longer defines
        self._open = []

    def wrap(self, name, fn, hook=None):
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._open[-1] if self._open else None,
                    name, 0.0, 0.0, None]
            self.spans.append(span)
            self._open.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._open.pop()
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[5] = hook(bound, result)
                except Exception as exc:  # a count must never break the run
                    span[5] = {"hook_error": repr(exc)}
            return result
        return wrapper

    def install(self, package: str = "talkover") -> None:
        """Wrap every target in every loaded module namespace that binds
        it, since `from .x import f` copies the name at import time."""
        for layer, functions in TARGETS.items():
            module = importlib.import_module("%s.%s" % (package, layer))
            for attr, hook in functions.items():
                name = "%s.%s" % (layer, attr.rsplit(".", 1)[-1].removeprefix("cmd_"))
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner).get(fn_name)
                if original is None:
                    self.missing.append("%s.%s" % (layer, attr))
                elif isinstance(original, classmethod):
                    setattr(owner, fn_name,
                            classmethod(self.wrap(name, original.__func__, hook)))
                else:
                    wrapped = self.wrap(name, original, hook)
                    for mod_name, mod in list(sys.modules.items()):
                        if mod_name == package or mod_name.startswith(package + "."):
                            for key, value in list(vars(mod).items()):
                                if value is original:
                                    setattr(mod, key, wrapped)

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans, missing=self.missing), fh)


# ------------------------------------------------------------ aggregation

# Functions called once per clip: they also get the per-call median and
# the highest percentile with at least ten calls beyond it.
PER_CALL = ("audio.read_wav_data", "audio.write_wav", "audio.mixdown",
            "overlap.export_clip", "features.mfcc", "features.load_embeddings",
            "features.write_embeddings", "manifest.load_clip")
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Named counts: metric -> (unit, span name, count key). None as key counts
# the calls.
COUNTS = {
    "audio.load_wav.bytes": ("bytes", "audio.load_wav", "bytes"),
    "audio.write_wav.bytes": ("bytes", "audio.write_wav", "bytes"),
    "overlap.vad.frames": ("count", "overlap.vad", "frames"),
    "overlap.candidates": ("count", "overlap.detect", "candidates"),
    "features.load_embeddings.bytes": ("bytes", "features.load_embeddings", "bytes"),
    "model.forward_batch.clips": ("count", "model.forward_batch", "clips"),
    "metrics.samples": ("count", "metrics.roc_auc", "samples"),
    "labels.votes": ("count", "labels.read_votes_csv", "votes"),
    "causal.records": ("count", "causal.read_telemetry_csv", "records"),
    "causal.fit_propensity.calls": ("count", "causal.fit_propensity", None),
}
# metric -> (span name, numerator key, denominator key)
RATIOS = {
    "overlap.accept_ratio": ("overlap.detect", "candidates", "onsets"),
    "labels.accept_ratio": ("labels.aggregate_all", "accepted", "clips"),
    "causal.bootstrap_used_ratio": ("causal.bootstrap_ci", "used", "requested"),
}
OTHER = {
    "model.train.steps": "count",
    "model.train.s_per_step": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


def _span_names():
    for layer, functions in TARGETS.items():
        for attr in functions:
            yield "%s.%s" % (layer, attr.rsplit(".", 1)[-1].removeprefix("cmd_"))


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in _span_names():
        units[name + ".self_s"] = "s"
        if name in PER_CALL:
            units.update({name + ".calls": "count", name + ".call_med_ms": "ms",
                          name + ".call_tail_ms": "ms", name + ".call_tail_pct": "%"})
    units.update({m: unit for m, (unit, _, _) in COUNTS.items()})
    units.update({m: "ratio" for m in RATIOS})
    units.update(OTHER)
    return units


def tail_percentile(n_calls: int) -> float:
    """Highest percentile on the ladder with at least ten calls beyond it;
    0 when there are fewer than twenty calls."""
    for pct in _TAIL_LADDER:
        if n_calls * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 0.0


def _nearest_rank(sorted_values, pct: float) -> float:
    k = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(k) - 1]


def self_times(spans):
    """Per span: duration minus the time its direct children cover.
    Children run inside their parent and one after another, so their
    durations add up without overlap."""
    child_time = {}
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child_time.get(sid, 0.0)
            for sid, _, _, start, end, _ in spans}


def layer_metrics(span_docs) -> dict:
    """Per-layer metrics for one traced iteration, from the span files
    of its commands. model.train.steps, cli.import_s and
    trace.overhead_s are filled in by the caller."""
    self_s, durations, counts = {}, {}, {}
    for doc in span_docs:
        spans = doc["spans"]
        own = self_times(spans)
        for sid, _, name, start, end, n in spans:
            self_s[name] = self_s.get(name, 0.0) + own[sid]
            durations.setdefault(name, []).append(end - start)
            for key, value in (n or {}).items():
                if isinstance(value, (int, float)):
                    slot = counts.setdefault(name, {})
                    slot[key] = slot.get(key, 0) + value

    out = {}
    for name in _span_names():
        out[name + ".self_s"] = self_s.get(name, 0.0)
        if name in PER_CALL:
            calls = sorted(durations.get(name, []))
            pct = tail_percentile(len(calls))
            out[name + ".calls"] = len(calls)
            out[name + ".call_med_ms"] = 1e3 * statistics.median(calls) if calls else 0.0
            out[name + ".call_tail_ms"] = 1e3 * _nearest_rank(calls, pct) if pct else 0.0
            out[name + ".call_tail_pct"] = pct
    for metric, (_, name, key) in COUNTS.items():
        if key is None:
            out[metric] = len(durations.get(name, []))
        else:
            out[metric] = counts.get(name, {}).get(key, 0)
    for metric, (name, num, den) in RATIOS.items():
        c = counts.get(name, {})
        out[metric] = c[num] / c[den] if c.get(den) else 0.0
    return out
