"""Command-line front end: manifest-driven batch pipelines.

Every command is deterministic for fixed inputs and, where it draws
random numbers (train, impact, gen-fixtures), for --seed: all of them
come from numpy's default_rng. A successful run writes a config.json
sidecar echoing its arguments so results can be reproduced.

Exit codes: 0 success, 2 usage (argparse), then one code per error
family, held as its exit_code: 3 audio, 4 features, 5 model, 6 metrics,
7 labels, 8 causal, 9 manifest; 10 I/O.

Each command imports numpy and the talkover modules it calls when it
runs, so that --help and the table commands (labels, kappa, impact)
load neither the audio nor the classifier code.

The program entry, run(), serves both `python -m talkover.cli` and the
`talkover` script. It runs numpy's OpenBLAS on one thread unless the
caller sets OPENBLAS_NUM_THREADS or OMP_NUM_THREADS: a second thread
is started in every process, spins beside the first and buys these
short commands little. After main() returns, run() flushes stdout and
stderr and ends the process at once, skipping the interpreter's
teardown; every file is already closed by then. main(argv) itself
leaves the environment alone and returns its exit code, for callers
that run commands in-process.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import os
import shutil
import sys
import warnings
from collections import Counter

from .errors import LabelError, ManifestError, TalkoverError
from .textio import read_json, write_csv, write_json, write_jsonl
from .vocab import PROFILE_NAMES

EXIT_OK = 0
EXIT_IO = 10


def _bounded(convert, ok, what: str):
    """An argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError("%r is not %s" % (text, what))
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_positive_int = _bounded(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _bounded(int, lambda v: v >= 0, "a non-negative integer")
_fraction = _bounded(float, lambda v: 0.0 < v <= 1.0, "a fraction in (0, 1]")
_open_fraction = _bounded(float, lambda v: 0.0 < v < 1.0, "a fraction in (0, 1)")
_positive_float = _bounded(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
_non_negative_float = _bounded(float, lambda v: 0.0 <= v < math.inf,
                               "a non-negative finite number")
_finite_float = _bounded(float, math.isfinite, "a finite number")
_bin_count = _bounded(int, lambda v: v >= 2, "an integer of at least 2")


# ---------------------------------------------------------------- extract

def _read_meetings_manifest(path):
    from .manifest import check_file_name

    doc = read_json(path, ManifestError)
    meetings = doc.get("meetings") if isinstance(doc, dict) else None
    if not isinstance(meetings, list):
        raise ManifestError("%s: expected a top-level 'meetings' list" % path)
    base = os.path.dirname(os.path.abspath(path))
    seen = set()
    for m in meetings:
        if not isinstance(m, dict) or not isinstance(m.get("meeting_id"), str):
            raise ManifestError("%s: every meeting needs a meeting_id string" % path)
        if m["meeting_id"] in seen:
            raise ManifestError("%s: meeting_id %r is listed twice" % (path, m["meeting_id"]))
        seen.add(m["meeting_id"])
        channels = m.get("channels", [])
        if not isinstance(channels, list) or len(channels) < 2:
            raise ManifestError("meeting %s lists fewer than 2 channels" % m["meeting_id"])
        for ch in channels:
            if not (isinstance(ch, dict) and isinstance(ch.get("participant_id"), str)
                    and isinstance(ch.get("wav_path"), str)):
                raise ManifestError("meeting %s: every channel needs participant_id and "
                                    "wav_path strings" % m["meeting_id"])
            check_file_name(ch["wav_path"], "meeting %s: wav_path" % m["meeting_id"])
    return meetings, base


def cmd_extract(args) -> None:
    from .audio import MeetingAudio, load_wav, write_wav
    from .manifest import write_manifest
    from .overlap import CLIPS_DIR, VadParams, detect, export_clip, vad

    meetings, base = _read_meetings_manifest(args.meetings)
    os.makedirs(os.path.join(args.out, CLIPS_DIR), exist_ok=True)
    params = VadParams(energy_threshold_db=args.energy_threshold)

    records = {}  # clip id -> its ClipRecord
    totals = Counter()
    clip = None  # the one array every clip is cut into, from the first on
    for m in meetings:
        channels = [load_wav(os.path.join(base, ch["wav_path"]), ch["participant_id"])
                    for ch in m["channels"]]
        meeting = MeetingAudio.from_channels(channels, m["meeting_id"])
        segments = [vad(ch, params) for ch in meeting.channels]
        result = detect(meeting, segments,
                        min_presilence_s=args.min_presilence,
                        min_utterance_s=args.min_utterance)
        totals.update(result.rejections)
        for rec in result.candidates:
            # meeting a_b's c and meeting a's b_c can make the same id
            if rec.clip_id in records:
                raise ManifestError("clip id %s comes from meetings %s and %s"
                                    % (rec.clip_id, records[rec.clip_id].meeting_id,
                                       rec.meeting_id))
            clip = export_clip(rec, meeting, out=clip)
            write_wav(os.path.join(args.out, rec.wav_path), clip, meeting.sample_rate, "float32")
            records[rec.clip_id] = rec

    write_manifest(os.path.join(args.out, "manifest.jsonl"), records.values())
    print("candidates: %d" % len(records))
    for reason in sorted(totals):
        print("rejected %s: %d" % (reason, totals[reason]))


# -------------------------------------------------------------- featurize

def _embedding_path(wav_path: str) -> str:
    if wav_path.endswith(".sie"):
        return wav_path
    return os.path.splitext(wav_path)[0] + ".sie"


def cmd_featurize(args) -> None:
    import numpy as np

    from .features import (PROFILES, MfccScratch, SpectrogramScratch, load_embeddings, mfcc,
                           spectrogram)
    from .manifest import load_clip, read_manifest

    records = read_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    profile = PROFILES[args.profile]
    clip = None  # the one array every clip is read into, from the first on
    if args.feature != "emb":
        featurize, scratch = ((mfcc, MfccScratch()) if args.feature == "mfcc"
                              else (spectrogram, SpectrogramScratch()))

    shapes = {}
    for rec in records:
        if args.feature == "emb":
            # a checked file holds what write_embeddings would write, so
            # its bytes are copied; in place, it is its own copy
            emb = load_embeddings(os.path.join(base, _embedding_path(rec.wav_path)),
                                  profile)
            with contextlib.suppress(shutil.SameFileError):
                shutil.copyfile(emb.path, os.path.join(args.out, rec.clip_id + ".sie"))
            shapes[rec.clip_id] = list(profile.shape)
        else:
            clip = load_clip(rec, os.path.join(base, rec.wav_path), out=clip)
            feat = featurize(clip, scratch)
            np.save(os.path.join(args.out, rec.clip_id + ".npy"), feat)
            shapes[rec.clip_id] = list(feat.shape)

    write_json(os.path.join(args.out, "shapes.json"), shapes)
    print("wrote %d %s feature files" % (len(records), args.feature))


# ------------------------------------------------------------ train / eval

def _read_splits(args, names, optional=()):
    """(clip ids, clip_set of their features and CLASSES indices) of each
    named split, in file order. A name the file lacks or lists no clips
    under raises ManifestError, unless optional holds it: its set is None."""
    from .features import PROFILES, load_embeddings, load_matrix
    from .manifest import read_manifest, read_split
    from .model import CLASSES, clip_set

    records_by_id = {r.clip_id: r for r in read_manifest(args.manifest)}
    split = read_split(args.split)
    profile = PROFILES[args.profile]
    loaded = []
    for name in names:
        clip_ids = split.get(name, [])
        if not clip_ids and name not in optional:
            raise ManifestError("split file has no %r entry" % name if name not in split
                                else "split file lists no clips under %r" % name)
        feats, labels = [], []
        for cid in clip_ids:
            rec = records_by_id.get(cid)
            if rec is None:
                raise ManifestError("split references unknown clip %s" % cid)
            if rec.label not in CLASSES:
                raise LabelError("clip %s has label %r; need one of %s"
                                 % (cid, rec.label, list(CLASSES)))
            path = os.path.join(args.features, cid)
            feats.append(load_embeddings(path + ".sie", profile) if args.feature == "emb"
                         else load_matrix(path + ".npy"))
            labels.append(CLASSES.index(rec.label))
        loaded.append((clip_ids, clip_set(feats, labels) if feats else None))
    return loaded


def cmd_train(args) -> None:
    from . import model as model_mod

    # an empty or missing val split trains without validation
    (_, train_set), (_, val_set) = _read_splits(args, ["train", "val"], optional=["val"])

    for run in range(args.runs):
        seed = args.seed + run
        config = model_mod.TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                                       epochs=args.epochs, seed=seed, patience=args.patience)
        result = model_mod.train(train_set, config, val_set, channels=args.channels)
        model_mod.save_model(result.model, os.path.join(args.out, "checkpoint_r%d.bin" % run))
        write_json(os.path.join(args.out, "history_r%d.json" % run),
                   {"seed": seed, "train_loss": result.train_loss,
                    "val_loss": result.val_loss, "stopped_epoch": result.stopped_epoch,
                    "layer_weights": result.layer_weights})
        print("run %d: %d epochs, final train loss %.4f"
              % (run, result.stopped_epoch, result.train_loss[-1]))


def cmd_eval(args) -> None:
    import numpy as np

    from . import metrics, model as model_mod

    def score(net, clip_ids, clips):
        return metrics.Scores(clip_ids, clips.labels, model_mod.forward_batch(net, clips))

    # every run scores the same clips, so each split is read once
    names = [args.split_name]
    if args.threshold is None and args.calibration_split:
        names.append(args.calibration_split)
    scored, *calibration = _read_splits(args, names)

    # every checkpoint is loaded before the first run writes a file
    nets = [model_mod.load_model(os.path.join(args.model_dir, "checkpoint_r%d.bin" % run))
            for run in range(args.runs)]
    positive = "failed_interruption"
    rows = []
    for run, net in enumerate(nets):
        samples = score(net, *scored)
        auc = metrics.roc_auc(samples, positive)

        tau = args.threshold
        if tau is None:
            calib = score(net, *calibration[0]) if calibration else samples
            _, tau = metrics.tpr_at_fpr(calib, positive, args.fpr_target)

        confusion = metrics.thresholded_confusion(samples, tau, positive)
        report = metrics.per_class_report(confusion)
        tpr, fpr = report[positive]["recall"], report[positive]["fpr"]
        metrics.write_confusion_csv(
            os.path.join(args.out, "confusion_r%d.csv" % run), confusion)
        metrics.write_report_csv(os.path.join(args.out, "report_r%d.csv" % run), report)
        metrics.write_roc_csv(
            os.path.join(args.out, "roc_r%d.csv" % run),
            metrics.roc_points(samples, positive))
        rows.append((run, auc, tpr, tau, fpr))
        print("run %d: auc=%.4f tpr@%.3g=%.4f tau=%.6g fpr=%.4g"
              % (run, auc, args.fpr_target, tpr, tau, fpr))

    arr = np.array([r[1:] for r in rows], dtype=np.float64)
    # a column whose runs agree has sd 0, also when they agree on an
    # infinite threshold, and one whose runs disagree and hold an
    # infinite threshold has sd inf: arr.std would subtract inf from inf
    agree = np.all(arr == arr[0], axis=0)
    spread = ~agree & ~np.isinf(arr).any(axis=0)
    sd = np.where(agree, 0.0, np.inf)
    sd[spread] = arr[:, spread].std(axis=0)
    labeled = [(run, values) for run, *values in rows] + [("mean", arr.mean(axis=0)),
                                                          ("sd", sd)]
    write_csv(os.path.join(args.out, "metrics.csv"),
              ["run", "auc", "tpr", "threshold", "realized_fpr"],
              [[name] + ["%.10g" % v for v in values] for name, values in labeled])
    if len(rows) > 1:
        print("mean auc=%.4f tpr=%.4f" % (arr[:, 0].mean(), arr[:, 1].mean()))


# ---------------------------------------------------------- labels / kappa

def cmd_labels(args) -> None:
    from . import labels as labels_mod

    votes = labels_mod.read_votes_csv(args.votes)
    results = labels_mod.aggregate_all(votes, args.threshold)
    accuracy = None
    if args.golden:
        accuracy = labels_mod.annotator_accuracy(
            votes, labels_mod.read_golden_json(args.golden))

    by_id = {}
    if args.manifest:
        from .manifest import read_manifest
        by_id = {r.clip_id: r for r in read_manifest(args.manifest)}

    def consensus(res):
        rec = by_id.get(res.clip_id)
        d = rec.to_dict() if rec is not None else {"clip_id": res.clip_id}
        if res.accepted:
            d["label"] = res.label
        else:
            d.pop("label", None)
            d["rejected"] = True
        d["agreement"] = res.agreement_fraction
        d["votes"] = res.vote_count
        return d

    write_jsonl(os.path.join(args.out, "consensus.jsonl"), map(consensus, results))

    accepted = [r for r in results if r.accepted]
    per_label = Counter(r.label for r in accepted)
    summary = {"clips": len(results), "accepted": len(accepted),
               "rejected": len(results) - len(accepted), "per_label": per_label}
    write_json(os.path.join(args.out, "summary.json"), summary)

    if accuracy is not None:
        write_json(os.path.join(args.out, "annotator_accuracy.json"), accuracy)

    print("accepted %d of %d clips" % (len(accepted), len(results)))


def cmd_kappa(args) -> None:
    from . import labels as labels_mod

    votes = labels_mod.read_votes_csv(args.votes)
    table, clip_ids = labels_mod.votes_to_table(votes)
    kappa = labels_mod.fleiss_kappa(table)
    write_json(os.path.join(args.out, "kappa.json"),
               {"kappa": kappa, "n_clips": len(clip_ids),
                "ratings_per_clip": int(table.sum(axis=1)[0]),
                "categories": list(labels_mod.VOTE_LABELS)})
    print("kappa=%.6f over %d clips" % (kappa, len(clip_ids)))


# ----------------------------------------------------------------- impact

def cmd_impact(args) -> None:
    from . import causal

    telemetry = causal.read_telemetry_csv(args.telemetry)
    report = causal.run_impact(telemetry, n_bins=args.bins,
                               bootstrap=args.bootstrap,
                               bootstrap_samples=args.bootstrap_samples,
                               seed=args.seed)
    write_json(os.path.join(args.out, "report.json"), report)
    print("delta=%+.2f points, 95%% CI (%.2f, %.2f), naive %+.2f"
          % (100 * report["delta"], 100 * report["ci95"][0],
             100 * report["ci95"][1], 100 * report["naive_delta"]))


# ----------------------------------------------------------- gen-fixtures

def cmd_gen_fixtures(args) -> None:
    from . import synth

    paths = synth.write_all_fixtures(args.out, seed=args.seed,
                                     profile_name=args.profile,
                                     telemetry_n=args.telemetry_n)
    for name in sorted(paths):
        print("%s: %s" % (name, paths[name]))


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talkover",
        description="Speech interruption analysis pipelines for "
                    "multi-channel meeting audio.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded=False):
        p.add_argument("--out", required=True, help="output directory")
        if seeded:
            p.add_argument("--seed", type=_non_negative_int, default=0)

    def add_corpus(p, split=False):
        p.add_argument("--manifest", required=True)
        if split:
            p.add_argument("--split", required=True)
            p.add_argument("--features", required=True, help="feature directory")
        p.add_argument("--feature", required=True, choices=["mfcc", "spec", "emb"])
        p.add_argument("--profile", choices=PROFILE_NAMES, default="base")

    p = sub.add_parser("extract", help="detect overlap candidates and cut clips")
    add_common(p)
    p.add_argument("--meetings", required=True, help="meetings manifest JSON")
    p.add_argument("--energy-threshold", type=_finite_float, default=-45.0,
                   help="VAD activity threshold in dBFS")
    p.add_argument("--min-presilence", type=_non_negative_float, default=3.0)
    p.add_argument("--min-utterance", type=_non_negative_float, default=0.3)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("featurize", help="compute or validate clip features")
    add_common(p)
    add_corpus(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train the interruption classifier")
    add_common(p, seeded=True)
    add_corpus(p, split=True)
    p.add_argument("--channels", choices=["2", "right"], default="2")
    p.add_argument("--runs", type=_positive_int, default=1)
    p.add_argument("--epochs", type=_positive_int, default=50)
    p.add_argument("--batch-size", type=_positive_int, default=32)
    p.add_argument("--lr", type=_positive_float, default=0.0015)
    p.add_argument("--patience", type=_non_negative_int, default=10)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a split")
    add_common(p)
    add_corpus(p, split=True)
    p.add_argument("--model-dir", required=True)
    p.add_argument("--split-name", default="test")
    p.add_argument("--runs", type=_positive_int, default=1)
    p.add_argument("--fpr-target", type=_open_fraction, default=0.01)
    p.add_argument("--threshold", type=_finite_float, default=None,
                   help="fixed decision threshold; skips calibration")
    p.add_argument("--calibration-split", default=None,
                   help="calibrate the threshold on this split instead "
                        "of the evaluation split")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("labels", help="aggregate crowd votes to consensus labels")
    add_common(p)
    p.add_argument("--votes", required=True)
    p.add_argument("--threshold", type=_fraction, default=0.7)
    p.add_argument("--manifest", default=None,
                   help="merge consensus into this clip manifest")
    p.add_argument("--golden", default=None,
                   help="JSON of golden labels for annotator accuracy")
    p.set_defaults(func=cmd_labels)

    p = sub.add_parser("kappa", help="inter-annotator agreement")
    add_common(p)
    p.add_argument("--votes", required=True)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("impact", help="propensity-stratified impact estimate")
    add_common(p, seeded=True)
    p.add_argument("--telemetry", required=True)
    p.add_argument("--bins", type=_bin_count, default=5)
    p.add_argument("--bootstrap", action="store_true")
    p.add_argument("--bootstrap-samples", type=_positive_int, default=200)
    p.set_defaults(func=cmd_impact)

    p = sub.add_parser("gen-fixtures", help="write all synthetic fixtures")
    add_common(p, seeded=True)
    p.add_argument("--profile", choices=PROFILE_NAMES, default="tiny")
    p.add_argument("--telemetry-n", type=_positive_int, default=50000)
    p.set_defaults(func=cmd_gen_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # the program's warnings print once per place, each as one line
        warnings.filterwarnings("default", category=UserWarning, module="talkover")
        warnings.showwarning = lambda message, *_: print("warning: %s" % message,
                                                         file=sys.stderr)
        try:
            os.makedirs(args.out, exist_ok=True)
            config = os.path.join(args.out, "config.json")
            with contextlib.suppress(FileNotFoundError):  # it would mark a failed run finished
                os.remove(config)
            args.func(args)
            echo = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
            write_json(config, {"command": args.command, "arguments": echo})
            return EXIT_OK
        except (TalkoverError, OSError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return exc.exit_code if isinstance(exc, TalkoverError) else EXIT_IO
        except UnicodeEncodeError as exc:  # a name the file system's encoding cannot hold
            print("error: %r cannot be encoded as a file name: %s" % (exc.object, exc),
                  file=sys.stderr)
            return ManifestError.exit_code


def run() -> None:
    """The program entry; see the module docstring."""
    if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk
        print("error: %s" % exc, file=sys.stderr)
        code = code or EXIT_IO
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
