"""Command-line front end: manifest-driven batch pipelines.

Every command is deterministic for fixed inputs and, where it draws
random numbers (train, impact, gen-fixtures), for --seed: all of them
come from numpy's default_rng. Every output directory gets a config.json
sidecar echoing the run's arguments so results can be reproduced.

Exit codes: 0 success, 2 usage (argparse), then one code per error
family, held as its exit_code: 3 audio, 4 features, 5 model, 6 metrics,
7 labels, 8 causal, 9 manifest; 10 I/O.

Each command imports numpy and the talkover modules it calls when it
runs, so that --help and the table commands (labels, kappa, impact)
load neither the audio nor the classifier code.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import shutil
import sys

from .errors import LabelError, ManifestError, TalkoverError
from .vocab import PROFILE_NAMES

EXIT_OK = 0
EXIT_IO = 10


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_sidecar(out_dir, command: str, args: argparse.Namespace) -> None:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    _write_json(os.path.join(out_dir, "config.json"),
                {"command": command, "arguments": echo})


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
_positive_float = _bounded(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
_finite_float = _bounded(float, math.isfinite, "a finite number")
_bin_count = _bounded(int, lambda v: v >= 2, "an integer of at least 2")


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------- extract

def _read_meetings_manifest(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ManifestError("%s: %s" % (path, exc)) from None
    meetings = doc.get("meetings") if isinstance(doc, dict) else None
    if not isinstance(meetings, list):
        raise ManifestError("%s: expected a top-level 'meetings' list" % path)
    base = os.path.dirname(os.path.abspath(path))
    for m in meetings:
        if not isinstance(m, dict) or not isinstance(m.get("meeting_id"), str):
            raise ManifestError("%s: every meeting needs a meeting_id string" % path)
        channels = m.get("channels", [])
        if not isinstance(channels, list) or len(channels) < 2:
            raise ManifestError("meeting %s lists fewer than 2 channels" % m["meeting_id"])
        for ch in channels:
            if not (isinstance(ch, dict) and isinstance(ch.get("participant_id"), str)
                    and isinstance(ch.get("wav_path"), str)):
                raise ManifestError("meeting %s: every channel needs participant_id and "
                                    "wav_path strings" % m["meeting_id"])
    return meetings, base


def cmd_extract(args) -> int:
    import numpy as np

    from .audio import MeetingAudio, load_wav, write_wav
    from .manifest import ClipRecord, write_manifest
    from .overlap import VadParams, detect, export_clip, vad

    out_dir = _ensure_out(args)
    clips_dir = os.path.join(out_dir, "clips")
    os.makedirs(clips_dir, exist_ok=True)
    params = VadParams(energy_threshold_db=args.energy_threshold)

    meetings, base = _read_meetings_manifest(args.meetings)
    records = []
    totals = {}
    n_candidates = 0
    for m in meetings:
        channels = [load_wav(os.path.join(base, ch["wav_path"]), ch["participant_id"])
                    for ch in m["channels"]]
        meeting = MeetingAudio.from_channels(channels, m["meeting_id"])
        segments = [vad(ch, params) for ch in meeting.channels]
        result = detect(meeting, segments,
                        min_presilence_s=args.min_presilence,
                        min_utterance_s=args.min_utterance)
        for reason, count in result.rejections.items():
            totals[reason] = totals.get(reason, 0) + count
        for desc in result.candidates:
            clip = export_clip(desc, meeting)
            wav_name = os.path.join("clips", desc.clip_id + ".wav")
            stereo = np.stack([clip.left.samples, clip.right.samples], axis=1)
            write_wav(os.path.join(out_dir, wav_name), stereo,
                      clip.sample_rate, "float32")
            records.append(ClipRecord(desc.clip_id, desc.meeting_id,
                                      desc.interrupter_id, desc.onset_s, wav_name))
            n_candidates += 1

    write_manifest(os.path.join(out_dir, "manifest.jsonl"), records)
    _write_sidecar(out_dir, "extract", args)
    print("candidates: %d" % n_candidates)
    for reason in sorted(totals):
        print("rejected %s: %d" % (reason, totals[reason]))
    return EXIT_OK


# -------------------------------------------------------------- featurize

def _embedding_path(wav_path: str) -> str:
    if wav_path.endswith(".sie"):
        return wav_path
    return os.path.splitext(wav_path)[0] + ".sie"


def cmd_featurize(args) -> int:
    import numpy as np

    from .features import PROFILES, load_embeddings, mfcc, spectrogram
    from .manifest import load_clip, read_manifest

    out_dir = _ensure_out(args)
    records = read_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    profile = PROFILES[args.profile]

    shapes = {}
    for rec in records:
        if args.feature == "emb":
            # a checked file holds what write_embeddings would write, so
            # its bytes are copied; in place, it is its own copy
            emb = load_embeddings(os.path.join(base, _embedding_path(rec.wav_path)),
                                  profile)
            with contextlib.suppress(shutil.SameFileError):
                shutil.copyfile(emb.path, os.path.join(out_dir, rec.clip_id + ".sie"))
            shapes[rec.clip_id] = list(profile.shape)
        else:
            clip = load_clip(rec, os.path.join(base, rec.wav_path))
            feat = mfcc(clip) if args.feature == "mfcc" else spectrogram(clip)
            np.save(os.path.join(out_dir, rec.clip_id + ".npy"), feat)
            shapes[rec.clip_id] = list(feat.shape)

    _write_json(os.path.join(out_dir, "shapes.json"), shapes)
    _write_sidecar(out_dir, "featurize", args)
    print("wrote %d %s feature files" % (len(records), args.feature))
    return EXIT_OK


# ------------------------------------------------------------ train / eval

def _load_split(records_by_id, clip_ids, features_dir, feature, profile):
    """Features and CLASSES indices of the listed clips, in list order."""
    import numpy as np

    from .features import load_embeddings
    from .vocab import CLASSES

    feats, labels = [], []
    for cid in clip_ids:
        rec = records_by_id.get(cid)
        if rec is None:
            raise ManifestError("split references unknown clip %s" % cid)
        if rec.label not in CLASSES:
            raise LabelError("clip %s has label %r; need one of %s"
                             % (cid, rec.label, list(CLASSES)))
        if feature == "emb":
            feats.append(load_embeddings(os.path.join(features_dir, cid + ".sie"), profile))
        else:
            feats.append(np.load(os.path.join(features_dir, cid + ".npy")))
        labels.append(CLASSES.index(rec.label))
    return feats, labels


def cmd_train(args) -> int:
    from . import model as model_mod
    from .features import PROFILES
    from .manifest import read_manifest, read_split

    out_dir = _ensure_out(args)
    records_by_id = {r.clip_id: r for r in read_manifest(args.manifest)}
    split = read_split(args.split)
    profile = PROFILES[args.profile]

    train_set = list(zip(*_load_split(records_by_id, split.get("train", []),
                                      args.features, args.feature, profile)))
    val_set = None
    if split.get("val"):
        val_set = list(zip(*_load_split(records_by_id, split["val"],
                                        args.features, args.feature, profile)))

    for run in range(args.runs):
        seed = args.seed + run
        config = model_mod.TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                                       epochs=args.epochs, seed=seed, patience=args.patience)
        result = model_mod.train(train_set, config, val_set, channels=args.channels)
        model_mod.save_model(result.model, os.path.join(out_dir, "checkpoint_r%d.bin" % run))
        _write_json(os.path.join(out_dir, "history_r%d.json" % run),
                    {"seed": seed, "train_loss": result.train_loss,
                     "val_loss": result.val_loss, "stopped_epoch": result.stopped_epoch})
        print("run %d: %d epochs, final train loss %.4f"
              % (run, result.stopped_epoch, result.train_loss[-1]))

    _write_sidecar(out_dir, "train", args)
    return EXIT_OK


def cmd_eval(args) -> int:
    import numpy as np

    from . import metrics, model as model_mod
    from .features import PROFILES
    from .manifest import read_manifest, read_split

    out_dir = _ensure_out(args)
    records_by_id = {r.clip_id: r for r in read_manifest(args.manifest)}
    split = read_split(args.split)
    profile = PROFILES[args.profile]

    # every run scores the same clips, so each split is read once
    def load(name):
        if name not in split:
            raise ManifestError("split file has no %r entry" % name)
        return (split[name],) + _load_split(records_by_id, split[name], args.features,
                                            args.feature, profile)

    def score(net, clip_ids, feats, labels):
        return metrics.Scores(clip_ids, labels, model_mod.forward_batch(net, feats))

    scored = load(args.split_name)
    calib_split = None
    if args.threshold is None and args.calibration_split:
        calib_split = load(args.calibration_split)

    positive = "failed_interruption"
    rows = []
    for run in range(args.runs):
        ckpt = os.path.join(args.model_dir, "checkpoint_r%d.bin" % run)
        net = model_mod.load_model(ckpt)
        samples = score(net, *scored)
        auc = metrics.roc_auc(samples, positive)

        tau = args.threshold
        if tau is None:
            calib = samples if calib_split is None else score(net, *calib_split)
            _, tau = metrics.tpr_at_fpr(calib, positive, args.fpr_target)
        tpr, fpr = metrics.tpr_fpr_at_threshold(samples, positive, tau)

        confusion = metrics.thresholded_confusion(samples, tau, positive)
        metrics.write_confusion_csv(
            os.path.join(out_dir, "confusion_r%d.csv" % run), confusion)
        metrics.write_report_csv(
            os.path.join(out_dir, "report_r%d.csv" % run),
            metrics.per_class_report(confusion))
        metrics.write_roc_csv(
            os.path.join(out_dir, "roc_r%d.csv" % run),
            metrics.roc_points(samples, positive))
        rows.append((run, auc, tpr, tau, fpr))
        print("run %d: auc=%.4f tpr@%.3g=%.4f tau=%.6g fpr=%.4g"
              % (run, auc, args.fpr_target, tpr, tau, fpr))

    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "auc", "tpr", "threshold", "realized_fpr"])
        for run, auc, tpr, tau, fpr in rows:
            writer.writerow([run, "%.10g" % auc, "%.10g" % tpr,
                             "%.10g" % tau, "%.10g" % fpr])
        arr = np.array([[r[1], r[2], r[3], r[4]] for r in rows], dtype=np.float64)
        writer.writerow(["mean"] + ["%.10g" % v for v in arr.mean(axis=0)])
        writer.writerow(["sd"] + ["%.10g" % v for v in arr.std(axis=0)])
    if len(rows) > 1:
        print("mean auc=%.4f tpr=%.4f" % (arr[:, 0].mean(), arr[:, 1].mean()))

    _write_sidecar(out_dir, "eval", args)
    return EXIT_OK


# ---------------------------------------------------------- labels / kappa

def cmd_labels(args) -> int:
    from . import labels as labels_mod

    out_dir = _ensure_out(args)
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

    with open(os.path.join(out_dir, "consensus.jsonl"), "w") as fh:
        for res in results:
            rec = by_id.get(res.clip_id)
            if rec is not None:
                d = rec.to_dict()
            else:
                d = {"clip_id": res.clip_id}
            if res.accepted:
                d["label"] = res.label
            else:
                d.pop("label", None)
                d["rejected"] = True
            d["agreement"] = res.agreement_fraction
            d["votes"] = res.vote_count
            fh.write(json.dumps(d, sort_keys=True) + "\n")

    accepted = [r for r in results if r.accepted]
    per_label = {}
    for r in accepted:
        per_label[r.label] = per_label.get(r.label, 0) + 1
    summary = {"clips": len(results), "accepted": len(accepted),
               "rejected": len(results) - len(accepted), "per_label": per_label}
    _write_json(os.path.join(out_dir, "summary.json"), summary)

    if accuracy is not None:
        _write_json(os.path.join(out_dir, "annotator_accuracy.json"), accuracy)

    _write_sidecar(out_dir, "labels", args)
    print("accepted %d of %d clips" % (len(accepted), len(results)))
    return EXIT_OK


def cmd_kappa(args) -> int:
    from . import labels as labels_mod

    out_dir = _ensure_out(args)
    votes = labels_mod.read_votes_csv(args.votes)
    table, clip_ids = labels_mod.votes_to_table(votes)
    kappa = labels_mod.fleiss_kappa(table)
    _write_json(os.path.join(out_dir, "kappa.json"),
                {"kappa": kappa, "n_clips": len(clip_ids),
                 "ratings_per_clip": int(table.sum(axis=1)[0]),
                 "categories": list(labels_mod.VOTE_LABELS)})
    _write_sidecar(out_dir, "kappa", args)
    print("kappa=%.6f over %d clips" % (kappa, len(clip_ids)))
    return EXIT_OK


# ----------------------------------------------------------------- impact

def cmd_impact(args) -> int:
    from . import causal

    out_dir = _ensure_out(args)
    telemetry = causal.read_telemetry_csv(args.telemetry)
    report = causal.run_impact(telemetry, n_bins=args.bins,
                               bootstrap=args.bootstrap,
                               bootstrap_samples=args.bootstrap_samples,
                               seed=args.seed)
    _write_json(os.path.join(out_dir, "report.json"), report)
    _write_sidecar(out_dir, "impact", args)
    print("delta=%+.2f points, 95%% CI (%.2f, %.2f), naive %+.2f"
          % (100 * report["delta"], 100 * report["ci95"][0],
             100 * report["ci95"][1], 100 * report["naive_delta"]))
    return EXIT_OK


# ----------------------------------------------------------- gen-fixtures

def cmd_gen_fixtures(args) -> int:
    from . import synth

    out_dir = _ensure_out(args)
    paths = synth.write_all_fixtures(out_dir, seed=args.seed,
                                     profile_name=args.profile,
                                     telemetry_n=args.telemetry_n)
    _write_sidecar(out_dir, "gen-fixtures", args)
    for name in sorted(paths):
        print("%s: %s" % (name, paths[name]))
    return EXIT_OK


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
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("extract", help="detect overlap candidates and cut clips")
    add_common(p)
    p.add_argument("--meetings", required=True, help="meetings manifest JSON")
    p.add_argument("--energy-threshold", type=float, default=-45.0,
                   help="VAD activity threshold in dBFS")
    p.add_argument("--min-presilence", type=float, default=3.0)
    p.add_argument("--min-utterance", type=float, default=0.3)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("featurize", help="compute or validate clip features")
    add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--feature", required=True, choices=["mfcc", "spec", "emb"])
    p.add_argument("--profile", choices=PROFILE_NAMES, default="base")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train the interruption classifier")
    add_common(p, seeded=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--features", required=True, help="feature directory")
    p.add_argument("--feature", required=True, choices=["mfcc", "spec", "emb"])
    p.add_argument("--profile", choices=PROFILE_NAMES, default="base")
    p.add_argument("--channels", choices=["2", "right"], default="2")
    p.add_argument("--runs", type=_positive_int, default=1)
    p.add_argument("--epochs", type=_positive_int, default=50)
    p.add_argument("--batch-size", type=_positive_int, default=32)
    p.add_argument("--lr", type=_positive_float, default=0.0015)
    p.add_argument("--patience", type=_non_negative_int, default=10)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a split")
    add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--feature", required=True, choices=["mfcc", "spec", "emb"])
    p.add_argument("--profile", choices=PROFILE_NAMES, default="base")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--split-name", default="test")
    p.add_argument("--runs", type=_positive_int, default=1)
    p.add_argument("--fpr-target", type=float, default=0.01)
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
    try:
        return args.func(args)
    except TalkoverError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
