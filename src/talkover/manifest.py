"""Clip manifests: JSON-lines records tying clip ids to audio files,
provenance, and (once labeled) consensus labels.

One JSON object per line, keys sorted, records ordered by clip_id, so
identical inputs always serialize to identical bytes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import AudioError, ChannelLayoutError, ManifestError, SampleRateError

# fields that must hold strings when present; all but label are required
_STRING_FIELDS = ("clip_id", "meeting_id", "interrupter_id", "wav_path", "label")
# fields that must hold JSON numbers (not booleans) when present;
# agreement is optional
_NUMBER_FIELDS = ("onset_s", "agreement")


@dataclass(frozen=True)
class ClipRecord:
    clip_id: str
    meeting_id: str
    interrupter_id: str
    onset_s: float
    wav_path: str
    label: str | None = None
    agreement: float | None = None

    def to_dict(self) -> dict:
        d = {"clip_id": self.clip_id, "meeting_id": self.meeting_id,
             "interrupter_id": self.interrupter_id, "onset_s": self.onset_s,
             "wav_path": self.wav_path}
        if self.label is not None:
            d["label"] = self.label
        if self.agreement is not None:
            d["agreement"] = self.agreement
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ClipRecord":
        if not isinstance(d, dict):
            raise ManifestError("clip record is not a JSON object")
        for name in _STRING_FIELDS:
            if name in d and not isinstance(d[name], str):
                raise ManifestError("clip record %s %r is not a string" % (name, d[name]))
        for name in _NUMBER_FIELDS:
            if name in d and (isinstance(d[name], bool)
                              or not isinstance(d[name], (int, float))):
                raise ManifestError("clip record %s %r is not a number" % (name, d[name]))
        try:
            return cls(clip_id=d["clip_id"], meeting_id=d["meeting_id"],
                       interrupter_id=d["interrupter_id"], onset_s=float(d["onset_s"]),
                       wav_path=d["wav_path"], label=d.get("label"),
                       agreement=d.get("agreement"))
        except KeyError as exc:
            raise ManifestError("clip record missing field %s" % exc) from None
        except OverflowError:  # an integer past the float range
            raise ManifestError("clip record onset_s %d does not fit a float"
                                % d["onset_s"]) from None


def write_manifest(path, records) -> None:
    records = sorted(records, key=lambda r: r.clip_id)
    ids = [r.clip_id for r in records]
    if len(set(ids)) != len(ids):
        raise ManifestError("duplicate clip ids in manifest")
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")


def read_manifest(path):
    """Clip records in file order; a line that does not parse as one, or
    repeats an earlier line's clip_id, raises ManifestError naming it."""
    records = []
    first_line = {}  # clip_id -> line it first appears on
    with open(path) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = ClipRecord.from_dict(json.loads(line))
                    if rec.clip_id in first_line:
                        raise ManifestError("duplicate clip_id %r, first on line %d"
                                            % (rec.clip_id, first_line[rec.clip_id]))
                except (ValueError, ManifestError) as exc:  # bad JSON or a huge integer
                    raise ManifestError("%s:%d: %s" % (path, lineno, exc)) from None
                first_line[rec.clip_id] = lineno
                records.append(rec)
        except UnicodeDecodeError as exc:
            raise ManifestError("%s: %s" % (path, exc)) from None
    return records


def write_split(path, split: dict) -> None:
    """split maps split names (train/val/test) to clip id lists."""
    canon = {name: sorted(ids) for name, ids in split.items()}
    with open(path, "w") as fh:
        json.dump(canon, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_split(path) -> dict:
    with open(path) as fh:
        try:
            split = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ManifestError("%s: %s" % (path, exc)) from None
    if not isinstance(split, dict) or not all(
            isinstance(v, list) and all(isinstance(c, str) for c in v) for v in split.values()):
        raise ManifestError("%s: split file must map names to lists of clip id strings" % path)
    return split


def load_clip(record: ClipRecord, wav_path=None) -> CandidateClip:
    """Read a clip's stereo WAV back into a CandidateClip. Channel 0 is
    the mixdown of the other speakers, channel 1 the interrupter. The
    audio code is imported here, so that reading a manifest loads none."""
    from .audio import SAMPLE_RATE, AudioChannel, read_wav_data
    from .overlap import CandidateClip

    path = wav_path if wav_path is not None else record.wav_path
    rate, frames = read_wav_data(path)
    if frames.shape[1] != 2:
        raise ChannelLayoutError("%s: clip WAVs are stereo, got %d channels"
                                 % (path, frames.shape[1]))
    if rate != SAMPLE_RATE:
        raise SampleRateError("%s: rate %d Hz, expected %d" % (path, rate, SAMPLE_RATE))
    left = AudioChannel(frames[:, 0], rate, "mix")
    right = AudioChannel(frames[:, 1], rate, record.interrupter_id)
    try:
        return CandidateClip(record.clip_id, record.meeting_id,
                             record.interrupter_id, record.onset_s, left, right)
    except AudioError as exc:
        raise AudioError("%s: %s" % (path, exc)) from None
