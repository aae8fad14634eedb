"""Clip manifests: JSON-lines records tying clip ids to audio files,
provenance, and (once labeled) consensus labels.

One JSON object per line, keys sorted, records ordered by clip_id, so
identical inputs always serialize to identical bytes.
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import asdict, dataclass

from .errors import AudioError, ManifestError
from .textio import parse_json, read_json, write_json, write_jsonl

# fields that must hold strings when present; all but label are required
_STRING_FIELDS = ("clip_id", "meeting_id", "interrupter_id", "wav_path", "label")
# fields that must hold JSON numbers (not booleans) when present;
# agreement is optional
_NUMBER_FIELDS = ("onset_s", "agreement")
_PATH_CHARS = [c for c in ("/", os.sep, os.altsep, "\0") if c]  # none is in a clip id


def check_file_name(name: str, what: str) -> None:
    """Raise ManifestError naming what unless name can name a file: it has
    no NUL and encodes as UTF-8 (a surrogate only in U+DC80 to U+DCFF)."""
    try:
        if b"\0" in name.encode("utf-8", "surrogateescape"):
            raise ManifestError("%s %r holds a NUL byte" % (what, name))
    except UnicodeEncodeError:
        raise ManifestError("%s %r cannot be encoded as a file name" % (what, name)) from None


@dataclass(frozen=True)
class ClipRecord:
    clip_id: str
    meeting_id: str
    interrupter_id: str
    onset_s: float
    wav_path: str
    label: str | None = None
    agreement: float | None = None

    def __post_init__(self):
        if self.clip_id in ("", ".", "..") or any(c in self.clip_id for c in _PATH_CHARS):
            raise ManifestError("clip id %r is not a plain file name" % self.clip_id)
        check_file_name(self.clip_id, "clip id")
        check_file_name(self.wav_path, "clip %s: wav_path" % self.clip_id)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

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
    for a, b in zip(records, records[1:]):
        if a.clip_id == b.clip_id:
            raise ManifestError("duplicate clip id %s in manifest" % a.clip_id)
    write_jsonl(path, (r.to_dict() for r in records))


def read_manifest(path):
    """Clip records in file order; a line that does not parse as one, or
    repeats an earlier line's clip_id, raises ManifestError naming it."""
    records = []
    first_line = {}  # clip_id -> line it first appears on
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = ClipRecord.from_dict(parse_json(line))
                    if rec.clip_id in first_line:
                        raise ManifestError("duplicate clip_id %r, first on line %d"
                                            % (rec.clip_id, first_line[rec.clip_id]))
                except (ValueError, ManifestError) as exc:  # bad JSON, a non-finite or huge number
                    raise ManifestError("%s:%d: %s" % (path, lineno, exc)) from None
                first_line[rec.clip_id] = lineno
                records.append(rec)
        except UnicodeDecodeError as exc:
            raise ManifestError("%s: %s" % (path, exc)) from None
    return records


def write_split(path, split: dict) -> None:
    """split maps split names (train/val/test) to clip id lists."""
    write_json(path, {name: sorted(ids) for name, ids in split.items()})


def read_split(path) -> dict:
    split = read_json(path, ManifestError)
    if not isinstance(split, dict) or not all(
            isinstance(v, list) and all(isinstance(c, str) for c in v) for v in split.values()):
        raise ManifestError("%s: split file must map names to lists of clip id strings" % path)
    for name, clip_ids in split.items():
        twice = [c for c, n in Counter(clip_ids).items() if n > 1]
        if twice:
            raise ManifestError("%s: split %r lists clip %s more than once"
                                % (path, name, twice[0]))
    return split


def load_clip(record: ClipRecord, wav_path=None, out=None):
    """Read a clip's stereo WAV into out, a C-contiguous
    (CLIP_DURATION_S * rate, 2) float32 array (a new one when out is
    None), and return it: the array export_clip cut, column 0 the
    mixdown of the other speakers, column 1 the interrupter. The
    header is checked by audio.wav_layout (2 channels at 16 kHz) and
    the clip's length before any sample is read; the samples are read
    and checked by audio.read_wav_into. The audio code is imported here,
    so that reading a manifest loads none."""
    from .audio import read_wav_into, wav_layout
    from .overlap import CLIP_DURATION_S

    path = wav_path if wav_path is not None else record.wav_path
    layout = wav_layout(path, 2)
    expected = int(CLIP_DURATION_S * layout.sample_rate)
    if layout.n_frames != expected:
        raise AudioError("%s: clip %s: channels must hold exactly %d samples"
                         % (path, record.clip_id, expected))
    return read_wav_into(path, layout, out)
