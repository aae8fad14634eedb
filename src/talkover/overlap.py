"""Speech-overlap candidate detection and 10-second clip export.

A frame-energy VAD segments each channel: frames above the threshold
form active runs, short gaps between runs are merged, and the merged
runs become segments, an (n, 2) float64 array of [start_s, end_s) rows.
Segment onsets that pass the gating rules (another speaker active, 3 s
of prior silence, utterance at least 0.3 s, full clip window inside the
meeting), each one array comparison over a channel's segment times,
become candidates: detect returns the manifest.ClipRecord rows that
extract writes, each naming CLIPS_DIR/<clip_id>.wav. export_clip cuts a
row's (CLIP_DURATION_S * rate, 2) float32 clip, the array its WAV
stores, everyone else mixed into column 0 and the interrupter alone in
column 1, the onset at 5 s. It writes both columns straight into a
caller's array, so a loop over clips cuts every clip into one buffer.

Channels are read one energy block, or one clip window, at a time, so
a meeting of WavChannels is never held whole; a clip's interrupter
column is decoded by window straight into the clip.
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .audio import MeetingAudio, frame_energies_db, mixdown
from .errors import AudioError, SampleRateError
from .manifest import ClipRecord

CLIP_DURATION_S = 10.0
ONSET_OFFSET_S = 5.0
CLIPS_DIR = "clips"  # under extract's --out, holds the clip WAVs

# gate rejection reasons, as reported by scan summaries
REJECT_NO_OVERLAP = "no_other_speaker"
REJECT_PRESILENCE = "presilence_too_short"
REJECT_TOO_SHORT = "utterance_too_short"
REJECT_BOUNDARY = "boundary"
# in the order the gates are checked
_GATES = (REJECT_NO_OVERLAP, REJECT_PRESILENCE, REJECT_TOO_SHORT, REJECT_BOUNDARY)

VAD_FRAME_MS = 20
HANGOVER_FRAMES = 5  # longest silence, in frames, merged into a segment
MIN_SEGMENT_MS = 100  # shorter merged segments are discarded


@dataclass(frozen=True)
class VadParams:
    energy_threshold_db: float = -45.0

    def frame_samples(self, sample_rate: int) -> int:
        return sample_rate * VAD_FRAME_MS // 1000


def _runs(active: np.ndarray) -> np.ndarray:
    """(start, end) frame indices of each run of active frames, shape (n, 2)."""
    return np.flatnonzero(np.diff(np.concatenate(([False], active, [False])))).reshape(-1, 2)


def _fill_gaps(active: np.ndarray, max_gap: int) -> np.ndarray:
    """Mark each inactive gap of at most max_gap frames between two active
    runs as active (hangover merge)."""
    runs = _runs(active)
    gap_lo, gap_hi = runs[:-1, 1], runs[1:, 0]
    short = gap_hi - gap_lo <= max_gap
    # +1 where a short gap opens, -1 where it closes; the running sum is
    # positive inside short gaps
    edges = np.zeros(active.size + 1, dtype=np.intp)
    edges[gap_lo[short]] += 1
    edges[gap_hi[short]] -= 1
    return active | (np.cumsum(edges[:-1]) > 0)


def activity_frames(channel, params: VadParams) -> np.ndarray:
    """Boolean speech activity per frame after hangover merging."""
    if len(channel) == 0:
        raise AudioError("VAD on an empty channel")
    frame_len = params.frame_samples(channel.sample_rate)
    if frame_len < 1:
        raise SampleRateError("VAD at %r Hz: a %d ms frame holds no sample"
                              % (channel.sample_rate, VAD_FRAME_MS))
    active = frame_energies_db(channel, frame_len) > params.energy_threshold_db
    return _fill_gaps(active, HANGOVER_FRAMES)


def vad(channel, params: VadParams = VadParams()) -> np.ndarray:
    """Segment a channel (AudioChannel or WavChannel) into speech regions,
    returned as an (n, 2) float64 array of [start_s, end_s) rows.

    Frames above the energy threshold are merged across silences of at
    most HANGOVER_FRAMES; merged segments shorter than MIN_SEGMENT_MS
    are discarded.
    """
    runs = _runs(activity_frames(channel, params))
    keep = runs[:, 1] - runs[:, 0] >= MIN_SEGMENT_MS / VAD_FRAME_MS
    rate = channel.sample_rate
    return runs[keep] * (params.frame_samples(rate) / rate)


@dataclass(frozen=True)
class DetectionResult:
    candidates: tuple[ClipRecord, ...]
    rejections: Counter


def _candidate(meeting_id: str, interrupter_id: str, onset_s: float) -> ClipRecord:
    clip_id = "%s_%s_%07d" % (meeting_id, interrupter_id, round(onset_s * 1000))
    return ClipRecord(clip_id, meeting_id, interrupter_id, onset_s,
                      os.path.join(CLIPS_DIR, clip_id + ".wav"))


def _covering(starts: np.ndarray, ends: np.ndarray, t: np.ndarray) -> np.ndarray:
    """How many of the segments [starts[k], ends[k]) cover each time in t."""
    return (np.searchsorted(np.sort(starts), t, "right")
            - np.searchsorted(np.sort(ends), t, "right"))


def _segment_array(segs) -> np.ndarray:
    """segs as a checked (n, 2) float64 array; empty input gives (0, 2)."""
    segs = np.asarray(segs, dtype=np.float64)
    segs = segs.reshape(0, 2) if segs.size == 0 else segs
    if segs.ndim != 2 or segs.shape[1] != 2:
        raise ValueError("segments must be an (n, 2) array, got shape %s" % (segs.shape,))
    if not np.all(segs[:, 1] > segs[:, 0]):
        raise ValueError("segment end must be after start")
    return segs


def detect(meeting: MeetingAudio, segments_by_channel,
           min_presilence_s: float = 3.0, min_utterance_s: float = 0.3) -> DetectionResult:
    """Scan per-channel VAD segments for gated overlap candidates.

    segments_by_channel holds one (n, 2) array of [start_s, end_s) rows
    per channel, as vad returns, or a list of such pairs. For every
    segment start t on channel i a candidate is emitted iff (a) another
    channel is speaking at t, (b) channel i's previous segment ended at
    least min_presilence_s before t (the first segment passes), (c) the
    segment runs at least min_utterance_s, and (d) the clip window
    export_clip cuts, [t - ONSET_OFFSET_S, t - ONSET_OFFSET_S
    + CLIP_DURATION_S], lies inside the meeting. Rejections are counted
    by the first failing gate, checked in the order (a), (b), (c), (d).
    """
    if len(segments_by_channel) != len(meeting.channels):
        raise ValueError("one segment array per channel required")
    spans = [_segment_array(segs) for segs in segments_by_channel]
    duration = meeting.duration_s
    pre_s, post_s = ONSET_OFFSET_S, CLIP_DURATION_S - ONSET_OFFSET_S
    candidates = []
    first_failed = []

    for i, channel in enumerate(meeting.channels):
        starts, ends = spans[i].T
        others = np.concatenate([s for j, s in enumerate(spans) if j != i])
        presilence_short = np.zeros(starts.size, dtype=bool)
        presilence_short[1:] = starts[1:] - ends[:-1] < min_presilence_s
        failed = np.stack([
            _covering(others[:, 0], others[:, 1], starts) == 0,
            presilence_short,
            ends - starts < min_utterance_s,
            (starts < pre_s) | (starts + post_s > duration),
        ])
        rejected = failed.any(axis=0)
        first_failed.append(failed.argmax(axis=0)[rejected])
        candidates += [_candidate(meeting.meeting_id, channel.participant_id, t)
                       for t in starts[~rejected].tolist()]
    counts = np.bincount(np.concatenate(first_failed), minlength=len(_GATES))
    candidates.sort(key=lambda c: c.clip_id)
    return DetectionResult(tuple(candidates),
                           Counter({g: int(n) for g, n in zip(_GATES, counts) if n}))


def export_clip(clip: ClipRecord, meeting: MeetingAudio,
                out: np.ndarray | None = None) -> np.ndarray:
    """Cut the stereo clip of one candidate row out of the meeting into
    out, a (CLIP_DURATION_S * rate, 2) float32 array (a new one when out
    is None), and return it: the mixdown of the other channels in column
    0 and the interrupter, the channel whose participant id is
    clip.interrupter_id, in column 1. These are the float32 samples the
    clip's WAV stores."""
    rate = meeting.sample_rate
    start = round((clip.onset_s - ONSET_OFFSET_S) * rate)
    stop = start + int(CLIP_DURATION_S * rate)
    if start < 0 or stop > meeting.n_samples:
        raise AudioError("clip %s: window [%d, %d) out of bounds" % (clip.clip_id, start, stop))
    if out is None:
        out = np.empty((stop - start, 2), dtype=np.float32)
    elif out.shape != (stop - start, 2) or out.dtype != np.float32:
        raise ValueError("clip %s: a %s %s array cannot hold a (%d, 2) float32 clip"
                         % (clip.clip_id, out.dtype, out.shape, stop - start))

    interrupter = next((ch for ch in meeting.channels
                        if ch.participant_id == clip.interrupter_id), None)
    if interrupter is None:
        raise ValueError("meeting %s has no participant %r" % (meeting.meeting_id, clip.interrupter_id))
    others = [ch for ch in meeting.channels if ch is not interrupter]
    mixdown(others, start, stop, out=out[:, 0])
    interrupter.window(start, stop, out=out[:, 1])
    return out

