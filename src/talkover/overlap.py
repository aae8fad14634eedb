"""Speech-overlap candidate detection and 10-second clip export.

A frame-energy VAD segments each channel; overlap onsets that pass the
gating rules (another speaker active, 3 s of prior silence, utterance
at least 0.3 s, full clip window inside the meeting) become candidate
clips: interrupter on the right channel, everyone else mixed into the
left, with the onset pinned to the 5-second mark.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .audio import AudioChannel, MeetingAudio, mixdown
from .errors import AudioError

CLIP_DURATION_S = 10.0
ONSET_OFFSET_S = 5.0

# gate rejection reasons, as reported by scan summaries
REJECT_NO_OVERLAP = "no_other_speaker"
REJECT_PRESILENCE = "presilence_too_short"
REJECT_TOO_SHORT = "utterance_too_short"
REJECT_BOUNDARY = "boundary"

OVERTAKE = "overtake"
NO_OVERTAKE = "no_overtake"


@dataclass(frozen=True)
class SpeechSegment:
    start_s: float
    end_s: float

    def __post_init__(self):
        if not self.end_s > self.start_s:
            raise ValueError("segment end must be after start")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def covers(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class VadParams:
    frame_ms: int = 20
    energy_threshold_db: float = -45.0
    hangover_frames: int = 5
    min_segment_ms: int = 100

    def __post_init__(self):
        if self.frame_ms <= 0:
            raise ValueError("frame_ms must be positive")
        if self.hangover_frames < 0:
            raise ValueError("hangover_frames must be >= 0")

    def frame_samples(self, sample_rate: int) -> int:
        return sample_rate * self.frame_ms // 1000

    @property
    def frame_s(self) -> float:
        return self.frame_ms / 1000.0


@dataclass(frozen=True)
class ClipDescriptor:
    """Where to cut one candidate clip out of a meeting."""

    clip_id: str
    meeting_id: str
    interrupter_id: str
    onset_s: float
    channel_index: int


@dataclass(frozen=True)
class CandidateClip:
    """A 10 s stereo excerpt with the overlap onset at 5.0 s.

    right holds the interrupter alone, left the mixdown of all other
    channels over the same window.
    """

    clip_id: str
    meeting_id: str
    interrupter_id: str
    onset_s: float
    left: AudioChannel
    right: AudioChannel

    def __post_init__(self):
        expected = int(CLIP_DURATION_S * self.right.sample_rate)
        if len(self.right) != expected or len(self.left) != expected:
            raise AudioError(
                "clip %s: channels must hold exactly %d samples" % (self.clip_id, expected)
            )

    @property
    def duration_s(self) -> float:
        return CLIP_DURATION_S

    @property
    def sample_rate(self) -> int:
        return self.right.sample_rate


def frame_energies_db(samples: np.ndarray, frame_len: int) -> np.ndarray:
    """Per-frame RMS energy in dBFS; trailing partial frame is dropped."""
    n_frames = len(samples) // frame_len
    if n_frames == 0:
        return np.empty(0)
    frames = samples[: n_frames * frame_len].reshape(n_frames, frame_len)
    rms = np.sqrt(np.mean(frames * frames, axis=1))
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(rms)


def _fill_gaps(active: np.ndarray, max_gap: int) -> np.ndarray:
    """Mark inactive runs of length <= max_gap as active (hangover merge)."""
    if max_gap <= 0 or not active.any():
        return active
    out = active.copy()
    idx = np.flatnonzero(active)
    gaps = np.diff(idx) - 1
    for pos, gap in zip(idx[:-1], gaps):
        if 0 < gap <= max_gap:
            out[pos + 1: pos + 1 + gap] = True
    return out


def activity_frames(channel: AudioChannel, params: VadParams) -> np.ndarray:
    """Boolean speech activity per frame after hangover merging."""
    if len(channel) == 0:
        raise AudioError("VAD on an empty channel")
    frame_len = params.frame_samples(channel.sample_rate)
    active = frame_energies_db(channel.samples, frame_len) > params.energy_threshold_db
    return _fill_gaps(active, params.hangover_frames)


def vad(channel: AudioChannel, params: VadParams = VadParams()) -> list[SpeechSegment]:
    """Segment a channel into speech regions.

    Frames above the energy threshold are merged across silences of at
    most hangover_frames; merged segments shorter than min_segment_ms
    are discarded.
    """
    active = activity_frames(channel, params)
    frame_s = params.frame_s
    min_frames = params.min_segment_ms / params.frame_ms

    segments = []
    edges = np.flatnonzero(np.diff(np.concatenate(([False], active, [False]))))
    for start, end in edges.reshape(-1, 2):
        if end - start >= min_frames:
            segments.append(SpeechSegment(start * frame_s, end * frame_s))
    return segments


@dataclass(frozen=True)
class DetectionResult:
    candidates: tuple[ClipDescriptor, ...]
    rejections: Counter


def _make_clip_id(meeting_id: str, interrupter_id: str, onset_s: float) -> str:
    return "%s_%s_%07d" % (meeting_id, interrupter_id, round(onset_s * 1000))


def detect(meeting: MeetingAudio, segments_by_channel,
           min_presilence_s: float = 3.0, min_utterance_s: float = 0.3,
           pre_s: float = ONSET_OFFSET_S, post_s: float = ONSET_OFFSET_S) -> DetectionResult:
    """Scan per-channel VAD segments for gated overlap candidates.

    For every segment start t on channel i a candidate is emitted iff
    (a) another channel is speaking at t, (b) channel i produced no
    speech in [t - min_presilence_s, t), (c) the segment runs at least
    min_utterance_s, and (d) the window [t - pre_s, t + post_s] lies
    inside the meeting. Rejections are counted by the first failing
    gate, checked in the order (a), (b), (c), (d).
    """
    if len(segments_by_channel) != len(meeting.channels):
        raise ValueError("one segment list per channel required")
    duration = meeting.duration_s
    candidates = []
    rejections = Counter()

    for i, channel in enumerate(meeting.channels):
        own = segments_by_channel[i]
        others = [seg for j, segs in enumerate(segments_by_channel) if j != i for seg in segs]
        for k, seg in enumerate(own):
            t = seg.start_s
            if not any(o.covers(t) for o in others):
                rejections[REJECT_NO_OVERLAP] += 1
                continue
            prev_end = own[k - 1].end_s if k > 0 else None
            if prev_end is not None and t - prev_end < min_presilence_s:
                rejections[REJECT_PRESILENCE] += 1
                continue
            if seg.duration_s < min_utterance_s:
                rejections[REJECT_TOO_SHORT] += 1
                continue
            if t < pre_s or t + post_s > duration:
                rejections[REJECT_BOUNDARY] += 1
                continue
            candidates.append(ClipDescriptor(
                clip_id=_make_clip_id(meeting.meeting_id, channel.participant_id, t),
                meeting_id=meeting.meeting_id,
                interrupter_id=channel.participant_id,
                onset_s=t,
                channel_index=i,
            ))
    candidates.sort(key=lambda c: c.clip_id)
    return DetectionResult(tuple(candidates), rejections)


def export_clip(descriptor: ClipDescriptor, meeting: MeetingAudio) -> CandidateClip:
    """Cut the stereo clip for one candidate out of the meeting."""
    rate = meeting.sample_rate
    start = round((descriptor.onset_s - ONSET_OFFSET_S) * rate)
    stop = start + int(CLIP_DURATION_S * rate)
    if start < 0 or stop > meeting.n_samples:
        raise AudioError("clip %s: window [%d, %d) out of bounds" % (descriptor.clip_id, start, stop))

    interrupter = meeting.channels[descriptor.channel_index]
    if interrupter.participant_id != descriptor.interrupter_id:
        raise ValueError("descriptor does not match meeting channel layout")
    right = AudioChannel(interrupter.samples[start:stop], rate, interrupter.participant_id)
    others = [
        AudioChannel(ch.samples[start:stop], rate, ch.participant_id)
        for j, ch in enumerate(meeting.channels) if j != descriptor.channel_index
    ]
    left = mixdown(others)
    return CandidateClip(
        clip_id=descriptor.clip_id,
        meeting_id=descriptor.meeting_id,
        interrupter_id=descriptor.interrupter_id,
        onset_s=descriptor.onset_s,
        left=left,
        right=right,
    )


def heuristic_floor_outcome(clip: CandidateClip,
                            params: VadParams = VadParams()) -> str:
    """Weak floor-acquisition label for a clip.

    "overtake" iff within the clip's last 5 seconds the interrupter
    (right channel) holds an uninterrupted solo stretch of at least
    1.5 s while the left channel is silent. A weak oracle only; not
    ground truth.
    """
    rate = clip.sample_rate
    half = int(ONSET_OFFSET_S * rate)
    tail_r = AudioChannel(clip.right.samples[half:], rate, "tail_r")
    tail_l = AudioChannel(clip.left.samples[half:], rate, "tail_l")

    frame_s = params.frame_s
    n_frames = len(tail_r) // params.frame_samples(rate)
    right_on = np.zeros(n_frames, dtype=bool)
    left_on = np.zeros(n_frames, dtype=bool)
    for segs, mask in ((vad(tail_r, params), right_on), (vad(tail_l, params), left_on)):
        for seg in segs:
            lo = round(seg.start_s / frame_s)
            hi = round(seg.end_s / frame_s)
            mask[lo:hi] = True

    solo = right_on & ~left_on
    need = round(1.5 / frame_s)
    run = 0
    for flag in solo:
        run = run + 1 if flag else 0
        if run >= need:
            return OVERTAKE
    return NO_OVERTAKE
