"""Per-participant audio tracks: WAV I/O, validation, and mixdown.

All downstream processing assumes mono tracks at the canonical 16 kHz
rate with samples in [-1, 1]. Files at any other rate are rejected
instead of resampled so the DSP surface stays deterministic.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AudioError,
    ChannelLayoutError,
    MalformedWavError,
    SampleRateError,
    UnsupportedEncodingError,
)

SAMPLE_RATE = 16000

# WAVE format tags we accept
_FMT_PCM = 0x0001
_FMT_IEEE_FLOAT = 0x0003
_FMT_EXTENSIBLE = 0xFFFE

_PCM16_SCALE = 32768.0


@dataclass(frozen=True)
class AudioChannel:
    """One participant's mono track. Immutable after construction."""

    samples: np.ndarray
    sample_rate: int
    participant_id: str

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ChannelLayoutError("AudioChannel requires a 1-D sample array")
        if not np.all(np.isfinite(samples)):
            raise AudioError("non-finite samples in channel %r" % self.participant_id)
        if samples.size and (samples.min() < -1.0 or samples.max() > 1.0):
            raise AudioError("samples outside [-1, 1] in channel %r" % self.participant_id)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class MeetingAudio:
    """All channels of one meeting: equal length and rate, unique ids."""

    channels: tuple[AudioChannel, ...]
    meeting_id: str
    padding: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.channels) < 2:
            raise ChannelLayoutError("a meeting needs at least 2 channels")
        rates = {ch.sample_rate for ch in self.channels}
        if len(rates) != 1:
            raise SampleRateError("channels disagree on sample rate: %s" % sorted(rates))
        lengths = {len(ch) for ch in self.channels}
        if len(lengths) != 1:
            raise ChannelLayoutError("channels disagree on length: %s" % sorted(lengths))
        _require_unique_ids(self.channels, "meeting %s" % self.meeting_id)

    @classmethod
    def from_channels(cls, channels, meeting_id: str) -> "MeetingAudio":
        """Build a meeting, zero-padding shorter channels to the longest.

        Padding preserves timestamp alignment for tracks that start or
        stop late; the per-participant pad length is recorded.
        """
        channels = list(channels)
        if len(channels) < 2:
            raise ChannelLayoutError("a meeting needs at least 2 channels")
        target = max(len(ch) for ch in channels)
        padded = []
        padding = {}
        for ch in channels:
            deficit = target - len(ch)
            if deficit:
                samples = np.concatenate([ch.samples, np.zeros(deficit)])
                ch = AudioChannel(samples, ch.sample_rate, ch.participant_id)
                padding[ch.participant_id] = deficit
            padded.append(ch)
        return cls(tuple(padded), meeting_id, padding)

    @property
    def sample_rate(self) -> int:
        return self.channels[0].sample_rate

    @property
    def n_samples(self) -> int:
        return len(self.channels[0])

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


def _require_unique_ids(channels, where: str) -> None:
    ids = sorted(ch.participant_id for ch in channels)
    repeated = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
    if repeated:
        raise ChannelLayoutError("%s repeats participant ids %s" % (where, repeated))


def _read_chunks(data: bytes):
    """Yield (chunk_id, payload) pairs from a RIFF body; each payload is a
    memoryview into data, not a copy."""
    data = memoryview(data)
    pos = 12
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        start = pos + 8
        if start + size > len(data):
            raise MalformedWavError("chunk %r overruns the file" % cid)
        yield cid, data[start:start + size]
        pos = start + size + (size & 1)  # chunks are word-aligned


def read_wav_data(path) -> tuple[int, np.ndarray]:
    """Parse a RIFF/WAVE file into (sample_rate, samples[n, channels]).

    Accepts 16-bit PCM and 32-bit IEEE float. Raises MalformedWavError
    for container damage and UnsupportedEncodingError for other codecs.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWavError("%s: not a RIFF/WAVE file" % path)

    fmt = None
    payload = None
    for cid, body in _read_chunks(data):
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            payload = body
    if fmt is None or len(fmt) < 16:
        raise MalformedWavError("%s: missing or short fmt chunk" % path)
    if payload is None:
        raise MalformedWavError("%s: missing data chunk" % path)

    tag, n_channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if tag == _FMT_EXTENSIBLE and len(fmt) >= 40:
        # sub-format GUID starts with the real format tag
        tag = struct.unpack_from("<H", fmt, 24)[0]

    if tag == _FMT_PCM and bits == 16:
        dtype = "<i2"
    elif tag == _FMT_IEEE_FLOAT and bits == 32:
        dtype = "<f4"
    else:
        raise UnsupportedEncodingError(
            "%s: format tag 0x%04x / %d bits not supported" % (path, tag, bits)
        )
    if n_channels < 1:
        raise MalformedWavError("%s: zero channels declared" % path)
    if block_align != n_channels * bits // 8:
        raise MalformedWavError("%s: block alignment inconsistent with format" % path)

    usable = len(payload) - len(payload) % block_align
    raw = np.frombuffer(payload[:usable], dtype=dtype)
    frames = raw.reshape(-1, n_channels).astype(np.float64)
    if dtype == "<i2":
        frames /= _PCM16_SCALE
    else:
        if not np.all(np.isfinite(frames)):
            raise MalformedWavError("%s: non-finite float samples" % path)
        np.clip(frames, -1.0, 1.0, out=frames)
    return int(rate), frames


def load_wav(path, participant_id: str | None = None) -> AudioChannel:
    """Load a mono WAV at the canonical rate as an AudioChannel.

    16-bit samples are scaled by 1/32768. Multi-channel files and files
    at rates other than 16 kHz are rejected with distinct errors.
    """
    rate, frames = read_wav_data(path)
    if frames.shape[1] != 1:
        raise ChannelLayoutError("%s: expected mono, got %d channels" % (path, frames.shape[1]))
    if rate != SAMPLE_RATE:
        raise SampleRateError("%s: rate %d Hz, expected %d" % (path, rate, SAMPLE_RATE))
    if participant_id is None:
        participant_id = str(path)
    return AudioChannel(frames[:, 0], rate, participant_id)


def write_wav(path, samples: np.ndarray, sample_rate: int = SAMPLE_RATE,
              encoding: str = "float32") -> None:
    """Write samples as a WAV file.

    samples may be 1-D (mono) or (n, channels). encoding is "float32"
    or "pcm16"; pcm16 quantizes with round-half-away and clamps -32768.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2:
        raise ChannelLayoutError("samples must be 1-D or 2-D (n, channels)")
    n_channels = samples.shape[1]

    if encoding == "pcm16":
        tag, bits = _FMT_PCM, 16
        quantized = np.clip(np.round(samples * _PCM16_SCALE), -32768, 32767)
        payload = quantized.astype("<i2").tobytes()
    elif encoding == "float32":
        tag, bits = _FMT_IEEE_FLOAT, 32
        payload = samples.astype("<f4").tobytes()
    else:
        raise UnsupportedEncodingError("unknown encoding %r" % encoding)

    block_align = n_channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, n_channels, sample_rate,
                      sample_rate * block_align, block_align, bits)
    body = b"".join([
        b"fmt ", struct.pack("<I", len(fmt)), fmt,
        b"data", struct.pack("<I", len(payload)), payload,
    ])
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


def mixdown(channels) -> AudioChannel:
    """Sum channels sample-wise and hard-clip to [-1, 1].

    Clipping rather than rescaling keeps local energy relationships
    between the interrupter and the rest intact. Channels are summed in
    order of their unique participant ids, so the result is bit-identical
    under any permutation of the input list.
    """
    channels = list(channels)
    if not channels:
        raise ChannelLayoutError("mixdown of an empty channel list")
    rates = {ch.sample_rate for ch in channels}
    if len(rates) != 1:
        raise SampleRateError("mixdown channels disagree on rate: %s" % sorted(rates))
    lengths = {len(ch) for ch in channels}
    if len(lengths) != 1:
        raise ChannelLayoutError("mixdown channels disagree on length: %s" % sorted(lengths))
    _require_unique_ids(channels, "mixdown")
    total = np.zeros(lengths.pop())
    for ch in sorted(channels, key=lambda ch: ch.participant_id):
        total += ch.samples
    return AudioChannel(np.clip(total, -1.0, 1.0), rates.pop(), "mix")
