"""Per-participant audio tracks: WAV I/O, validation, mixdown and frame
energies.

All downstream processing assumes mono tracks at the canonical 16 kHz
rate with samples in [-1, 1]. Files at any other rate are rejected
instead of resampled so the DSP surface stays deterministic.

A track comes in two forms with one read interface (participant_id,
sample_rate, len() and window(start, stop, out=None)); the program reads
decoded samples only through window, which returns float64 or fills a
caller's float32 or float64 array. WavChannel, which load_wav returns,
reads only the window asked for from its WAV file, so a meeting's memory
does not grow with its length; every read of the file's samples goes
through its _stored(start, stop). AudioChannel, the in-memory input
form, holds float64 samples; the program builds none of its own.

A stored payload (WAV, SIE1 or .npy) is checked once, by wav_layout and
check_finite, then read by offset with read_at, never through a memory
map; a file that shrank since its check raises its family's error there.

Sums over 16-bit PCM WAVs are taken on the stored integers. A stored
int16 k decodes to k * 2^-15 exactly, so a float64 sum of decoded
samples is an integer times 2^-15 and a sum of their squares an integer
times 2^-30. While that integer stays below 2^53, every partial sum is
exact in any order, and the integer sum scaled once has the bits of the
float64 sum. So when every channel is a PCM16 WavChannel (_pcm16_only),
mixdown adds the stored windows in int32, which holds any sum of fewer
than 2^16 channels, and frame_energies_db sums each frame's squares in
int64, which stays below 2^53 for frames of fewer than
_PCM16_MAX_FRAME = 2^23 samples. Float32 WAVs, AudioChannels and mixed
sets are decoded to float64 and summed there; the outputs are the same
bytes either way.

A clip is float32 from its cut to its features. The decoded sample of a
PCM16 or float32 WAV, and a mixdown of PCM16 channels, is a float32
value, so writing it into a float32 array (mixdown's and window's out)
is exact; only float64 sums are rounded there, as the float32 WAV that
stores them would round them. write_wav writes a C-ordered float32 array
as it is.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace

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
_PCM16_MAX_FRAME = 1 << 23
_PCM16_MAX_CHANNELS = 1 << 16
# the square of one PCM16 step, 2^-30
_SQUARE_STEP = 1.0 / (_PCM16_SCALE * _PCM16_SCALE)
# frames read and squared at a time when computing frame energies
_ENERGY_BLOCK_FRAMES = 1024
_F32 = np.dtype("<f4")  # a float WAV's samples, and a clip in memory

_CHECK_BLOCK = 1 << 18  # values per block of check_finite (1 MiB of f32)


@dataclass(frozen=True)
class AudioChannel:
    """One participant's mono track, held in memory as float64.
    Immutable after construction."""

    samples: np.ndarray
    sample_rate: int
    participant_id: str

    def __post_init__(self):
        rate = self.sample_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, np.integer)) or rate <= 0:
            raise SampleRateError("channel %r: sample rate %r is not a positive integer"
                                  % (self.participant_id, rate))
        object.__setattr__(self, "sample_rate", int(rate))
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ChannelLayoutError("AudioChannel requires a 1-D sample array")
        if not np.all(np.isfinite(samples)):
            raise AudioError("non-finite samples in channel %r" % self.participant_id)
        if samples.size and (samples.min() < -1.0 or samples.max() > 1.0):
            raise AudioError("samples outside [-1, 1] in channel %r" % self.participant_id)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    def window(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Samples [start, stop), with 0 <= start <= stop <= len(self);
        copied into out, rounded to its dtype, when it is given."""
        if out is None:
            return self.samples[start:stop]
        out[...] = self.samples[start:stop]
        return out

    def padded(self, n_samples: int) -> "AudioChannel":
        """This channel zero-padded at the end to n_samples."""
        return AudioChannel(np.concatenate([self.samples, np.zeros(n_samples - len(self))]),
                            self.sample_rate, self.participant_id)


@dataclass(frozen=True)
class WavChannel:
    """One participant's mono track, left in its WAV file.

    _stored() is the one reader of the file's samples: it reads only the
    samples asked for, undecoded, and window() decodes them. Samples
    past the n_stored ones in the file read as zeros: that is how
    padded() extends a short track to the meeting length. load_wav has
    checked the header, and a float file's samples for finiteness, so
    every window holds finite float64 samples in [-1, 1].
    """

    path: str
    sample_rate: int
    participant_id: str
    dtype: str        # "<i2" (16-bit PCM) or "<f4" (32-bit float)
    offset: int       # byte offset of the first sample
    n_stored: int
    n_samples: int    # n_stored plus zero padding

    def __len__(self) -> int:
        return self.n_samples

    def _stored(self, start: int, stop: int) -> np.ndarray:
        """The file's samples [start, stop), undecoded, zeros past the
        stored end."""
        raw = np.empty(stop - start, self.dtype)
        count = max(0, min(stop, self.n_stored) - start)
        read_at(self.path, self.offset + start * raw.itemsize, raw[:count], MalformedWavError)
        raw[count:] = 0
        return raw

    def window(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Samples [start, stop), zeros past the stored end: as float64,
        or decoded into out, a float32 or float64 array, which is exact."""
        if out is None:
            out = np.empty(stop - start)
        _decode(self._stored(start, stop), out)
        return out

    def padded(self, n_samples: int) -> "WavChannel":
        """This channel read as n_samples long, zeros past the stored end."""
        return replace(self, n_samples=n_samples)


@dataclass(frozen=True)
class MeetingAudio:
    """All channels of one meeting: equal length and rate, unique ids.
    Each channel is an AudioChannel or a WavChannel."""

    channels: tuple
    meeting_id: str

    def __post_init__(self):
        if len(self.channels) < 2:
            raise ChannelLayoutError("a meeting needs at least 2 channels")
        _check_channel_set(self.channels, "meeting %s" % self.meeting_id)

    @classmethod
    def from_channels(cls, channels, meeting_id: str) -> "MeetingAudio":
        """Build a meeting, zero-padding shorter channels to the longest.

        Padding preserves timestamp alignment for tracks that start or
        stop late.
        """
        channels = list(channels)
        target = max(map(len, channels), default=0)
        return cls(tuple(ch if len(ch) == target else ch.padded(target) for ch in channels),
                   meeting_id)

    @property
    def sample_rate(self) -> int:
        return self.channels[0].sample_rate

    @property
    def n_samples(self) -> int:
        return len(self.channels[0])

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


def _pcm16_only(channels) -> bool:
    """Whether channels are fewer than 2^16 PCM16 WavChannels, so sums
    over them may be taken on the stored integers (see the module
    docstring)."""
    return len(channels) < _PCM16_MAX_CHANNELS and all(
        isinstance(ch, WavChannel) and ch.dtype == "<i2" for ch in channels)


def _check_channel_set(channels, where: str) -> None:
    """Require one sample rate, one length and unique participant ids."""
    rates = {ch.sample_rate for ch in channels}
    if len(rates) != 1:
        raise SampleRateError("%s: channels disagree on sample rate: %s" % (where, sorted(rates)))
    lengths = {len(ch) for ch in channels}
    if len(lengths) != 1:
        raise ChannelLayoutError("%s: channels disagree on length: %s" % (where, sorted(lengths)))
    ids = sorted(ch.participant_id for ch in channels)
    repeated = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
    if repeated:
        raise ChannelLayoutError("%s repeats participant ids %s" % (where, repeated))


@dataclass(frozen=True)
class WavLayout:
    """Where and how a WAV file stores its samples."""

    sample_rate: int
    dtype: str        # "<i2" (16-bit PCM) or "<f4" (32-bit float)
    n_channels: int
    offset: int       # byte offset of the first sample
    n_frames: int     # whole frames; a trailing partial frame is dropped


def read_wav_header(path) -> WavLayout:
    """Walk the chunk headers of a RIFF/WAVE file; read no samples.

    Accepts 16-bit PCM and 32-bit IEEE float, also as
    WAVE_FORMAT_EXTENSIBLE. Raises MalformedWavError for container
    damage and UnsupportedEncodingError for other codecs. A repeated
    fmt or data chunk replaces the earlier one.
    """
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        head = fh.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise MalformedWavError("%s: not a RIFF/WAVE file" % path)
        chunks = {}  # chunk id -> (body offset, body size)
        pos = 12
        while pos + 8 <= size:
            fh.seek(pos)
            cid, length = struct.unpack("<4sI", fh.read(8))
            start = pos + 8
            if start + length > size:
                raise MalformedWavError("%s: chunk %r overruns the file" % (path, cid))
            chunks[cid] = (start, length)
            pos = start + length + (length & 1)  # chunks are word-aligned
        fmt_start, fmt_len = chunks.get(b"fmt ", (0, 0))
        if fmt_len < 16:
            raise MalformedWavError("%s: missing or short fmt chunk" % path)
        if b"data" not in chunks:
            raise MalformedWavError("%s: missing data chunk" % path)
        fh.seek(fmt_start)
        fmt = fh.read(min(fmt_len, 40))

    tag, n_channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if tag == _FMT_EXTENSIBLE and fmt_len >= 40:
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
    data_start, data_len = chunks[b"data"]
    return WavLayout(int(rate), dtype, n_channels, data_start, data_len // block_align)


def wav_layout(path, n_channels: int) -> WavLayout:
    """The header of the WAV at path, which must hold n_channels channels
    (else ChannelLayoutError) at SAMPLE_RATE (else SampleRateError)."""
    layout = read_wav_header(path)
    if layout.n_channels != n_channels:
        raise ChannelLayoutError("%s: %d channels, expected %d"
                                 % (path, layout.n_channels, n_channels))
    if layout.sample_rate != SAMPLE_RATE:
        raise SampleRateError("%s: rate %d Hz, expected %d"
                              % (path, layout.sample_rate, SAMPLE_RATE))
    return layout


def read_at(path, offset: int, out: np.ndarray, error) -> np.ndarray:
    """Fill out, a C-contiguous array, with one readinto of the bytes at
    offset in path, and return it; a short read raises error."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        if fh.readinto(out) != out.nbytes:
            raise error("%s: file shrank after it was checked" % path)
    return out


def check_finite(fh, path, count: int, dtype: np.dtype, error) -> None:
    """Raise error unless the count values of dtype from fh's position
    on are all finite, read _CHECK_BLOCK values at a time."""
    block = np.empty(min(count, _CHECK_BLOCK), dtype)
    for lo in range(0, count, _CHECK_BLOCK):
        part = block[:count - lo]
        if fh.readinto(part) != part.nbytes:
            raise error("%s: file shrank after it was checked" % path)
        if not np.isfinite(part).all():
            raise error("%s: non-finite values" % path)


def _decode(raw: np.ndarray, out: np.ndarray) -> None:
    """Stored samples into out, float32 or float64: 16-bit PCM scaled by
    1/32768, float clipped to [-1, 1]. Dividing by a power of two is
    exact in either, and a finite float32 clips to the same value before
    or after widening."""
    if raw.dtype.kind == "i":
        np.divide(raw, _PCM16_SCALE, out=out, dtype=out.dtype)
    else:
        np.clip(raw, -1.0, 1.0, out=out)


def read_wav_into(path, layout: WavLayout, out: np.ndarray | None = None) -> np.ndarray:
    """Read the samples of the WAV at path, whose header read_wav_header
    returned as layout, into out, a C-contiguous float32 array of shape
    (n_frames, n_channels) (a new one when None), and return it. A float
    payload is read with one read_at, then checked and clipped to
    [-1, 1] in place; non-finite samples raise MalformedWavError. PCM16
    is scaled by 1/32768. Both decode exactly, as _decode does."""
    shape = (layout.n_frames, layout.n_channels)
    if out is None:
        out = np.empty(shape, dtype=_F32)
    elif out.shape != shape or out.dtype != _F32 or not out.flags.c_contiguous:
        raise ValueError("%s: a %s %s array cannot hold %s float32 frames"
                         % (path, out.dtype, out.shape, shape))
    if layout.dtype == "<i2":
        _decode(read_at(path, layout.offset, np.empty(shape, "<i2"), MalformedWavError), out)
        return out
    read_at(path, layout.offset, out, MalformedWavError)
    lo, hi = out.min(initial=0.0), out.max(initial=0.0)  # NaN if any sample is
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise MalformedWavError("%s: non-finite values" % path)
    if lo < -1.0 or hi > 1.0:
        np.clip(out, -1.0, 1.0, out=out)
    return out


def read_wav_data(path) -> tuple[int, np.ndarray]:
    """Read a whole RIFF/WAVE file into (sample_rate, samples[n, channels])
    float64, with the checks of read_wav_header and read_wav_into."""
    layout = read_wav_header(path)
    return layout.sample_rate, read_wav_into(path, layout).astype(np.float64)


def load_wav(path, participant_id: str | None = None) -> WavChannel:
    """Open a mono WAV at the canonical rate as a WavChannel.

    Only the header is parsed, by wav_layout; samples stay in the file.
    A float file is scanned once by check_finite, so a non-finite sample
    anywhere in it raises MalformedWavError here.
    """
    layout = wav_layout(path, 1)
    if layout.dtype == "<f4":
        with open(path, "rb") as fh:
            fh.seek(layout.offset)
            check_finite(fh, path, layout.n_frames, _F32, MalformedWavError)
    return WavChannel(os.fspath(path), layout.sample_rate,
                      str(path) if participant_id is None else participant_id, layout.dtype,
                      layout.offset, layout.n_frames, layout.n_frames)


def write_wav(path, samples: np.ndarray, sample_rate: int = SAMPLE_RATE,
              encoding: str = "float32") -> None:
    """Write samples as a WAV file.

    samples may be 1-D (mono) or (n, channels). encoding is "float32"
    or "pcm16"; pcm16 rounds half to even and clamps to [-32768, 32767].
    A C-ordered float32 array is written as float32 without a copy;
    other samples are taken as float64. Non-finite samples, and float32
    samples past its range, raise AudioError before the file is opened.
    """
    samples = np.asarray(samples)
    if not (encoding == "float32" and samples.dtype == np.float32):
        samples = samples.astype(np.float64, copy=False)
    # one sum finds any NaN or inf; only a sum of finite samples that
    # overflows needs the elementwise check
    with np.errstate(over="ignore"):
        total = samples.sum()
    if not (np.isfinite(total) or np.isfinite(samples).all()):
        raise AudioError("%s: non-finite samples not written" % path)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2:
        raise ChannelLayoutError("samples must be 1-D or 2-D (n, channels)")
    n_channels = samples.shape[1]

    if encoding == "pcm16":
        tag, bits = _FMT_PCM, 16
        quantized = np.multiply(samples, _PCM16_SCALE)
        np.clip(np.round(quantized, out=quantized), -32768, 32767, out=quantized)
        payload = quantized.astype("<i2", order="C")
    elif encoding == "float32":
        tag, bits = _FMT_IEEE_FLOAT, 32
        try:  # the cast flags overflow exactly where a sample would become inf
            with np.errstate(over="raise"):
                payload = samples.astype("<f4", order="C", copy=False)
        except FloatingPointError:
            raise AudioError("%s: samples beyond the float32 range not written"
                             % path) from None
    else:
        raise UnsupportedEncodingError("unknown encoding %r" % encoding)

    block_align = n_channels * bits // 8
    header = struct.pack("<4sI4s4sIHHIIHH4sI",
                         b"RIFF", 36 + payload.nbytes, b"WAVE",
                         b"fmt ", 16, tag, n_channels, sample_rate,
                         sample_rate * block_align, block_align, bits,
                         b"data", payload.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def mixdown(channels, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """Samples [start, stop) of the channels, summed and hard-clipped to
    [-1, 1]: as float64, or written into out, a float32 or float64 array
    of stop - start samples, which is returned.

    Clipping rather than rescaling keeps local energy relationships
    between the interrupter and the rest intact. PCM16 WavChannels
    (_pcm16_only) are summed as their stored int16 windows in int32,
    clipped to +-32768 and scaled once, in out's dtype, which is exact.
    Any other set is read through window and summed in float64 in order
    of the unique participant ids, then clipped into out. Both give the
    same bits under any permutation of the input list.
    """
    channels = list(channels)
    if not channels:
        raise ChannelLayoutError("mixdown of an empty channel list")
    _check_channel_set(channels, "mixdown")
    if not 0 <= start <= stop <= len(channels[0]):
        raise ChannelLayoutError("mixdown span [%d, %d) outside [0, %d]"
                                 % (start, stop, len(channels[0])))
    if _pcm16_only(channels):
        ints = np.zeros(stop - start, dtype=np.int32)
        for ch in channels:
            ints += ch._stored(start, stop)
        np.clip(ints, -32768, 32768, out=ints)
        return np.divide(ints, _PCM16_SCALE, out=out,
                         dtype=np.float64 if out is None else out.dtype)
    total = np.zeros(stop - start)
    for ch in sorted(channels, key=lambda ch: ch.participant_id):
        total += ch.window(start, stop)
    return np.clip(total, -1.0, 1.0, out=total if out is None else out)


def frame_energies_db(channel, frame_len: int) -> np.ndarray:
    """Per-frame RMS energy in dBFS; trailing partial frame is dropped.

    The channel is read _ENERGY_BLOCK_FRAMES frames at a time. A PCM16
    WavChannel's frames are squared and summed as stored integers in
    int64, then scaled by 2^-30; any other channel's block is decoded to
    float64 first. Both give the same bits.
    """
    n_frames = len(channel) // frame_len
    mean_sq = np.empty(n_frames)
    integer = frame_len < _PCM16_MAX_FRAME and _pcm16_only([channel])
    for lo in range(0, n_frames, _ENERGY_BLOCK_FRAMES):
        hi = min(lo + _ENERGY_BLOCK_FRAMES, n_frames)
        start, stop = lo * frame_len, hi * frame_len
        if integer:
            block = channel._stored(start, stop).reshape(hi - lo, frame_len)
            sum_sq = np.einsum("ij,ij->i", block, block, dtype=np.int64)
            mean_sq[lo:hi] = sum_sq * _SQUARE_STEP / frame_len
        else:
            block = channel.window(start, stop).reshape(hi - lo, frame_len)
            mean_sq[lo:hi] = np.mean(block * block, axis=1)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(np.sqrt(mean_sq))
