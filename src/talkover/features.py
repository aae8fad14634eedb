"""Feature tensors for the classifier: MFCC, magnitude spectrogram, and
precomputed self-supervised embeddings checked in SIE1 files, which
load_embeddings leaves on disk behind an EmbeddingFile handle; load_matrix
does the same for a (d, M) feature matrix in a .npy file. Both are
checked and read back as the audio module's docstring describes.

Every extractor takes a clip as the (n, 2) array export_clip cuts and
load_clip reads, float32 or float64, consumes only its last 5 seconds
(80000 rows) and stacks the per-channel feature blocks along the feature
axis: rows [0, d) come from column 0 (the mixdown), rows [d, 2d) from
column 1 (the interrupter). Window and hop sizes are fixed so 5 s of
16 kHz audio yields exactly 401 MFCC frames and 313 spectrogram frames.

Each FFT is two hops long, so the centered, zero-padded channel is laid
out as hop-sized rows and frame k is rows k and k + 1 joined; the
window multiply, the FFT and everything after it run in float64 and
write into the arrays of an MfccScratch or SpectrogramScratch, which a
loop over clips allocates once. A float32 clip gives the bytes of its
float64 widening.
"""
from __future__ import annotations

import os
import struct
import tokenize
from dataclasses import dataclass

import numpy as np

from .audio import SAMPLE_RATE, check_finite, read_at
from .errors import EmbeddingFormatError, MatrixFormatError, ShapeContractError

ANALYSIS_WINDOW_S = 5.0
ANALYSIS_SAMPLES = int(ANALYSIS_WINDOW_S * SAMPLE_RATE)

MFCC_N_FFT = 400
MFCC_HOP = 200
MFCC_N_COEFF = 40
MFCC_FRAMES = ANALYSIS_SAMPLES // MFCC_HOP + 1  # 401

SPEC_N_FFT = 512
SPEC_HOP = 256
SPEC_BINS = SPEC_N_FFT // 2 + 1  # 257
SPEC_FRAMES = ANALYSIS_SAMPLES // SPEC_HOP + 1  # 313

_LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class EmbeddingProfile:
    """Shape contract for one family of SSL embedding files."""

    name: str
    layers: int
    dim: int
    frames: int = 249  # 5 s at 20 ms frame shift
    channels: int = 2

    @property
    def stacked_dim(self) -> int:
        return self.channels * self.dim

    @property
    def shape(self) -> tuple:
        """(channels, layers, dim, frames), the order of an SIE1 payload."""
        return (self.channels, self.layers, self.dim, self.frames)


# base/large mirror the published encoder sizes; tiny is the synthetic
# profile used by the fixture corpus so desk-scale runs stay small.
PROFILES = {
    "base": EmbeddingProfile("base", layers=13, dim=768),
    "large": EmbeddingProfile("large", layers=25, dim=1024),
    "tiny": EmbeddingProfile("tiny", layers=5, dim=32),
}


@dataclass(frozen=True)
class LayeredEmbedding:
    """Per-layer embeddings for one clip, held in memory:
    data[channel, layer, dim, frame]."""

    data: np.ndarray
    profile: EmbeddingProfile

    def __post_init__(self):
        p = self.profile
        if self.data.shape != p.shape:
            raise ShapeContractError(
                "embedding shape %s does not match profile %s %s"
                % (self.data.shape, p.name, p.shape)
            )
        if not np.all(np.isfinite(self.data)):
            raise EmbeddingFormatError("embedding contains non-finite values")

    def read_into(self, out: np.ndarray) -> None:
        """Copy the values into out, an f32 array of profile.shape."""
        _check_row(out, self.profile)
        out[...] = self.data


@dataclass(frozen=True)
class EmbeddingFile:
    """Per-layer embeddings for one clip, left in their SIE1 file.

    load_embeddings has checked the header, the payload size and every
    value, so read_into() copies finite values straight from the file
    into the caller's buffer, and no clip stays in memory between reads.
    """

    path: str
    profile: EmbeddingProfile

    def read_into(self, out: np.ndarray) -> None:
        """Read the payload into out, a C-contiguous f32 array of
        profile.shape, with one read_at at the payload's offset."""
        _check_row(out, self.profile)
        read_at(self.path, _SIE1_HEADER_BYTES, out, EmbeddingFormatError)


@dataclass(frozen=True)
class MatrixFile:
    """One (d, M) feature matrix, left in its .npy file.

    load_matrix has checked the header, the file size and every value,
    so read() returns finite values, and no matrix stays in memory
    between reads.
    """

    path: str
    shape: tuple
    dtype: np.dtype
    fortran_order: bool
    offset: int  # of the first value

    def read(self) -> np.ndarray:
        """The matrix as float64, by one read_at (of its transpose if Fortran-ordered)."""
        shape = self.shape[::-1] if self.fortran_order else self.shape
        values = read_at(self.path, self.offset, np.empty(shape, self.dtype), MatrixFormatError)
        return (values.T if self.fortran_order else values).astype(np.float64, copy=False)


def _check_row(out: np.ndarray, profile: EmbeddingProfile) -> None:
    if out.shape != profile.shape or out.dtype != _SIE1_DTYPE:
        raise ShapeContractError("%s %s buffer cannot hold a profile %s %s embedding"
                                 % (out.dtype, out.shape, profile.name, profile.shape))


class _Stft:
    """Reused arrays for the STFT of n_samples samples with an FFT of
    n_fft = 2 * hop and centered zero padding of hop at each end:
    n_samples // hop + 1 frames."""

    def __init__(self, n_fft: int, window: np.ndarray, n_samples: int = ANALYSIS_SAMPLES):
        hop = n_fft // 2
        n_frames = n_samples // hop + 1
        self.window = window
        # the padded samples as hop-sized rows; the samples never reach
        # the first row or the end of the last, so the padding stays 0
        self.rows = np.zeros((n_frames + 1, hop))
        self.frames = np.empty((n_frames, n_fft))
        self.spectrum = np.empty((n_frames, hop + 1), dtype=np.complex128)

    def frame(self, x: np.ndarray) -> np.ndarray:
        """The windowed frames of x, (n_frames, n_fft): frame k is rows
        k and k + 1 joined."""
        hop = self.rows.shape[1]
        self.rows.reshape(-1)[hop:hop + len(x)] = x
        np.multiply(self.rows[:-1], self.window[:hop], out=self.frames[:, :hop])
        np.multiply(self.rows[1:], self.window[hop:], out=self.frames[:, hop:])
        return self.frames

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The rfft of each windowed frame of x, (n_frames, hop + 1)."""
        return np.fft.rfft(self.frame(x), axis=1, out=self.spectrum)


def _hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def mel_filterbank(n_mels: int, n_fft: int) -> np.ndarray:
    """Triangular mel filters spanning 0 Hz to Nyquist at SAMPLE_RATE, as
    a (n_mels, n_fft // 2 + 1) matrix."""

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    mel_points = np.linspace(to_mel(0.0), to_mel(SAMPLE_RATE / 2.0), n_mels + 2)
    hz_points = from_mel(mel_points)
    bin_freqs = np.arange(n_fft // 2 + 1) * SAMPLE_RATE / n_fft

    fb = np.zeros((n_mels, len(bin_freqs)))
    for m in range(n_mels):
        left, center, right = hz_points[m: m + 3]
        up = (bin_freqs - left) / (center - left)
        down = (right - bin_freqs) / (right - center)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


def _dct2(n: int) -> np.ndarray:
    """Orthonormal DCT-II as an (n, n) matrix: row k is
    sqrt(2/n) * cos(pi * k * (2i + 1) / 2n), row 0 scaled by 1/sqrt(2)."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
    mat[0] /= np.sqrt(2.0)
    return mat


_MEL_FB = mel_filterbank(MFCC_N_COEFF, MFCC_N_FFT)
_DCT = _dct2(MFCC_N_COEFF)
_MFCC_WINDOW = _hann(MFCC_N_FFT)
_SPEC_WINDOW = _hann(SPEC_N_FFT)


def _tail(clip: np.ndarray) -> np.ndarray:
    """The clip's last ANALYSIS_SAMPLES rows."""
    if len(clip) < ANALYSIS_SAMPLES:
        raise ShapeContractError(
            "channel holds %d samples, need at least %d" % (len(clip), ANALYSIS_SAMPLES)
        )
    return clip[-ANALYSIS_SAMPLES:]


class MfccScratch:
    """The arrays mfcc computes a clip's MFCCs in. A loop that passes
    one MfccScratch to every call allocates them once; each call returns
    .out, which the next call overwrites."""

    def __init__(self):
        self.stft = _Stft(MFCC_N_FFT, _MFCC_WINDOW)
        self.power = np.empty(self.stft.spectrum.shape)
        self.mel = np.empty((MFCC_FRAMES, MFCC_N_COEFF))
        self.cepstra = np.empty((MFCC_FRAMES, MFCC_N_COEFF))
        self.out = np.empty((2 * MFCC_N_COEFF, MFCC_FRAMES))


class SpectrogramScratch:
    """The arrays spectrogram computes a clip's spectrogram in, reused
    as MfccScratch's are."""

    def __init__(self):
        self.stft = _Stft(SPEC_N_FFT, _SPEC_WINDOW)
        # Fortran order, as the stacked transposed spectra always were,
        # so that np.save writes the same bytes
        self.out = np.empty((2 * SPEC_BINS, SPEC_FRAMES), order="F")


def mfcc(clip: np.ndarray, scratch: MfccScratch | None = None) -> np.ndarray:
    """40 MFCCs per channel over the last 5 s of an (n, 2) clip, as
    export_clip and load_clip return it; shape (80, 401), computed in
    scratch (a new one when None) and returned as its .out.

    Window 400 samples, hop 200, centered zero padding, 40-filter mel
    bank over 0-8 kHz, orthonormal DCT-II with c0 kept.
    """
    s = MfccScratch() if scratch is None else scratch
    for c, x in enumerate(_tail(clip).T):
        power = np.abs(s.stft(x), out=s.power)
        np.square(power, out=power)
        mel = np.matmul(power, _MEL_FB.T, out=s.mel)
        np.log(np.add(mel, _LOG_FLOOR, out=mel), out=mel)
        # frames by coefficients: unlike _DCT @ mel.T, the same bytes at 1 and 2 BLAS threads
        s.out[c * MFCC_N_COEFF:(c + 1) * MFCC_N_COEFF] = np.matmul(mel, _DCT.T, out=s.cepstra).T
    return s.out


def spectrogram(clip: np.ndarray, scratch: SpectrogramScratch | None = None) -> np.ndarray:
    """Magnitude STFT per channel over the last 5 s of an (n, 2) clip;
    shape (514, 313), computed in scratch (a new one when None) and
    returned as its .out.

    FFT size 512 (257 bins), hop 256, centered zero padding.
    """
    s = SpectrogramScratch() if scratch is None else scratch
    for c, x in enumerate(_tail(clip).T):
        np.abs(s.stft(x).T, out=s.out[c * SPEC_BINS:(c + 1) * SPEC_BINS])
    return s.out


_SIE1_MAGIC = b"SIE1"
_SIE1_VERSION = 1
_SIE1_HEADER_BYTES = 24
_SIE1_DTYPE = np.dtype("<f4")
_NPY_HEADER_MAX = 1024  # np.save writes 118 header bytes for a 2-D float matrix


def _check_payload(fh, path, count: int, dtype: np.dtype, error) -> None:
    """Raise error unless fh holds exactly count values of dtype from its
    position on, all finite by check_finite."""
    extra = os.fstat(fh.fileno()).st_size - fh.tell() - dtype.itemsize * count
    if extra < 0:
        raise error("%s: truncated payload" % path)
    if extra > 0:
        raise error("%s: %d trailing bytes after the payload" % (path, extra))
    check_finite(fh, path, count, dtype, error)


def write_embeddings(path, emb: LayeredEmbedding) -> None:
    """Serialize an embedding to the SIE1 container.

    Layout: magic "SIE1", u32 version, u32 layers, u32 dim, u32 frames,
    u32 channels, then float32 values in channel-major order (channel,
    layer, feature row, frame), all little-endian.
    """
    p = emb.profile
    header = _SIE1_MAGIC + struct.pack("<5I", _SIE1_VERSION, p.layers, p.dim, p.frames, p.channels)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(emb.data, dtype=_SIE1_DTYPE).tobytes())


def load_embeddings(path, expected: EmbeddingProfile) -> EmbeddingFile:
    """Check a SIE1 file against an expected profile and return its
    handle. The header must declare the profile's shape, the file must
    end right after the payload, and every value must be finite; the
    payload is read once, by check_finite."""
    with open(path, "rb") as fh:
        header = fh.read(_SIE1_HEADER_BYTES)
        if len(header) < _SIE1_HEADER_BYTES or header[:4] != _SIE1_MAGIC:
            raise EmbeddingFormatError("%s: bad magic, not a SIE1 file" % path)
        version, layers, dim, frames, channels = struct.unpack("<5I", header[4:])
        if version != _SIE1_VERSION:
            raise EmbeddingFormatError("%s: unsupported version %d" % (path, version))
        declared = (channels, layers, dim, frames)
        if declared != expected.shape:
            raise ShapeContractError(
                "%s: file declares (C, L, d, M)=%s, profile %r requires %s"
                % (path, declared, expected.name, expected.shape)
            )
        _check_payload(fh, path, channels * layers * dim * frames, _SIE1_DTYPE,
                       EmbeddingFormatError)
    return EmbeddingFile(path, expected)


def load_matrix(path) -> MatrixFile:
    """Check a .npy feature file and return its handle. The header must
    be a format 1.0 header of at most _NPY_HEADER_MAX bytes, as np.save
    writes for a matrix, describing a 2-D real float array with no empty
    axis; the file must end right after the values, and every value must
    be finite. The values are read once, by check_finite."""
    with open(path, "rb") as fh:
        try:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("format version is not 1.0")
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(
                fh, max_header_size=_NPY_HEADER_MAX)
        # numpy parses the header with ast.literal_eval (a dict with an
        # unhashable key raises TypeError) and retries a header that does
        # not parse through tokenize, whose errors it lets through
        except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:
            raise MatrixFormatError("%s: malformed .npy header (%s)" % (path, exc)) from None
        if len(shape) != 2 or min(shape) < 1 or dtype.kind != "f":
            raise MatrixFormatError("%s: holds a %s array of shape %s, not a 2-D real float "
                                    "matrix" % (path, dtype, shape))
        offset = fh.tell()
        _check_payload(fh, path, shape[0] * shape[1], dtype, MatrixFormatError)
    return MatrixFile(path, shape, dtype, fortran_order, offset)
