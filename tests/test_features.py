import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from talkover import audio, features
from talkover.audio import SAMPLE_RATE
from talkover.errors import EmbeddingFormatError, MatrixFormatError, ShapeContractError
from talkover.features import (ANALYSIS_SAMPLES, MFCC_FRAMES, MFCC_HOP,
                               MFCC_N_COEFF, MFCC_N_FFT, PROFILES, SPEC_BINS,
                               SPEC_FRAMES,
                               SPEC_HOP, SPEC_N_FFT, EmbeddingProfile,
                               LayeredEmbedding, load_embeddings, load_matrix,
                               mel_filterbank, mfcc, spectrogram,
                               write_embeddings)


# The framing and per-channel transforms that mfcc and spectrogram
# replaced: a fancy-index gather of every frame from the padded channel,
# and new arrays at every step. They are the oracles of the reused-buffer
# path.
def _frame(x: np.ndarray, n_fft: int, hop: int) -> np.ndarray:
    """Centered framing with zero padding; returns (n_frames, n_fft)."""
    pad = n_fft // 2
    padded = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    n_frames = len(x) // hop + 1
    idx = np.arange(n_fft)[None, :] + hop * np.arange(n_frames)[:, None]
    return padded[idx]


def _mfcc_mono(x: np.ndarray) -> np.ndarray:
    frames = _frame(x, MFCC_N_FFT, MFCC_HOP) * features._MFCC_WINDOW
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    mel = power @ features._MEL_FB.T
    logmel = np.log(mel + features._LOG_FLOOR)
    return (logmel @ features._DCT.T).T.copy()  # (n_coeff, n_frames), C-ordered


def _spectrogram_mono(x: np.ndarray) -> np.ndarray:
    frames = _frame(x, SPEC_N_FFT, SPEC_HOP) * features._SPEC_WINDOW
    return np.abs(np.fft.rfft(frames, axis=1)).T  # (bins, n_frames)


def oracle_features(clip: np.ndarray, mono) -> np.ndarray:
    return np.concatenate([mono(x) for x in clip[-ANALYSIS_SAMPLES:].T])


def make_clip(seed=0, left=None, right=None):
    rng = np.random.default_rng(seed)
    n = 160000
    if left is None:
        left = rng.uniform(-0.5, 0.5, n)
    if right is None:
        right = rng.uniform(-0.5, 0.5, n)
    return np.stack([left, right], axis=1)


def test_frame_count_arithmetic():
    assert ANALYSIS_SAMPLES == 80000
    assert ANALYSIS_SAMPLES // MFCC_HOP + 1 == 401 == MFCC_FRAMES
    assert ANALYSIS_SAMPLES // SPEC_HOP + 1 == 313 == SPEC_FRAMES
    assert SPEC_BINS == 257


def test_mfcc_shape():
    assert mfcc(make_clip()).shape == (2 * MFCC_N_COEFF, MFCC_FRAMES)


def test_spectrogram_shape_and_sign():
    out = spectrogram(make_clip())
    assert out.shape == (2 * SPEC_BINS, SPEC_FRAMES)
    assert np.all(out >= 0.0)


def test_features_are_deterministic():
    clip = make_clip(3)
    assert np.array_equal(mfcc(clip), mfcc(clip))
    assert np.array_equal(spectrogram(clip), spectrogram(clip))


def test_features_use_only_last_five_seconds():
    rng = np.random.default_rng(4)
    tail_l = rng.uniform(-0.5, 0.5, 80000)
    tail_r = rng.uniform(-0.5, 0.5, 80000)

    def with_head(head_seed):
        head = np.random.default_rng(head_seed).uniform(-0.5, 0.5, 80000)
        return make_clip(left=np.concatenate([head, tail_l]),
                         right=np.concatenate([head[::-1], tail_r]))

    a, b = with_head(10), with_head(11)
    assert np.array_equal(mfcc(a), mfcc(b))
    assert np.array_equal(spectrogram(a), spectrogram(b))


def test_short_channel_rejected():
    short = np.zeros((1000, 2))
    with pytest.raises(ShapeContractError):
        mfcc(short)


def test_dct_matrix_is_orthonormal():
    gram = features._DCT @ features._DCT.T
    assert np.abs(gram - np.eye(MFCC_N_COEFF)).max() <= 1e-12


def test_dct_matrix_matches_the_dct_ii_formula():
    n = MFCC_N_COEFF
    expected = np.array([[math.sqrt((1.0 if k == 0 else 2.0) / n)
                          * math.cos(math.pi * k * (2 * i + 1) / (2 * n))
                          for i in range(n)] for k in range(n)])
    np.testing.assert_allclose(features._DCT, expected, rtol=0, atol=1e-15)


def test_mfcc_matches_scipy_dct():
    scipy_fft = pytest.importorskip("scipy.fft")

    def oracle(samples):
        frames = _frame(samples[-ANALYSIS_SAMPLES:], MFCC_N_FFT,
                        MFCC_HOP) * features._MFCC_WINDOW
        power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
        logmel = np.log(power @ features._MEL_FB.T + features._LOG_FLOOR)
        return scipy_fft.dct(logmel, type=2, norm="ortho", axis=1).T

    t = np.arange(160000) / SAMPLE_RATE
    for clip in (make_clip(5), make_clip(left=np.zeros(160000),
                                         right=0.4 * np.sin(2 * np.pi * 440.0 * t))):
        expected = np.concatenate([oracle(clip[:, 0]), oracle(clip[:, 1])])
        got = mfcc(clip)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from([(MFCC_N_FFT, MFCC_HOP, "_MFCC_WINDOW"),
                             (SPEC_N_FFT, SPEC_HOP, "_SPEC_WINDOW")]),
       n=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1), f32=st.booleans())
def test_row_framing_matches_the_gather(pair, n, seed, f32):
    n_fft, hop, window = pair
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, n).astype(
        np.float32 if f32 else np.float64)
    stft = features._Stft(n_fft, getattr(features, window), n)
    want = _frame(x.astype(np.float64), n_fft, hop) * getattr(features, window)
    for _ in range(2):  # the reused rows keep their zero padding
        got = stft.frame(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert stft(x).tobytes() == np.fft.rfft(want, axis=1).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_clip_gives_the_bytes_of_its_float64_widening(seed):
    t = np.arange(160000) / SAMPLE_RATE
    clip = make_clip(seed)
    if seed == 2:  # a silent mixdown takes the log floor everywhere
        clip = make_clip(left=np.zeros(160000), right=0.4 * np.sin(2 * np.pi * 440.0 * t))
    clip32 = clip.astype(np.float32)
    wide = clip32.astype(np.float64)
    scratches = {mfcc: features.MfccScratch(), spectrogram: features.SpectrogramScratch()}
    for extract, mono in ((mfcc, _mfcc_mono), (spectrogram, _spectrogram_mono)):
        # in the array's own memory order, which np.save keeps
        want = oracle_features(wide, mono).tobytes("A")
        assert extract(clip32).tobytes("A") == want
        assert extract(wide).tobytes("A") == want
        # a scratch reused over other clips first gives the same bytes
        extract(make_clip(seed + 10).astype(np.float32), scratches[extract])
        assert extract(clip32, scratches[extract]).tobytes("A") == want


def test_scratch_result_is_its_out():
    scratch = features.MfccScratch()
    first = mfcc(make_clip(1), scratch)
    assert first is scratch.out
    assert mfcc(make_clip(1)) is not mfcc(make_clip(1))


def test_pure_tone_lands_in_its_fft_bin():
    t = np.arange(160000) / SAMPLE_RATE
    tone = 0.4 * np.sin(2 * np.pi * 1000.0 * t)
    clip = make_clip(left=np.zeros(160000), right=tone)
    out = spectrogram(clip)
    right = out[SPEC_BINS:]
    # skip boundary frames where the centered window hangs over the edge
    interior = right[:, 2:-2]
    peak_bins = np.argmax(interior, axis=0)
    expected = 1000.0 * SPEC_N_FFT / SAMPLE_RATE  # analytic bin 32
    assert np.all(np.abs(peak_bins - expected) <= 1)
    # the silent left half carries nothing
    assert np.allclose(out[:SPEC_BINS], 0.0, atol=1e-12)


def test_mel_filterbank_geometry():
    fb = mel_filterbank(40, 400)
    assert fb.shape == (40, 201)
    assert np.all(fb >= 0.0)
    assert np.all(fb <= 1.0)
    # filter centers ascend in frequency
    centers = np.argmax(fb, axis=1)
    assert np.all(np.diff(centers) >= 0)
    # mid-band bins are covered by at least one filter
    coverage = fb.sum(axis=0)
    assert np.all(coverage[5:195] > 0.0)


def test_profile_dimensions():
    assert PROFILES["base"].layers == 13
    assert PROFILES["base"].stacked_dim == 2 * 768
    assert PROFILES["large"].layers == 25
    assert PROFILES["large"].stacked_dim == 2 * 1024
    for p in PROFILES.values():
        assert p.frames == 249
        assert p.channels == 2


def tiny_embedding(seed=0):
    profile = PROFILES["tiny"]
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(profile.channels, profile.layers, profile.dim,
                            profile.frames)).astype(np.float32)
    return LayeredEmbedding(data, profile)


def test_embedding_shape_contract():
    profile = PROFILES["tiny"]
    with pytest.raises(ShapeContractError):
        LayeredEmbedding(np.zeros((2, 5, 32, 100), dtype=np.float32), profile)


def test_embedding_rejects_non_finite():
    profile = PROFILES["tiny"]
    data = np.zeros((2, 5, 32, 249), dtype=np.float32)
    data[0, 0, 0, 0] = np.nan
    with pytest.raises(EmbeddingFormatError):
        LayeredEmbedding(data, profile)


def read_back(handle):
    """The values an embedding handle holds, read through read_into."""
    out = np.empty(handle.profile.shape, np.float32)
    handle.read_into(out)
    return out


def test_embedding_file_round_trip(tmp_path):
    emb = tiny_embedding()
    path = tmp_path / "clip.sie"
    write_embeddings(path, emb)
    back = load_embeddings(path, PROFILES["tiny"])
    assert np.array_equal(read_back(back), emb.data)
    assert back.profile == PROFILES["tiny"]


def test_in_memory_embedding_reads_into_a_row():
    emb = tiny_embedding(3)
    assert np.array_equal(read_back(emb), emb.data)


def test_read_into_rejects_a_buffer_of_another_shape(tmp_path):
    emb = tiny_embedding()
    path = tmp_path / "clip.sie"
    write_embeddings(path, emb)
    for handle in (emb, load_embeddings(path, PROFILES["tiny"])):
        with pytest.raises(ShapeContractError):
            handle.read_into(np.empty((2, 5, 32, 248), np.float32))
        with pytest.raises(ShapeContractError):
            handle.read_into(np.empty(PROFILES["tiny"].shape))


def test_embedding_file_rejects_trailing_bytes(tmp_path):
    emb = tiny_embedding()
    path = tmp_path / "clip.sie"
    write_embeddings(path, emb)
    with open(path, "ab") as fh:
        fh.write(b"\0" * 700)
    with pytest.raises(EmbeddingFormatError, match="700 trailing bytes"):
        load_embeddings(path, PROFILES["tiny"])


def test_embedding_file_cut_after_its_check_fails_to_read(tmp_path):
    emb = tiny_embedding()
    path = tmp_path / "clip.sie"
    write_embeddings(path, emb)
    handle = load_embeddings(path, PROFILES["tiny"])
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(EmbeddingFormatError, match="shrank"):
        read_back(handle)


@pytest.mark.parametrize("at", [0, 6, 7, -1])
def test_finiteness_check_covers_every_block(tmp_path, monkeypatch, at):
    # blocks of 7 values: a NaN first, last, or either side of a boundary
    monkeypatch.setattr(audio, "_CHECK_BLOCK", 7)
    emb = tiny_embedding()
    path = tmp_path / "clip.sie"
    write_embeddings(path, emb)
    assert np.array_equal(read_back(load_embeddings(path, PROFILES["tiny"])), emb.data)
    data = emb.data.copy()
    data.reshape(-1)[at] = np.nan
    with open(path, "r+b") as fh:
        fh.seek(24)
        fh.write(data.astype("<f4").tobytes())
    with pytest.raises(EmbeddingFormatError, match="non-finite"):
        load_embeddings(path, PROFILES["tiny"])


def test_embedding_file_rejects_wrong_profile(tmp_path):
    emb = tiny_embedding()
    path = tmp_path / "clip.sie"
    write_embeddings(path, emb)
    with pytest.raises((ShapeContractError, EmbeddingFormatError)):
        load_embeddings(path, PROFILES["base"])


def test_embedding_file_rejects_bad_magic(tmp_path):
    emb = tiny_embedding()
    path = tmp_path / "clip.sie"
    write_embeddings(path, emb)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(path, PROFILES["tiny"])


def test_embedding_file_rejects_truncation(tmp_path):
    emb = tiny_embedding()
    path = tmp_path / "clip.sie"
    write_embeddings(path, emb)
    blob = path.read_bytes()
    path.write_bytes(blob[:-100])
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(path, PROFILES["tiny"])


def test_custom_profile_round_trip(tmp_path):
    profile = EmbeddingProfile("fd", layers=3, dim=4, frames=6, channels=2)
    rng = np.random.default_rng(9)
    emb = LayeredEmbedding(
        rng.normal(size=(2, 3, 4, 6)).astype(np.float32), profile)
    path = tmp_path / "clip.sie"
    write_embeddings(path, emb)
    back = load_embeddings(path, profile)
    assert np.array_equal(read_back(back), emb.data)


@pytest.mark.parametrize("dtype", ["<f8", ">f8", "<f4", "<f2"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_matrix_file_reads_what_np_load_reads(tmp_path, dtype, order):
    rng = np.random.default_rng(10)
    want = np.asarray(rng.normal(size=(5, 7)), dtype=dtype, order=order)
    path = tmp_path / "clip.npy"
    np.save(path, want)
    handle = load_matrix(path)
    assert handle.shape == (5, 7)
    got = handle.read()
    assert got.dtype == np.float64
    assert np.array_equal(got, np.load(path).astype(np.float64))


@pytest.mark.parametrize("array", [np.zeros(6), np.zeros((2, 3, 4)), np.zeros((0, 4)),
                                   np.zeros((3, 4), np.int64), np.zeros((3, 4), complex),
                                   np.zeros((3, 4), bool), np.array([["a", "b"]]),
                                   np.array([[1.0, None]], dtype=object)])
def test_matrix_file_needs_a_2d_real_float_matrix(tmp_path, array):
    path = tmp_path / "clip.npy"
    np.save(path, array)
    with pytest.raises(MatrixFormatError, match="not a 2-D real float matrix"):
        load_matrix(path)


@pytest.mark.parametrize("at", [0, 6, 7, -1])
def test_matrix_file_checks_size_and_every_value(tmp_path, monkeypatch, at):
    monkeypatch.setattr(audio, "_CHECK_BLOCK", 7)
    path = tmp_path / "clip.npy"
    data = np.arange(24.0).reshape(4, 6)
    np.save(path, data)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(MatrixFormatError, match="truncated payload"):
        load_matrix(path)
    path.write_bytes(blob + bytes(3))
    with pytest.raises(MatrixFormatError, match="3 trailing bytes"):
        load_matrix(path)
    data.reshape(-1)[at] = np.inf
    np.save(path, data)
    with pytest.raises(MatrixFormatError, match="non-finite"):
        load_matrix(path)
    for garbage in (b"", b"\x93NUMPY", b"\x93NUMPY\x03\x00" + bytes(8), b"PK\x03\x04" + bytes(60)):
        path.write_bytes(garbage)
        with pytest.raises(MatrixFormatError, match="malformed .npy header"):
            load_matrix(path)


def test_matrix_file_cut_after_its_check_fails_to_read(tmp_path):
    path = tmp_path / "clip.npy"
    np.save(path, np.ones((3, 4)))
    handle = load_matrix(path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(MatrixFormatError, match="shrank"):
        handle.read()
