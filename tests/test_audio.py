import ast
import os
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from talkover import audio
from talkover.audio import (AudioChannel, MeetingAudio, SAMPLE_RATE, frame_energies_db,
                            load_wav, mixdown, read_wav_data, read_wav_header, write_wav)
from talkover.errors import (AudioError, ChannelLayoutError, MalformedWavError,
                             SampleRateError, UnsupportedEncodingError)


def test_pcm16_round_trip_within_quantum(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-1.0, 32767.0 / 32768.0, 4000)
    path = tmp_path / "t.wav"
    write_wav(path, samples, encoding="pcm16")
    ch = load_wav(path, "p")
    assert len(ch) == 4000
    assert np.max(np.abs(ch.window(0, len(ch)) - samples)) <= 1.0 / 32768


def test_float32_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.uniform(-1.0, 1.0, 1000).astype(np.float32).astype(np.float64)
    path = tmp_path / "t.wav"
    write_wav(path, samples, encoding="float32")
    ch = load_wav(path)
    assert np.array_equal(ch.window(0, len(ch)), samples)
    assert ch.participant_id == str(path)


def test_pcm16_negative_full_scale_clamps(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, np.array([-1.0, 1.0 - 1.0 / 32768]), encoding="pcm16")
    ch = load_wav(path, "p")
    assert ch.window(0, len(ch))[0] == -1.0
    # a span past the stored end reads the stored int16s, then int16 zeros
    raw = ch.padded(4)._stored(1, 4)
    assert raw.dtype == np.int16 and raw.tolist() == [32767, 0, 0]


def test_load_rejects_other_rates(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, np.zeros(100), sample_rate=8000)
    with pytest.raises(SampleRateError):
        load_wav(path)


def test_load_rejects_stereo(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, np.zeros((100, 2)))
    with pytest.raises(ChannelLayoutError):
        load_wav(path)


@pytest.mark.parametrize("at", [0, 6, 7, -1])
def test_load_scans_every_block_of_a_float_track(tmp_path, monkeypatch, at):
    # blocks of 7 samples: a NaN first, last, or either side of a boundary
    monkeypatch.setattr(audio, "_CHECK_BLOCK", 7)
    path = tmp_path / "t.wav"
    samples = np.zeros(20, np.float32)
    write_wav(path, samples)
    assert len(load_wav(path)) == 20
    samples[at] = np.nan
    with open(path, "r+b") as fh:
        fh.seek(read_wav_header(path).offset)
        fh.write(samples.tobytes())
    with pytest.raises(MalformedWavError, match="^%s: non-finite values$" % path):
        load_wav(path)


def test_read_stereo_shape(tmp_path):
    path = tmp_path / "t.wav"
    data = np.stack([np.full(50, 0.25), np.full(50, -0.5)], axis=1)
    write_wav(path, data)
    rate, frames = read_wav_data(path)
    assert rate == SAMPLE_RATE
    assert frames.shape == (50, 2)
    assert np.allclose(frames, data, atol=1e-7)


def test_not_riff_rejected(tmp_path):
    path = tmp_path / "t.wav"
    path.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(MalformedWavError):
        read_wav_data(path)


def test_truncated_chunk_rejected(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, np.zeros(100))
    whole = path.read_bytes()
    path.write_bytes(whole[:-10])
    with pytest.raises(MalformedWavError):
        read_wav_data(path)


def test_unsupported_codec_rejected(tmp_path):
    # 8-bit PCM is a valid WAV but outside the accepted encodings
    fmt = struct.pack("<HHIIHH", 1, 1, SAMPLE_RATE, SAMPLE_RATE, 1, 8)
    payload = b"\x80" * 16
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path = tmp_path / "t.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.raises(UnsupportedEncodingError):
        read_wav_data(path)


def test_missing_data_chunk_rejected(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    path = tmp_path / "t.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.raises(MalformedWavError):
        read_wav_data(path)


def bytes_read_wav_data(path):
    """The whole-file parser that read_wav_data replaced: the bytes are
    read into memory and the chunks sliced out of them."""
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWavError("not a RIFF/WAVE file")
    fmt = payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        start = pos + 8
        if start + size > len(data):
            raise MalformedWavError("chunk overruns the file")
        if cid == b"fmt ":
            fmt = data[start:start + size]
        elif cid == b"data":
            payload = data[start:start + size]
        pos = start + size + (size & 1)
    if fmt is None or len(fmt) < 16:
        raise MalformedWavError("missing or short fmt chunk")
    if payload is None:
        raise MalformedWavError("missing data chunk")
    tag, n_channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if tag == 0xFFFE and len(fmt) >= 40:
        tag = struct.unpack_from("<H", fmt, 24)[0]
    if tag == 1 and bits == 16:
        dtype = "<i2"
    elif tag == 3 and bits == 32:
        dtype = "<f4"
    else:
        raise UnsupportedEncodingError("format not supported")
    if n_channels < 1:
        raise MalformedWavError("zero channels declared")
    if block_align != n_channels * bits // 8:
        raise MalformedWavError("block alignment inconsistent with format")
    usable = len(payload) - len(payload) % block_align
    frames = np.frombuffer(payload[:usable], dtype=dtype).reshape(-1, n_channels)
    with np.errstate(invalid="ignore"):  # a signaling NaN widens to a quiet one
        frames = frames.astype(np.float64)
    if dtype == "<i2":
        frames /= 32768.0
    else:
        if not np.all(np.isfinite(frames)):
            raise MalformedWavError("non-finite float samples")
        np.clip(frames, -1.0, 1.0, out=frames)
    return int(rate), frames


def _chunk(cid, body):
    return cid + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


def wav_bytes(rng, encoding, n_channels, n_frames, extensible, junk, partial):
    """A WAV file with an optional EXTENSIBLE fmt, an odd-sized chunk
    before the data, and a partial frame at the end of the data."""
    tag, bits = (1, 16) if encoding == "pcm16" else (3, 32)
    samples = rng.uniform(-1.1, 1.1, (n_frames, n_channels))
    if encoding == "pcm16":
        payload = np.clip(np.round(samples * 32768), -32768, 32767).astype("<i2").tobytes()
    else:
        payload = samples.astype("<f4").tobytes()
    payload += bytes(partial)
    align = n_channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, n_channels, SAMPLE_RATE,
                      SAMPLE_RATE * align, align, bits)
    if extensible:
        fmt += struct.pack("<HHI", 22, bits, 0) + struct.pack("<H", tag) + bytes(14)
    body = _chunk(b"fmt ", fmt) + _chunk(b"junk", bytes(junk)) * (junk > 0)
    body += _chunk(b"data", payload)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _outcome(read, path):
    try:
        rate, frames = read(path)
    except AudioError as exc:
        return type(exc)
    return rate, frames.shape, frames.tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), encoding=st.sampled_from(["pcm16", "float32"]),
       n_channels=st.sampled_from([1, 2]), n_frames=st.integers(0, 40),
       extensible=st.booleans(), junk=st.integers(0, 5), partial=st.integers(0, 3),
       data=st.data())
def test_header_parser_matches_whole_file_oracle(seed, encoding, n_channels, n_frames,
                                                 extensible, junk, partial, data):
    rng = np.random.default_rng(seed)
    blob = bytearray(wav_bytes(rng, encoding, n_channels, n_frames, extensible, junk, partial))
    for _ in range(data.draw(st.integers(0, 4), label="bytes")):
        # every header byte, and the first samples
        at = data.draw(st.integers(0, min(len(blob), 96) - 1), label="byte")
        blob[at] = data.draw(st.integers(0, 255), label="value")
    blob = blob[:data.draw(st.none() | st.integers(0, len(blob)), label="truncate at")]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.wav")
        with open(path, "wb") as fh:
            fh.write(blob)
        assert _outcome(read_wav_data, path) == _outcome(bytes_read_wav_data, path)


def test_header_locates_samples_without_reading_them(tmp_path):
    path = tmp_path / "t.wav"
    rng = np.random.default_rng(0)
    path.write_bytes(wav_bytes(rng, "float32", 2, 10, extensible=True, junk=3, partial=5))
    layout = read_wav_header(path)
    assert (layout.sample_rate, layout.dtype, layout.n_channels, layout.n_frames) == \
        (SAMPLE_RATE, "<f4", 2, 10)
    # RIFF header 12, fmt 8 + 40, junk 8 + 3 + 1 pad, data header 8
    assert layout.offset == 80


@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_wav_refuses_non_finite_samples(tmp_path, encoding, bad):
    samples = np.zeros((50, 2))
    samples[37, 1] = bad
    path = tmp_path / "t.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AudioError, match="non-finite"):
            write_wav(path, samples, encoding=encoding)
    assert not path.exists()


def test_write_wav_refuses_samples_past_the_float32_range(tmp_path):
    path = tmp_path / "t.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AudioError, match="float32 range"):
            write_wav(path, [0.5, 1e39], encoding="float32")
    assert not path.exists()


def test_write_wav_takes_finite_samples_whose_sum_overflows(tmp_path):
    samples = np.array([1e308, 1e308, -0.5])
    with np.errstate(over="ignore"):  # the quantizer's scaling overflows to inf, then clips
        write_wav(tmp_path / "t.wav", samples, encoding="pcm16")
    assert read_wav_data(tmp_path / "t.wav")[1][:, 0].tolist() == [32767 / 32768, 32767 / 32768,
                                                                    -0.5]


def test_channel_rejects_out_of_range():
    with pytest.raises(AudioError):
        AudioChannel(np.array([0.0, 1.5]), SAMPLE_RATE, "p")


def test_channel_rejects_non_finite():
    with pytest.raises(AudioError):
        AudioChannel(np.array([0.0, np.nan]), SAMPLE_RATE, "p")


def test_channel_rejects_2d():
    with pytest.raises(ChannelLayoutError):
        AudioChannel(np.zeros((4, 2)), SAMPLE_RATE, "p")


def test_channel_samples_are_immutable():
    ch = AudioChannel(np.zeros(4), SAMPLE_RATE, "p")
    with pytest.raises(ValueError):
        ch.samples[0] = 1.0


def test_from_channels_pads_to_longest():
    a = AudioChannel(np.full(100, 0.1), SAMPLE_RATE, "a")
    b = AudioChannel(np.full(60, 0.2), SAMPLE_RATE, "b")
    meeting = MeetingAudio.from_channels([a, b], "m")
    assert meeting.n_samples == 100
    padded = [ch for ch in meeting.channels if ch.participant_id == "b"][0]
    assert len(padded) == 100
    assert np.all(padded.window(60, 100) == 0.0)


def test_meeting_needs_two_channels():
    a = AudioChannel(np.zeros(10), SAMPLE_RATE, "a")
    with pytest.raises(ChannelLayoutError):
        MeetingAudio.from_channels([a], "m")


def test_meeting_rejects_repeated_participant_ids():
    chans = [AudioChannel(np.zeros(10), SAMPLE_RATE, pid) for pid in ("a", "b", "a")]
    with pytest.raises(ChannelLayoutError, match=r"\['a'\]"):
        MeetingAudio(tuple(chans), "m")
    with pytest.raises(ChannelLayoutError):
        MeetingAudio.from_channels(chans, "m")


def test_meeting_rejects_mixed_rates():
    a = AudioChannel(np.zeros(10), SAMPLE_RATE, "a")
    b = AudioChannel(np.zeros(10), 8000, "b")
    with pytest.raises(SampleRateError):
        MeetingAudio.from_channels([a, b], "m")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_channels=st.integers(2, 4))
def test_mixdown_permutation_invariant(seed, n_channels):
    rng = np.random.default_rng(seed)
    channels = [
        AudioChannel(rng.uniform(-0.6, 0.6, 64), SAMPLE_RATE, "p%d" % i)
        for i in range(n_channels)
    ]
    ref = mixdown(channels, 0, 64)
    perm = [channels[i] for i in rng.permutation(n_channels)]
    out = mixdown(perm, 0, 64)
    assert out.tobytes() == ref.tobytes()


def test_mixdown_hard_clips():
    chans = [AudioChannel(np.full(8, 0.8), SAMPLE_RATE, "p%d" % i) for i in range(3)]
    out = mixdown(chans, 0, 8)
    assert np.all(out == 1.0)
    neg = [AudioChannel(np.full(8, -0.7), SAMPLE_RATE, "n%d" % i) for i in range(2)]
    assert np.all(mixdown(neg, 0, 8) == -1.0)


def test_mixdown_rejects_repeated_participant_ids():
    # equal ids would leave the summation order, and so the last bits of
    # the mix, to the order of the input list
    chans = [AudioChannel(np.full(8, v), SAMPLE_RATE, "p") for v in (0.1, 0.2)]
    with pytest.raises(ChannelLayoutError):
        mixdown(chans, 0, 8)


def test_mixdown_empty_rejected():
    with pytest.raises(ChannelLayoutError):
        mixdown([], 0, 0)


def test_mixdown_length_mismatch_rejected():
    a = AudioChannel(np.zeros(8), SAMPLE_RATE, "a")
    b = AudioChannel(np.zeros(9), SAMPLE_RATE, "b")
    with pytest.raises(ChannelLayoutError):
        mixdown([a, b], 0, 8)


def test_mixdown_rate_mismatch_rejected():
    a = AudioChannel(np.zeros(8), SAMPLE_RATE, "a")
    b = AudioChannel(np.zeros(8), 8000, "b")
    with pytest.raises(SampleRateError):
        mixdown([a, b], 0, 8)


@pytest.mark.parametrize("start, stop", [(-1, 4), (5, 4), (0, 9), (9, 9)])
def test_mixdown_rejects_a_span_outside_the_channels(start, stop):
    chans = [AudioChannel(np.zeros(8), SAMPLE_RATE, pid) for pid in ("a", "b")]
    with pytest.raises(ChannelLayoutError, match="span"):
        mixdown(chans, start, stop)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data(),
       tracks=st.lists(st.tuples(st.sampled_from(["pcm16", "float32"]), st.integers(0, 300)),
                       min_size=1, max_size=4),
       pad=st.integers(0, 40))
def test_wav_mixdown_matches_in_memory_and_loop_oracles(seed, data, tracks, pad):
    rng = np.random.default_rng(seed)
    n = max(n_stored for _, n_stored in tracks) + pad
    pids = ["p%d" % k for k in rng.permutation(len(tracks))]
    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(start, n))
    with tempfile.TemporaryDirectory() as tmp:
        wav_channels, memory_channels = [], []
        for pid, (encoding, n_stored) in zip(pids, tracks):
            path = os.path.join(tmp, pid + ".wav")
            write_wav(path, rng.uniform(-1.0, 1.0, n_stored), encoding=encoding)
            wav_channels.append(load_wav(path, pid).padded(n))
            stored = read_wav_data(path)[1][:, 0]
            memory_channels.append(
                AudioChannel(np.concatenate([stored, np.zeros(n - n_stored)]), SAMPLE_RATE, pid))
        got = mixdown(wav_channels, start, stop)
        total = np.zeros(stop - start)
        for ch in sorted(wav_channels, key=lambda ch: ch.participant_id):
            total = total + ch.window(start, stop)
    assert got.dtype == np.float64 and got.shape == (stop - start,)
    assert got.tobytes() == mixdown(memory_channels, start, stop).tobytes()
    assert got.tobytes() == np.clip(total, -1.0, 1.0).tobytes()


def parent_write_wav(path, samples, sample_rate=SAMPLE_RATE, encoding="float32"):
    """write_wav as it was when it joined the header and the payload's
    bytes into one string: the oracle for the bytes on disk."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    n_channels = samples.shape[1]
    if encoding == "pcm16":
        tag, bits = 0x0001, 16
        quantized = np.clip(np.round(samples * 32768.0), -32768, 32767)
        payload = quantized.astype("<i2").tobytes()
    else:
        tag, bits = 0x0003, 32
        payload = samples.astype("<f4").tobytes()
    block_align = n_channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, n_channels, sample_rate,
                      sample_rate * block_align, block_align, bits)
    body = b"".join([
        b"fmt ", struct.pack("<I", len(fmt)), fmt,
        b"data", struct.pack("<I", len(payload)), payload,
    ])
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), encoding=st.sampled_from(["pcm16", "float32"]),
       layout=st.sampled_from(["mono", "stereo", "stereo, column-major"]),
       n_frames=st.integers(0, 40), rate=st.sampled_from([8000, SAMPLE_RATE]))
def test_write_wav_matches_the_joined_bytes_writer(seed, encoding, layout, n_frames, rate):
    rng = np.random.default_rng(seed)
    # past full scale too, and on the half-quantum steps pcm16 rounds
    samples = rng.uniform(-1.2, 1.2, (n_frames, 2))
    samples[rng.random(samples.shape) < 0.3] = rng.integers(-8, 8) / 65536.0
    if layout == "mono":
        samples = samples[:, 0]
    elif layout == "stereo, column-major":
        samples = np.asfortranarray(samples)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.wav"), os.path.join(tmp, "want.wav")
        write_wav(got, samples, rate, encoding)
        parent_write_wav(want, samples, rate, encoding)
        with open(got, "rb") as a, open(want, "rb") as b:
            assert a.read() == b.read()


def _pcm16_tracks(tmp_path, n_channels, n_samples):
    """n_channels PCM16 WavChannels of n_samples random samples, each
    opening in a full-scale run (clipped sums) and ending in silence
    (-inf dB frames)."""
    rng = np.random.default_rng(n_channels)
    channels = []
    for k in range(n_channels):
        ints = rng.integers(-32768, 32768, n_samples)
        ints[:300], ints[-400:] = 32767, 0
        path = tmp_path / ("p%d.wav" % k)
        write_wav(path, ints / 32768.0, encoding="pcm16")
        channels.append(load_wav(path, "p%d" % k))
    return channels


def _spy_on_window(monkeypatch):
    """The (start, stop) of each WavChannel.window call from now on."""
    calls = []
    window = audio.WavChannel.window
    monkeypatch.setattr(audio.WavChannel, "window", lambda self, start, stop, out=None: (
        calls.append((start, stop)), window(self, start, stop, out))[1])
    return calls


def test_frames_at_the_frame_bound_are_summed_in_float64(tmp_path, monkeypatch):
    # a frame of _PCM16_MAX_FRAME samples could push its int64 sum of
    # squares past 2^53; lowered to 320, the bound sends 320-sample
    # frames through window while 319-sample ones stay on the integers
    (channel,) = _pcm16_tracks(tmp_path, 1, 5 * 320 + 17)
    want = {n: frame_energies_db(channel, n).tobytes() for n in (319, 320)}
    calls = _spy_on_window(monkeypatch)
    monkeypatch.setattr(audio, "_PCM16_MAX_FRAME", 320)
    assert frame_energies_db(channel, 319).tobytes() == want[319]
    assert calls == []
    assert frame_energies_db(channel, 320).tobytes() == want[320]
    assert calls == [(0, 5 * 320)]


def test_channel_sets_at_the_channel_bound_are_summed_in_float64(tmp_path, monkeypatch):
    # _PCM16_MAX_CHANNELS PCM16 channels could overflow the int32 sum;
    # lowered to 3, the bound sends a 3-channel mixdown through window
    # while 2 channels stay on the integers
    channels = _pcm16_tracks(tmp_path, 3, 1000)
    want = {k: (mixdown(channels[:k], 100, 900).tobytes(),
                mixdown(channels[:k], 100, 900, out=np.empty(800, np.float32)).tobytes())
            for k in (2, 3)}
    calls = _spy_on_window(monkeypatch)
    monkeypatch.setattr(audio, "_PCM16_MAX_CHANNELS", 3)
    for k in (2, 3):
        got = (mixdown(channels[:k], 100, 900).tobytes(),
               mixdown(channels[:k], 100, 900, out=np.empty(800, np.float32)).tobytes())
        assert got == want[k]
        assert calls == [(100, 900)] * (0 if k == 2 else 2 * k)


# names of audio's PCM16 storage helpers, with any leading underscore
# stripped: how WAV samples are stored and summed exactly
_PCM16_HELPERS = {"stored", "pcm16_only", "PCM16_SCALE", "PCM16_MAX_FRAME",
                  "PCM16_MAX_CHANNELS", "SQUARE_STEP"}


def _pcm16_helper_uses(tree):
    """(line, name) of each name, attribute or import of a PCM16 helper."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.lstrip("_") in _PCM16_HELPERS]
    return found


def test_only_audio_knows_how_samples_are_stored():
    """No module but audio.py reads stored samples or names the PCM16
    helpers; overlap takes its sums from audio whole."""
    src = Path(audio.__file__).resolve().parent
    modules = sorted(src.glob("*.py"))
    assert src / "audio.py" in modules and len(modules) > 5
    offenders = {}
    for path in modules:
        if path.name != "audio.py":
            uses = _pcm16_helper_uses(ast.parse(path.read_text(), str(path)))
            if uses:
                offenders[path.name] = uses
    assert offenders == {}
    overlap = ast.parse((src / "overlap.py").read_text())
    assert [sorted(alias.name for alias in node.names) for node in ast.walk(overlap)
            if isinstance(node, ast.ImportFrom) and node.module == "audio"] == [
        ["MeetingAudio", "frame_energies_db", "mixdown"]]


def test_the_guard_sees_each_pcm16_helper_use():
    tree = ast.parse("from .audio import PCM16_SCALE, _pcm16_only, mixdown\n"
                     "raw = ch.stored(0, 9)\nraw = ch._stored(0, 9)\n"
                     "ok = audio._PCM16_MAX_FRAME > n and pcm16_only([ch])\n"
                     "step = _SQUARE_STEP * _PCM16_MAX_CHANNELS\nstored_len = len(ch)\n")
    assert sorted(_pcm16_helper_uses(tree)) == [
        (1, "PCM16_SCALE"), (1, "_pcm16_only"), (2, "stored"), (3, "_stored"),
        (4, "_PCM16_MAX_FRAME"), (4, "pcm16_only"), (5, "_PCM16_MAX_CHANNELS"),
        (5, "_SQUARE_STEP")]


# numpy's readers that map or load a whole file; a stored payload is
# read by offset through audio.read_at, so peak RSS holds no mapping
_FILE_READERS = {"memmap", "fromfile", "load", "open_memmap"}


def _file_reader_uses(tree):
    """(line, dotted name) of each numpy file reader named through np or
    numpy, or imported from numpy."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _FILE_READERS:
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in ("np", "numpy"):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found += [(node.lineno, a.name) for a in node.names if a.name in _FILE_READERS]
    return found


def test_no_module_maps_or_loads_a_stored_payload_whole():
    src = Path(audio.__file__).resolve().parent
    modules = sorted(src.glob("*.py"))
    assert src / "audio.py" in modules and len(modules) > 5
    offenders = {}
    for path in modules:
        uses = _file_reader_uses(ast.parse(path.read_text(), str(path)))
        if uses:
            offenders[path.name] = uses
    assert offenders == {}


def test_the_guard_sees_each_numpy_file_reader():
    tree = ast.parse("a = np.memmap(p)\nb = numpy.fromfile(p)\nc = np.load(p)\n"
                     "d = np.lib.format.open_memmap(p)\nfrom numpy import fromfile\n"
                     "ok = json.load(fh) or np.loadtxt(p) or buf.fromfile(fh, 9)\n")
    assert sorted(_file_reader_uses(tree)) == [
        (1, "np.memmap"), (2, "numpy.fromfile"), (3, "np.load"),
        (4, "np.lib.format.open_memmap"), (5, "fromfile")]
