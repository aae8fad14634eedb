import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from talkover.audio import (AudioChannel, MeetingAudio, SAMPLE_RATE, load_wav,
                            mixdown, read_wav_data, read_wav_header, write_wav)
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
    assert meeting.padding == {"b": 40}
    padded = [ch for ch in meeting.channels if ch.participant_id == "b"][0]
    assert np.all(padded.samples[60:] == 0.0)


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
    ref = mixdown(channels)
    perm = [channels[i] for i in rng.permutation(n_channels)]
    out = mixdown(perm)
    assert out.samples.tobytes() == ref.samples.tobytes()
    assert out.participant_id == "mix"


def test_mixdown_hard_clips():
    chans = [AudioChannel(np.full(8, 0.8), SAMPLE_RATE, "p%d" % i) for i in range(3)]
    out = mixdown(chans)
    assert np.all(out.samples == 1.0)
    neg = [AudioChannel(np.full(8, -0.7), SAMPLE_RATE, "n%d" % i) for i in range(2)]
    assert np.all(mixdown(neg).samples == -1.0)


def test_mixdown_rejects_repeated_participant_ids():
    # equal ids would leave the summation order, and so the last bits of
    # the mix, to the order of the input list
    chans = [AudioChannel(np.full(8, v), SAMPLE_RATE, "p") for v in (0.1, 0.2)]
    with pytest.raises(ChannelLayoutError):
        mixdown(chans)


def test_mixdown_empty_rejected():
    with pytest.raises(ChannelLayoutError):
        mixdown([])


def test_mixdown_length_mismatch_rejected():
    a = AudioChannel(np.zeros(8), SAMPLE_RATE, "a")
    b = AudioChannel(np.zeros(9), SAMPLE_RATE, "b")
    with pytest.raises(ChannelLayoutError):
        mixdown([a, b])
