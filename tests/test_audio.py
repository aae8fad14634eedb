import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from talkover.audio import (AudioChannel, MeetingAudio, SAMPLE_RATE, load_wav,
                            mixdown, read_wav_data, write_wav)
from talkover.errors import (AudioError, ChannelLayoutError, MalformedWavError,
                             SampleRateError, UnsupportedEncodingError)


def test_pcm16_round_trip_within_quantum(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-1.0, 32767.0 / 32768.0, 4000)
    path = tmp_path / "t.wav"
    write_wav(path, samples, encoding="pcm16")
    ch = load_wav(path, "p")
    assert len(ch) == 4000
    assert np.max(np.abs(ch.samples - samples)) <= 1.0 / 32768


def test_float32_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.uniform(-1.0, 1.0, 1000).astype(np.float32).astype(np.float64)
    path = tmp_path / "t.wav"
    write_wav(path, samples, encoding="float32")
    ch = load_wav(path)
    assert np.array_equal(ch.samples, samples)
    assert ch.participant_id == str(path)


def test_pcm16_negative_full_scale_clamps(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, np.array([-1.0, 1.0 - 1.0 / 32768]), encoding="pcm16")
    ch = load_wav(path, "p")
    assert ch.samples[0] == -1.0


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
