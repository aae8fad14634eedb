import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from talkover.audio import (_ENERGY_BLOCK_FRAMES, AudioChannel, MeetingAudio, SAMPLE_RATE,
                            _pcm16_only, load_wav, mixdown, read_wav_data, write_wav)
from talkover.errors import AudioError, SampleRateError
from talkover.manifest import ClipRecord
from talkover.overlap import (CLIP_DURATION_S, CLIPS_DIR, ONSET_OFFSET_S,
                              REJECT_BOUNDARY, REJECT_NO_OVERLAP,
                              REJECT_PRESILENCE, REJECT_TOO_SHORT, VadParams,
                              _fill_gaps, detect, export_clip, frame_energies_db, vad)

PARAMS = VadParams()


def tone_channel(duration_s, bursts, pid="p", amp=0.2, freq=440.0):
    """Silence with sine bursts over the given (start_s, end_s) windows."""
    n = int(duration_s * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    samples = np.zeros(n)
    for start, end in bursts:
        lo, hi = int(start * SAMPLE_RATE), int(end * SAMPLE_RATE)
        samples[lo:hi] = amp * np.sin(2 * np.pi * freq * t[lo:hi])
    return AudioChannel(samples, SAMPLE_RATE, pid)


def silent_meeting(duration_s, pids=("a", "b")):
    n = int(duration_s * SAMPLE_RATE)
    chans = [AudioChannel(np.zeros(n), SAMPLE_RATE, pid) for pid in pids]
    return MeetingAudio.from_channels(chans, "m")


def mono(samples, pid="p"):
    return AudioChannel(samples, SAMPLE_RATE, pid)


def test_frame_energy_of_silence_is_minus_inf():
    e = frame_energies_db(mono(np.zeros(1600)), 320)
    assert e.shape == (5,)
    assert np.all(np.isinf(e)) and np.all(e < 0)


def test_frame_energy_of_full_scale_is_zero_db():
    e = frame_energies_db(mono(np.ones(640)), 320)
    assert np.allclose(e, 0.0)


def test_frame_energy_drops_trailing_partial_frame():
    assert frame_energies_db(mono(np.zeros(999)), 320).shape == (3,)
    assert frame_energies_db(mono(np.zeros(100)), 320).shape == (0,)


def one_shot_frame_energies_db(samples, frame_len):
    """The energies squared in one full-length pass, as before row blocks."""
    n_frames = len(samples) // frame_len
    if n_frames == 0:
        return np.empty(0)
    frames = samples[: n_frames * frame_len].reshape(n_frames, frame_len)
    rms = np.sqrt(np.mean(frames * frames, axis=1))
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(rms)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frame_len=st.sampled_from([1, 7, 320]),
       n_frames=st.sampled_from([0, 1, _ENERGY_BLOCK_FRAMES - 1, _ENERGY_BLOCK_FRAMES,
                                 _ENERGY_BLOCK_FRAMES + 1, 2 * _ENERGY_BLOCK_FRAMES + 5]),
       tail=st.integers(0, 6), silent_share=st.floats(0.0, 1.0))
def test_frame_energies_match_one_shot_oracle(seed, frame_len, n_frames, tail, silent_share):
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, n_frames * frame_len + tail % frame_len)
    samples[rng.random(samples.size) < silent_share] = 0.0
    got = frame_energies_db(mono(samples), frame_len)
    assert got.tobytes() == one_shot_frame_energies_db(samples, frame_len).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frame_len=st.sampled_from([7, 320]),
       n_frames=st.sampled_from([0, 1, _ENERGY_BLOCK_FRAMES, _ENERGY_BLOCK_FRAMES + 1,
                                 2 * _ENERGY_BLOCK_FRAMES + 5]),
       tail=st.integers(0, 6), pad=st.sampled_from([0, 1, 5000]),
       encoding=st.sampled_from(["pcm16", "float32"]), silent_share=st.floats(0.0, 1.0))
def test_file_backed_frame_energies_match_one_shot_oracle(seed, frame_len, n_frames, tail,
                                                          pad, encoding, silent_share):
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, n_frames * frame_len + tail % frame_len)
    samples[rng.random(samples.size) < silent_share] = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.wav")
        write_wav(path, samples, encoding=encoding)
        stored = read_wav_data(path)[1][:, 0]
        channel = load_wav(path, "p").padded(stored.size + pad)
        got = frame_energies_db(channel, frame_len)
    want = one_shot_frame_energies_db(np.concatenate([stored, np.zeros(pad)]), frame_len)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data(),
       stored=st.lists(st.integers(0, 1500), min_size=1, max_size=6),
       pad=st.integers(0, 700), frame_len=st.sampled_from([1, 7, 320]),
       runs=st.lists(st.tuples(st.integers(0, 2200), st.integers(1, 700),
                               st.sampled_from([-32768, 32767, 0])), max_size=4))
def test_pcm16_integer_sums_match_the_float_path(seed, data, stored, pad, frame_len, runs):
    # runs of full scale, shared by every channel, give clipped sums and
    # 0 dB frames; short tracks are padded, so windows reach past n_stored
    rng = np.random.default_rng(seed)
    n = max(stored) + pad
    pids = ["p%d" % k for k in rng.permutation(len(stored))]
    wav_channels, memory_channels = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for pid, n_stored in zip(pids, stored):
            ints = rng.integers(-32768, 32768, n_stored)
            for lo, length, value in runs:
                ints[lo:lo + length] = value
            path = os.path.join(tmp, pid + ".wav")
            write_wav(path, ints / 32768.0, encoding="pcm16")
            wav_channels.append(load_wav(path, pid).padded(n))
            memory_channels.append(AudioChannel(
                np.concatenate([ints / 32768.0, np.zeros(n - n_stored)]), SAMPLE_RATE, pid))
        assert _pcm16_only(wav_channels)
        start = data.draw(st.integers(0, n))
        stop = data.draw(st.integers(start, n))
        got = mixdown(wav_channels, start, stop)
        assert got.tobytes() == mixdown(memory_channels, start, stop).tobytes()
        for wav, memory in zip(wav_channels, memory_channels):
            got = frame_energies_db(wav, frame_len)
            assert got.tobytes() == frame_energies_db(memory, frame_len).tobytes()


@pytest.mark.parametrize("rate, refused_by", [
    (0, "AudioChannel"), (-16000, "AudioChannel"), (16000.5, "AudioChannel"),
    (True, "AudioChannel"), ("16000", "AudioChannel"), (10, "vad"), (49, "vad")])
def test_unworkable_sample_rate_raises_sample_rate_error(rate, refused_by):
    if refused_by == "AudioChannel":
        with pytest.raises(SampleRateError):
            AudioChannel(np.zeros(1600), rate, "p")
    else:
        channel = AudioChannel(np.zeros(1600), rate, "p")
        with pytest.raises(SampleRateError):
            vad(channel)


def test_lowest_workable_sample_rate():
    # 50 Hz puts one sample in a 20 ms frame
    channel = AudioChannel(np.r_[np.zeros(50), np.full(50, 0.5)], np.int64(50), "p")
    assert type(channel.sample_rate) is int
    assert vad(channel).tolist() == [[1.0, 2.0]]


def loop_fill_gaps(active, max_gap):
    """The hangover merge as a loop over active frames, as before runs."""
    if max_gap <= 0 or not active.any():
        return active
    out = active.copy()
    idx = np.flatnonzero(active)
    gaps = np.diff(idx) - 1
    for pos, gap in zip(idx[:-1], gaps):
        if 0 < gap <= max_gap:
            out[pos + 1: pos + 1 + gap] = True
    return out


@settings(max_examples=200, deadline=None)
@given(active=hnp.arrays(bool, st.integers(0, 300)), max_gap=st.integers(-1, 12))
def test_fill_gaps_matches_loop_oracle(active, max_gap):
    got = _fill_gaps(active, max_gap)
    assert got.dtype == bool
    assert np.array_equal(got, loop_fill_gaps(active, max_gap))


def test_vad_finds_engineered_bursts():
    ch = tone_channel(10.0, [(1.0, 2.0), (5.0, 6.5)])
    segments = vad(ch, PARAMS)
    assert len(segments) == 2
    for seg, (start, end) in zip(segments, [(1.0, 2.0), (5.0, 6.5)]):
        assert abs(seg[0] - start) <= PARAMS.frame_samples(SAMPLE_RATE) / SAMPLE_RATE
        assert abs(seg[1] - end) <= PARAMS.frame_samples(SAMPLE_RATE) / SAMPLE_RATE


def test_vad_times_frames_by_their_real_length():
    # at 11025 Hz a frame is 220 samples, 19.95 ms; counting 20 ms a
    # frame put this burst at [100.22, 101.24)
    rate = 11025
    t = np.arange(111 * rate) / rate
    samples = np.where((t >= 100) & (t < 101), 0.2 * np.sin(2 * np.pi * 440 * t), 0.0)
    segments = vad(AudioChannel(samples, rate, "p"), PARAMS)
    frame_s = PARAMS.frame_samples(rate) / rate
    assert segments.shape == (1, 2)
    assert abs(segments[0, 0] - 100) <= frame_s and abs(segments[0, 1] - 101) <= frame_s
    # where a frame is 20 ms, its length is the double 0.02, as before
    assert all(PARAMS.frame_samples(r) / r == 0.02 for r in (8000, 16000, 22050, 44100))


def test_vad_merges_gaps_up_to_hangover():
    # 80 ms gap = 4 frames, inside the 5-frame hangover
    ch = tone_channel(4.0, [(1.0, 1.5), (1.58, 2.0)])
    assert len(vad(ch, PARAMS)) == 1


def test_vad_splits_on_long_gaps():
    # 140 ms gap = 7 frames, past the hangover
    ch = tone_channel(4.0, [(1.0, 1.5), (1.64, 2.0)])
    assert len(vad(ch, PARAMS)) == 2


def test_vad_discards_sub_minimum_segments():
    ch = tone_channel(4.0, [(1.0, 1.08)])  # 80 ms < 100 ms minimum
    assert vad(ch, PARAMS).shape == (0, 2)
    ch = tone_channel(4.0, [(1.0, 1.1)])  # exactly at the minimum
    assert len(vad(ch, PARAMS)) == 1


def test_vad_threshold_is_strict():
    # -45 dBFS sine needs RMS 10^(-45/20); amplitude sqrt(2) times that
    amp_at = np.sqrt(2.0) * 10.0 ** (-45.0 / 20.0)
    quiet = tone_channel(2.0, [(0.5, 1.5)], amp=amp_at * 0.98)
    loud = tone_channel(2.0, [(0.5, 1.5)], amp=amp_at * 1.05)
    assert vad(quiet, PARAMS).shape == (0, 2)
    assert len(vad(loud, PARAMS)) == 1


def test_vad_is_deterministic():
    ch = tone_channel(6.0, [(1.0, 2.0), (3.0, 4.2)])
    assert np.array_equal(vad(ch, PARAMS), vad(ch, PARAMS))


def segs(*pairs):
    return np.array(pairs, dtype=np.float64).reshape(len(pairs), 2)


@pytest.mark.parametrize("bad", [
    [(25.0, 25.0)],                   # end == start
    [(20.0, 24.0), (26.0, 25.0)],     # end before start
    [(25.0, float("nan"))],           # no order at all
    np.zeros((2, 3)) + [0.0, 1.0, 2.0],
    np.array([25.0, 26.0]),
    np.array([[[25.0, 26.0]]]),
], ids=["empty span", "reversed", "nan", "three columns", "one pair, 1-D", "3-D"])
def test_detect_rejects_malformed_segments(bad):
    meeting = silent_meeting(60.0)
    with pytest.raises(ValueError):
        detect(meeting, [segs((20.0, 40.0)), bad])


def test_detect_emits_gated_candidate():
    meeting = silent_meeting(60.0)
    segments = [segs((20.0, 40.0)), segs((25.0, 26.0))]
    result = detect(meeting, segments)
    assert len(result.candidates) == 1
    cand = result.candidates[0]
    assert cand.clip_id == "m_b_0025000"
    assert cand.interrupter_id == "b"
    assert cand.onset_s == 25.0
    # a's own onset at 20 s has nobody else talking
    assert dict(result.rejections) == {REJECT_NO_OVERLAP: 1}


def test_detect_requires_other_speaker_at_onset():
    meeting = silent_meeting(60.0)
    segments = [segs((20.0, 24.0)), segs((25.0, 26.0))]
    result = detect(meeting, segments)
    assert not result.candidates
    assert result.rejections[REJECT_NO_OVERLAP] == 2  # both onsets are solo


def test_detect_coverage_is_half_open():
    # a segment covers [start, end): one starting at the onset counts as
    # speaking there, one ending at it does not
    meeting = silent_meeting(60.0)
    result = detect(meeting, [segs((25.0, 30.0)), segs((25.0, 26.0))])
    assert [c.interrupter_id for c in result.candidates] == ["a", "b"]
    assert not result.rejections
    result = detect(meeting, [segs((20.0, 25.0)), segs((25.0, 26.0))])
    assert not result.candidates
    assert dict(result.rejections) == {REJECT_NO_OVERLAP: 2}


def test_detect_requires_presilence():
    meeting = silent_meeting(60.0)
    # previous own segment ends 2 s before the 25 s onset: too recent
    segments = [segs((20.0, 40.0)), segs((20.5, 23.0), (25.0, 26.0))]
    result = detect(meeting, segments)
    assert [c.onset_s for c in result.candidates] == [20.5]
    assert result.rejections[REJECT_PRESILENCE] == 1
    # exactly 3.0 s of own silence meets the gate
    segments = [segs((20.0, 40.0)), segs((20.5, 22.0), (25.0, 26.0))]
    result = detect(meeting, segments)
    assert [c.onset_s for c in result.candidates] == [20.5, 25.0]
    assert REJECT_PRESILENCE not in result.rejections


def test_detect_first_segment_passes_presilence():
    meeting = silent_meeting(60.0)
    segments = [segs((4.0, 40.0)), segs((6.0, 7.0))]
    assert len(detect(meeting, segments).candidates) == 1


def test_detect_requires_minimum_utterance():
    meeting = silent_meeting(60.0)
    segments = [segs((20.0, 40.0)), segs((25.0, 25.2))]
    result = detect(meeting, segments)
    assert not result.candidates
    assert result.rejections[REJECT_TOO_SHORT] == 1


def test_detect_requires_window_in_bounds():
    meeting = silent_meeting(60.0)
    # onset at 4 s: window would start at -1 s
    segments = [segs((2.0, 40.0)), segs((4.0, 5.0))]
    result = detect(meeting, segments)
    assert result.rejections[REJECT_BOUNDARY] == 1
    # onset at 56 s: window would end at 61 s
    segments = [segs((50.0, 60.0)), segs((56.0, 57.0))]
    result = detect(meeting, segments)
    assert result.rejections[REJECT_BOUNDARY] == 1
    assert not result.candidates


def test_detect_boundary_gate_is_the_export_window():
    meeting = silent_meeting(60.0, pids=("a", "b", "c", "d"))
    edge = CLIP_DURATION_S - ONSET_OFFSET_S
    onsets = [ONSET_OFFSET_S - 0.01, ONSET_OFFSET_S, 60.0 - edge, 60.0 - edge + 0.01]
    segments = [segs((0.5, 59.9)), segs((onsets[0], 6.0)),
                segs((onsets[1], 6.0), (onsets[2], 56.0)), segs((onsets[3], 56.0))]
    result = detect(meeting, segments)
    assert [c.onset_s for c in result.candidates] == onsets[1:3]
    assert result.rejections[REJECT_BOUNDARY] == 2
    for rec in result.candidates:
        assert len(export_clip(rec, meeting)) == CLIP_DURATION_S * SAMPLE_RATE
    # the window is export_clip's alone; detect cannot be told another
    with pytest.raises(TypeError):
        detect(meeting, segments, pre_s=2.0)


def test_detect_counts_first_failing_gate_only():
    meeting = silent_meeting(60.0)
    # b's second burst fails both presilence and length; only the first
    # failing gate (presilence) is counted
    segments = [segs((20.0, 40.0)), segs((24.0, 24.5), (25.0, 25.1))]
    result = detect(meeting, segments)
    assert len(result.candidates) == 1
    assert result.rejections[REJECT_NO_OVERLAP] == 1  # a's own onset at 20
    assert result.rejections[REJECT_PRESILENCE] == 1
    assert REJECT_TOO_SHORT not in result.rejections


def test_detect_orders_candidates_by_clip_id():
    meeting = silent_meeting(120.0, pids=("a", "b", "c"))
    segments = [
        segs((5.0, 115.0)),
        segs((50.0, 51.0)),
        segs((20.0, 21.0)),
    ]
    result = detect(meeting, segments)
    ids = [c.clip_id for c in result.candidates]
    assert ids == sorted(ids) and len(ids) == 2


def test_clip_id_rounds_to_milliseconds():
    meeting = silent_meeting(60.0)
    segments = [segs((20.0, 40.0)), segs((25.0004, 26.0))]
    (cand,) = detect(meeting, segments).candidates
    assert cand.clip_id == "m_b_0025000"


def test_tightening_any_gate_never_adds_candidates():
    rng = np.random.default_rng(7)
    meeting = silent_meeting(90.0, pids=("a", "b", "c"))
    for _ in range(20):
        segments = []
        for _ in range(3):
            starts = np.sort(rng.uniform(0.0, 85.0, 6))
            chan = []
            t = 0.0
            for s in starts:
                s = max(s, t + 0.05)
                e = s + rng.uniform(0.1, 4.0)
                if e > 90.0:
                    break
                chan.append((s, e))
                t = e
            segments.append(chan)
        base = len(detect(meeting, segments).candidates)
        tighter_pre = len(detect(meeting, segments, min_presilence_s=4.0).candidates)
        tighter_len = len(detect(meeting, segments, min_utterance_s=0.8).candidates)
        assert tighter_pre <= base
        assert tighter_len <= base


def make_meeting_with_tone(duration_s=60.0):
    a = tone_channel(duration_s, [(20.0, 40.0)], pid="a", amp=0.3, freq=300.0)
    b = tone_channel(duration_s, [(25.0, 26.0)], pid="b", amp=0.4, freq=700.0)
    return MeetingAudio.from_channels([a, b], "m")


def test_export_clip_cuts_exact_window():
    meeting = make_meeting_with_tone()
    segments = [segs((20.0, 40.0)), segs((25.0, 26.0))]
    (rec,) = detect(meeting, segments).candidates
    clip = export_clip(rec, meeting)
    n = int(CLIP_DURATION_S * SAMPLE_RATE)
    assert clip.shape == (n, 2) and clip.dtype == np.float32
    start = int((rec.onset_s - ONSET_OFFSET_S) * SAMPLE_RATE)
    # the float32 samples the clip's WAV stores
    b = meeting.channels[1]
    assert np.array_equal(clip[:, 1], b.samples[start:start + n].astype(np.float32))
    a = meeting.channels[0]
    assert np.array_equal(clip[:, 0], a.samples[start:start + n].astype(np.float32))


def test_export_clip_mixes_all_other_channels():
    n = int(60.0 * SAMPLE_RATE)
    a = AudioChannel(np.full(n, 0.1), SAMPLE_RATE, "a")
    c = AudioChannel(np.full(n, 0.2), SAMPLE_RATE, "c")
    b = tone_channel(60.0, [(25.0, 26.0)], pid="b")
    meeting = MeetingAudio.from_channels([a, b, c], "m")
    segments = [segs((5.0, 55.0)), segs((25.0, 26.0)), segs((5.0, 55.0))]
    rec = [d for d in detect(meeting, segments).candidates
           if d.interrupter_id == "b"][0]
    clip = export_clip(rec, meeting)
    assert np.allclose(clip[:, 0], 0.3)


def test_export_clip_from_wavs_builds_no_audio_channel(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    n = int(12.5 * SAMPLE_RATE)
    channels = []
    for pid, encoding, n_stored in [("c", "pcm16", n), ("a", "float32", n - 999),
                                    ("b", "pcm16", n - 5000), ("d", "float32", n)]:
        path = tmp_path / (pid + ".wav")
        write_wav(path, rng.uniform(-0.7, 0.7, n_stored), encoding=encoding)
        channels.append(load_wav(path, pid))
    meeting = MeetingAudio.from_channels(channels, "m")

    built = []
    post_init = AudioChannel.__post_init__
    monkeypatch.setattr(AudioChannel, "__post_init__",
                        lambda self: (built.append(self.participant_id), post_init(self)))
    for ch in meeting.channels:
        for onset in (5.0, 7.5):
            clip = export_clip(ClipRecord("m_x", "m", ch.participant_id, onset, "m_x.wav"),
                               meeting)
            assert built == []
            # the clip as every window wrapped in an AudioChannel cut it:
            # the others summed in participant-id order, then clipped
            start = int((onset - ONSET_OFFSET_S) * SAMPLE_RATE)
            stop = start + int(CLIP_DURATION_S * SAMPLE_RATE)
            total = np.zeros(stop - start)
            for other in sorted(meeting.channels, key=lambda c: c.participant_id):
                if other is not ch:
                    total += AudioChannel(other.window(start, stop), SAMPLE_RATE, "w").samples
            want = np.stack([np.clip(total, -1.0, 1.0), ch.window(start, stop)], axis=1)
            # as the float32 WAV stores it
            assert clip.tobytes() == want.astype(np.float32).tobytes()
            built.clear()


def test_detect_returns_the_manifest_rows():
    meeting = make_meeting_with_tone()
    (rec,) = detect(meeting, [segs((20.0, 40.0)), segs((25.0, 26.0))]).candidates
    assert rec == ClipRecord("m_b_0025000", "m", "b", 25.0,
                             os.path.join(CLIPS_DIR, "m_b_0025000.wav"))


def test_export_clip_names_an_interrupter_the_meeting_lacks():
    meeting = make_meeting_with_tone()
    with pytest.raises(ValueError, match="meeting m has no participant 'zed'"):
        export_clip(ClipRecord("m_zed_0025000", "m", "zed", 25.0, "m_zed_0025000.wav"),
                    meeting)


def test_export_clip_cuts_into_the_callers_buffer():
    meeting = make_meeting_with_tone()
    (rec,) = detect(meeting, [segs((20.0, 40.0)), segs((25.0, 26.0))]).candidates
    n = int(CLIP_DURATION_S * SAMPLE_RATE)
    buffer = np.full((n, 2), np.nan, dtype=np.float32)
    assert export_clip(rec, meeting, out=buffer) is buffer
    assert buffer.tobytes() == export_clip(rec, meeting).tobytes()
    for wrong in (np.empty((n, 2)), np.empty((n - 1, 2), np.float32)):
        with pytest.raises(ValueError, match="cannot hold"):
            export_clip(rec, meeting, out=wrong)


def test_export_clip_rejects_out_of_bounds():
    meeting = silent_meeting(8.0)
    with pytest.raises(AudioError):
        export_clip(ClipRecord("m_b_0004000", "m", "b", 4.0, "m_b_0004000.wav"), meeting)


