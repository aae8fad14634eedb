import json
import re

import numpy as np
import pytest

from talkover.audio import write_wav
from talkover.errors import AudioError, ChannelLayoutError, SampleRateError
from talkover.manifest import (ClipRecord, ManifestError, load_clip,
                               read_manifest, read_split, write_manifest,
                               write_split)


def rec(clip_id, **kw):
    base = dict(meeting_id="m0", interrupter_id="bob", onset_s=12.5,
                wav_path="clips/%s.wav" % clip_id)
    base.update(kw)
    return ClipRecord(clip_id=clip_id, **base)


def test_manifest_round_trip(tmp_path):
    records = [rec("b"), rec("a", label="laughter", agreement=0.857)]
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, records)
    back = read_manifest(path)
    assert back == sorted(records, key=lambda r: r.clip_id)


def test_manifest_sorted_and_stable(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_manifest(p1, [rec("z"), rec("a"), rec("m")])
    write_manifest(p2, [rec("m"), rec("z"), rec("a")])
    assert p1.read_bytes() == p2.read_bytes()
    ids = [json.loads(line)["clip_id"] for line in p1.read_text().splitlines()]
    assert ids == ["a", "m", "z"]


def test_manifest_rejects_duplicate_ids(tmp_path):
    with pytest.raises(ManifestError, match="^duplicate clip id b in manifest$"):
        write_manifest(tmp_path / "m.jsonl", [rec("c"), rec("b"), rec("c"), rec("a"), rec("b")])
    assert not (tmp_path / "m.jsonl").exists()


def test_to_dict_omits_unset_label_fields():
    d = rec("a").to_dict()
    assert "label" not in d and "agreement" not in d
    d = rec("a", label="other", agreement=1.0).to_dict()
    assert d["label"] == "other" and d["agreement"] == 1.0
    # every set field, in field order
    core = [("clip_id", "a"), ("meeting_id", "m0"), ("interrupter_id", "bob"),
            ("onset_s", 12.5), ("wav_path", "clips/a.wav")]
    for labels, tail in [({}, []), ({"label": "other"}, [("label", "other")]),
                         ({"agreement": 0.75}, [("agreement", 0.75)]),
                         ({"label": "x", "agreement": 1}, [("label", "x"), ("agreement", 1)])]:
        assert list(rec("a", **labels).to_dict().items()) == core + tail


@pytest.mark.parametrize("clip_id", ["", ".", "..", "../x", "a/b", "/abs", "a\0b"])
def test_clip_id_that_is_not_a_plain_file_name_raises(clip_id):
    with pytest.raises(ManifestError, match="is not a plain file name"):
        rec(clip_id, wav_path="x.wav")


def test_wav_path_with_a_nul_byte_raises():
    with pytest.raises(ManifestError, match="NUL"):
        rec("a", wav_path="clips/a.wav\0")


@pytest.mark.parametrize("clip_id", ["...", "a..b", ".hidden", "a b", "r\u00e9union_1"])
def test_clip_id_may_hold_dots_and_other_characters(clip_id):
    assert rec(clip_id).clip_id == clip_id


@pytest.mark.parametrize("field, value", [("clip_id", "../../x"), ("clip_id", "a\0"),
                                          ("wav_path", "a.wav\0")])
def test_read_manifest_refuses_a_row_that_would_name_another_file(tmp_path, field, value):
    path = tmp_path / "m.jsonl"
    rows = [rec("a").to_dict(), rec("b").to_dict()]
    rows[1][field] = value
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ManifestError, match=r"m\.jsonl:2: "):
        read_manifest(path)


def test_from_dict_requires_core_fields():
    with pytest.raises(ManifestError):
        ClipRecord.from_dict({"clip_id": "a", "meeting_id": "m0"})


def test_read_manifest_rejects_a_repeated_clip_id(tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifest(path, [rec("a"), rec("b")])
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines + lines[:1]))
    with pytest.raises(ManifestError, match=r"m\.jsonl:3: duplicate clip_id 'a', first on line 1"):
        read_manifest(path)


@pytest.mark.parametrize("field, value", [
    ("onset_s", True), ("onset_s", False), ("onset_s", "12.5"), ("onset_s", None),
    ("onset_s", [1]), ("agreement", True), ("agreement", "high"), ("agreement", None),
    ("agreement", {"a": 1}),
])
def test_from_dict_rejects_a_bool_or_non_number(field, value):
    d = rec("a", label="other", agreement=0.75).to_dict()
    d[field] = value
    with pytest.raises(ManifestError, match="%s .* is not a number" % field):
        ClipRecord.from_dict(d)


def test_from_dict_rejects_an_onset_past_the_float_range():
    d = rec("a").to_dict()
    d["onset_s"] = 10 ** 400
    with pytest.raises(ManifestError, match="does not fit a float"):
        ClipRecord.from_dict(d)


def test_from_dict_keeps_integer_numbers():
    d = rec("a", label="other").to_dict()
    d.update(onset_s=12, agreement=1)
    back = ClipRecord.from_dict(d)
    assert back.onset_s == 12.0 and isinstance(back.onset_s, float)
    assert back.agreement == 1


def test_read_manifest_rejects_bad_json(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"clip_id": "a"\n')
    with pytest.raises(ManifestError):
        read_manifest(path)


def test_read_manifest_skips_blank_lines(tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifest(path, [rec("a")])
    path.write_text(path.read_text() + "\n\n")
    assert len(read_manifest(path)) == 1


def test_split_round_trip(tmp_path):
    path = tmp_path / "split.json"
    write_split(path, {"train": ["b", "a"], "val": [], "test": ["c"]})
    split = read_split(path)
    assert split == {"train": ["a", "b"], "val": [], "test": ["c"]}
    assert path.read_text().endswith("\n")


def test_read_split_rejects_non_mapping(tmp_path):
    path = tmp_path / "split.json"
    path.write_text('["a", "b"]\n')
    with pytest.raises(ManifestError):
        read_split(path)
    path.write_text('{"train": "a"}\n')
    with pytest.raises(ManifestError):
        read_split(path)


def test_read_split_rejects_a_list_naming_a_clip_twice(tmp_path):
    path = tmp_path / "split.json"
    path.write_text('{"test": ["c", "c", "d", "d"], "train": ["a", "b"]}\n')
    with pytest.raises(ManifestError) as info:
        read_split(path)
    assert str(info.value) == "%s: split 'test' lists clip c more than once" % path


@pytest.mark.parametrize("split, message", [
    ({"train": ["a", "b"], "test": ["d", "c", "d", "c"]}, "split 'test' lists clip d more than once"),
    ({"train": ["a", 1]}, "split file must map names to lists of clip id strings"),
], ids=["clip twice", "non-string id"])
def test_write_split_refuses_what_read_split_refuses(tmp_path, split, message):
    path = tmp_path / "split.json"
    with pytest.raises(ManifestError) as info:
        write_split(path, split)
    assert str(info.value) == "%s: %s" % (path, message)
    assert not path.exists()


@pytest.mark.parametrize("blob", [b'{"train": ["a"', b'{"train": ["a\xff"]}'],
                         ids=["truncated", "non-UTF-8"])
def test_read_split_rejects_unparseable_files(tmp_path, blob):
    path = tmp_path / "split.json"
    path.write_bytes(blob)
    with pytest.raises(ManifestError):
        read_split(path)


def test_write_manifest_of_a_non_finite_onset_leaves_no_file(tmp_path):
    path = tmp_path / "m.jsonl"
    with pytest.raises(ValueError):
        write_manifest(path, [rec("a"), rec("b", onset_s=float("nan"))])
    assert not path.exists()


def test_read_manifest_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifest(path, [rec("a"), rec("b")])
    path.write_bytes(path.read_bytes().replace(b'"b"', b'"b\xff"'))
    with pytest.raises(ManifestError):
        read_manifest(path)


def test_load_clip_channel_roles(tmp_path):
    rng = np.random.default_rng(0)
    frames = rng.uniform(-0.5, 0.5, (160000, 2)).astype(np.float32)
    wav = tmp_path / "clip.wav"
    write_wav(wav, frames, 16000, encoding="float32")

    record = rec("m0_bob_0012500", wav_path=str(wav))
    clip = load_clip(record)
    assert clip.shape == (160000, 2) and clip.dtype == np.float32
    np.testing.assert_array_equal(clip[:, 0], frames[:, 0])
    np.testing.assert_array_equal(clip[:, 1], frames[:, 1])


def test_load_clip_reads_into_the_callers_buffer(tmp_path):
    frames = np.random.default_rng(1).uniform(-0.5, 0.5, (160000, 2)).astype(np.float32)
    wav = tmp_path / "clip.wav"
    write_wav(wav, frames, 16000, encoding="float32")
    buffer = np.empty((160000, 2), dtype=np.float32)
    assert load_clip(rec("a", wav_path=str(wav)), out=buffer) is buffer
    assert buffer.tobytes() == frames.tobytes()
    for wrong in (np.empty((160000, 2)), np.empty((2, 160000), np.float32).T,
                  np.empty((159999, 2), np.float32)):
        with pytest.raises(ValueError, match="cannot hold"):
            load_clip(rec("a", wav_path=str(wav)), out=wrong)


@pytest.mark.parametrize("seconds", [9, 11])
def test_load_clip_rejects_wrong_length(tmp_path, seconds):
    wav = tmp_path / "clip.wav"
    write_wav(wav, np.zeros((seconds * 16000, 2)), 16000, encoding="float32")
    with pytest.raises(AudioError, match="^%s: clip a: channels must hold exactly 160000 "
                                         "samples$" % re.escape(str(wav))):
        load_clip(rec("a", wav_path=str(wav)))


def test_load_clip_rejects_wrong_layout(tmp_path):
    mono = np.zeros((160000, 1), dtype=np.float32)
    wav = tmp_path / "mono.wav"
    write_wav(wav, mono, 16000, encoding="float32")
    with pytest.raises(ChannelLayoutError):
        load_clip(rec("a", wav_path=str(wav)))

    slow = np.zeros((80000, 2), dtype=np.float32)
    wav2 = tmp_path / "slow.wav"
    write_wav(wav2, slow, 8000, encoding="float32")
    with pytest.raises(SampleRateError):
        load_clip(rec("a", wav_path=str(wav2)))


@pytest.mark.parametrize("shape, rate, error", [
    ((60 * 16000, 2), 16000, AudioError),
    ((60 * 16000, 1), 16000, ChannelLayoutError),
    ((60 * 8000, 2), 8000, SampleRateError),
])
def test_load_clip_checks_the_header_before_decoding(tmp_path, monkeypatch, shape, rate, error):
    # a meeting-length WAV listed as a clip is refused from its header,
    # before any of its samples is read
    import talkover.audio

    wav = tmp_path / "long.wav"
    write_wav(wav, np.zeros(shape), rate, encoding="pcm16")

    def no_decode(path, layout, out):
        raise AssertionError("read_wav_into called on %s" % path)
    monkeypatch.setattr(talkover.audio, "read_wav_into", no_decode)
    with pytest.raises(error):
        load_clip(rec("a", wav_path=str(wav)))
