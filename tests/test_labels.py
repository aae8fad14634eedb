import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from talkover.errors import (DuplicateVoteError, LabelError,
                             UndefinedKappaError)
from talkover.labels import (VOTE_LABELS, VoteRecord, Votes, aggregate_all,
                             annotator_accuracy, fleiss_kappa, read_golden_json,
                             read_votes_csv, votes_to_table, write_votes_csv)


def votes_for(clip_id, labels):
    """(clip_id, annotator_id, label) rows of one clip, one annotator a label."""
    return [(clip_id, "ann_%d" % i, lab) for i, lab in enumerate(labels)]


def test_vote_record_rejects_unknown_label():
    with pytest.raises(LabelError):
        VoteRecord("c", "a", "shouting")
    with pytest.raises(LabelError, match="^unknown vote label 'shouting'$"):
        Votes.from_rows([("c", "a", "other"), ("c", "b", "shouting")])


def test_five_of_seven_accepted():
    res = aggregate_all(Votes.from_rows(
        votes_for("c", ["laughter"] * 5 + ["other", "backchannel"])))[0]
    assert res.accepted
    assert res.label == "laughter"
    assert res.agreement_fraction == pytest.approx(5.0 / 7.0)
    assert res.vote_count == 7


def test_four_of_seven_rejected():
    res = aggregate_all(Votes.from_rows(votes_for("c", ["laughter"] * 4 + ["other"] * 3)))[0]
    assert not res.accepted
    assert res.label is None
    assert res.agreement_fraction == pytest.approx(4.0 / 7.0)


def test_threshold_is_inclusive():
    # 7 of 10 sits exactly at the default 0.7
    res = aggregate_all(Votes.from_rows(votes_for("c", ["other"] * 7 + ["laughter"] * 3)))[0]
    assert res.accepted and res.vote_count == 10


def test_tied_mode_rejected_even_at_low_threshold():
    res = aggregate_all(Votes.from_rows(votes_for("c", ["other"] * 3 + ["laughter"] * 3)),
                        threshold=0.3)[0]
    assert not res.accepted
    assert res.agreement_fraction == 0.5


def test_single_vote_is_unanimous():
    res = aggregate_all(Votes.from_rows(votes_for("c", ["backchannel"])))[0]
    assert res.accepted and res.agreement_fraction == 1.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_aggregate_is_order_invariant(seed):
    rng = np.random.default_rng(seed)
    labels = [VOTE_LABELS[i] for i in rng.integers(0, len(VOTE_LABELS), 7)]
    votes = votes_for("c", labels)
    ref = aggregate_all(Votes.from_rows(votes))[0]
    perm = [votes[i] for i in rng.permutation(len(votes))]
    assert aggregate_all(Votes.from_rows(perm))[0] == ref


def test_aggregate_rejects_duplicate_annotator():
    votes = votes_for("c", ["other", "other"])
    votes.append(("c", "ann_0", "laughter"))
    with pytest.raises(DuplicateVoteError):
        aggregate_all(Votes.from_rows(votes))


def test_aggregate_all_sorts_by_clip():
    votes = votes_for("z", ["other"] * 7) + votes_for("a", ["laughter"] * 7)
    results = aggregate_all(Votes.from_rows(votes))
    assert [r.clip_id for r in results] == ["a", "z"]
    assert all(r.accepted for r in results)


def random_votes(rng, max_clips=12, n_annotators=6):
    """Votes on up to max_clips clips, each from a distinct subset of the
    annotators, in shuffled order; ids are not zero-padded, so their
    sorted order differs from their numeric order."""
    votes = []
    for c in range(int(rng.integers(1, max_clips + 1))):
        raters = rng.permutation(n_annotators)[:int(rng.integers(1, n_annotators + 1))]
        for a in raters.tolist():
            label = VOTE_LABELS[int(rng.integers(0, len(VOTE_LABELS)))]
            votes.append(VoteRecord("clip%d" % c, "ann%d" % a, label))
    return [votes[i] for i in rng.permutation(len(votes))]


def loop_consensus(votes, threshold):
    """Per-clip consensus by Counter, kept separate from the library's
    count table on purpose."""
    by_clip = {}
    for v in votes:
        by_clip.setdefault(v.clip_id, []).append(v.label)
    results = []
    for cid in sorted(by_clip):
        counts = Counter(by_clip[cid])
        modal = max(counts.values())
        modes = [lab for lab, c in counts.items() if c == modal]
        fraction = modal / len(by_clip[cid])
        label = modes[0] if len(modes) == 1 and fraction >= threshold else None
        results.append((cid, label, fraction, len(by_clip[cid])))
    return results


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), threshold=st.sampled_from([0.3, 0.5, 0.7, 1.0]))
def test_count_table_matches_loop_counting(seed, threshold):
    rng = np.random.default_rng(seed)
    votes = random_votes(rng)
    coded = Votes.from_rows((v.clip_id, v.annotator_id, v.label) for v in votes)
    results = aggregate_all(coded, threshold)
    assert [(r.clip_id, r.label, r.agreement_fraction, r.vote_count)
            for r in results] == loop_consensus(votes, threshold)

    table, clip_ids = votes_to_table(coded)
    assert clip_ids == [r.clip_id for r in results]
    for row, cid in zip(table.tolist(), clip_ids):
        assert row == [sum(v.clip_id == cid and v.label == lab for v in votes)
                       for lab in VOTE_LABELS]

    golden = {r.clip_id: VOTE_LABELS[int(rng.integers(0, len(VOTE_LABELS)))]
              for r in results[::2]}
    expected = {}
    for v in sorted(votes, key=lambda v: v.annotator_id):
        if v.clip_id in golden:
            e = expected.setdefault(v.annotator_id, {"correct": 0, "total": 0})
            e["total"] += 1
            e["correct"] += int(v.label == golden[v.clip_id])
    for e in expected.values():
        e["accuracy"] = e["correct"] / e["total"]
    assert annotator_accuracy(coded, golden) == expected


def oracle_kappa(table):
    """Direct transcription of the agreement definition, kept separate
    from the library implementation on purpose."""
    table = np.asarray(table, dtype=np.float64)
    N, k = table.shape
    n = table[0].sum()
    p_j = table.sum(axis=0) / (N * n)
    P_i = [(sum(c * c for c in row) - n) / (n * (n - 1)) for row in table]
    P_bar = sum(P_i) / N
    P_e = sum(p * p for p in p_j)
    return (P_bar - P_e) / (1.0 - P_e)


def random_table(rng, max_clips=50, max_cats=5):
    N = int(rng.integers(2, max_clips + 1))
    k = int(rng.integers(2, max_cats + 1))
    n = int(rng.integers(2, 9))
    table = np.zeros((N, k), dtype=np.int64)
    for i in range(N):
        counts = rng.multinomial(n, np.ones(k) / k)
        table[i] = counts
    nonzero = np.nonzero(table.sum(axis=0))[0]
    if len(nonzero) == 1:
        # kappa is undefined on a one-category table; nudge one rating over
        j = int(nonzero[0])
        table[0, j] -= 1
        table[0, (j + 1) % k] += 1
    return table


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kappa_matches_direct_definition(seed):
    rng = np.random.default_rng(seed)
    table = random_table(rng)
    assert math.isclose(fleiss_kappa(table), oracle_kappa(table),
                        rel_tol=0, abs_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kappa_within_bounds(seed):
    rng = np.random.default_rng(seed)
    kappa = fleiss_kappa(random_table(rng))
    assert -1.0 - 1e-12 <= kappa <= 1.0 + 1e-12


def test_unanimous_votes_give_kappa_one():
    table = np.array([[7, 0, 0], [0, 7, 0], [0, 0, 7], [7, 0, 0]])
    assert fleiss_kappa(table) == 1.0


def test_perfect_disagreement_gives_kappa_minus_one():
    table = np.array([[1, 1], [1, 1], [1, 1]])
    assert fleiss_kappa(table) == -1.0


def test_single_category_kappa_undefined():
    with pytest.raises(UndefinedKappaError):
        fleiss_kappa(np.array([[7, 0], [7, 0]]))


def test_kappa_validates_table():
    with pytest.raises(LabelError):
        fleiss_kappa(np.array([[3, 4]]))  # one clip
    with pytest.raises(LabelError):
        fleiss_kappa(np.array([[3, 4], [2, 4]]))  # unequal ratings
    with pytest.raises(LabelError):
        fleiss_kappa(np.array([[1, 0], [0, 1]]))  # one rating per clip
    with pytest.raises(LabelError):
        fleiss_kappa(np.array([[3, -1], [1, 1]]))


def test_votes_to_table():
    votes = votes_for("a", ["other"] * 4 + ["laughter"] * 3)
    votes += votes_for("b", ["backchannel"] * 7)
    table, clip_ids = votes_to_table(Votes.from_rows(votes))
    assert clip_ids == ["a", "b"]
    assert table.shape == (2, len(VOTE_LABELS))
    assert table[0, VOTE_LABELS.index("other")] == 4
    assert table[0, VOTE_LABELS.index("laughter")] == 3
    assert table[1, VOTE_LABELS.index("backchannel")] == 7
    assert np.all(table.sum(axis=1) == 7)


def test_votes_to_table_rejects_duplicates():
    votes = votes_for("a", ["other"]) * 2
    with pytest.raises(DuplicateVoteError):
        votes_to_table(Votes.from_rows(votes))


def test_every_counting_path_names_the_first_duplicate_pair(tmp_path):
    # Votes.from_rows is the one path: the CSV reader feeds it too
    votes = (votes_for("b", ["other"] * 3) + votes_for("a", ["laughter"] * 3)
             + [("b", "ann_1", "laughter"), ("a", "ann_2", "other")])
    path = tmp_path / "votes.csv"
    write_votes_csv(path, [VoteRecord(*v) for v in votes])
    for read in (lambda: Votes.from_rows(votes), lambda: read_votes_csv(path)):
        with pytest.raises(DuplicateVoteError, match="annotator ann_2 voted more than once on a"):
            read()


def test_annotator_accuracy():
    votes = Votes.from_rows([("g1", "a", "laughter"), ("g1", "b", "other"),
                             ("g2", "a", "other"), ("x", "a", "laughter")])
    acc = annotator_accuracy(votes, {"g1": "laughter", "g2": "other"})
    assert acc["a"] == {"correct": 2, "total": 2, "accuracy": 1.0}
    assert acc["b"] == {"correct": 0, "total": 1, "accuracy": 0.0}


def test_votes_csv_round_trip(tmp_path):
    votes = votes_for("b", ["other"] * 3) + votes_for("a", ["laughter"] * 2)
    path = tmp_path / "votes.csv"
    write_votes_csv(path, [VoteRecord(*v) for v in votes])
    got, want = read_votes_csv(path), Votes.from_rows(votes)
    assert len(got) == 5
    assert got.clip_ids == want.clip_ids == ["a", "b"]
    assert got.annotator_ids == want.annotator_ids
    for name in ("clip", "annotator", "label"):
        column = getattr(got, name)
        assert column.dtype == np.int64
        assert column.tolist() == getattr(want, name).tolist()
    assert got.clip.tolist() == [1, 1, 1, 0, 0]


def test_votes_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text("clip,annotator,vote\na,b,other\n")
    with pytest.raises(LabelError):
        read_votes_csv(path)


def test_votes_csv_rejects_short_rows(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text("clip_id,annotator_id,label\na,b\n")
    with pytest.raises(LabelError):
        read_votes_csv(path)


@pytest.mark.parametrize("blob", [b'{"g1": null}', b'{"g1": "other\xff"}'])
def test_golden_json_rejects_malformed_content(tmp_path, blob):
    path = tmp_path / "golden.json"
    path.write_bytes(blob)
    with pytest.raises(LabelError):
        read_golden_json(path)


def test_golden_json_reads_an_object_of_vote_labels(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text('{"g1": "laughter", "g2": "other"}\n')
    assert read_golden_json(path) == {"g1": "laughter", "g2": "other"}


# The per-row path that read_votes_csv replaced, kept as an oracle: one
# VoteRecord per row, then each column coded in sorted id order.
def oracle_intern(values):
    ids = sorted(set(values))
    code = {v: i for i, v in enumerate(ids)}
    return np.fromiter(map(code.__getitem__, values), np.int64, len(values)), ids


def oracle_encode(records):
    clip, clip_ids = oracle_intern([v.clip_id for v in records])
    annotator, annotator_ids = oracle_intern([v.annotator_id for v in records])
    pairs = np.sort(clip * len(annotator_ids) + annotator)
    repeated = pairs[1:][pairs[1:] == pairs[:-1]]
    if repeated.size:
        c, a = divmod(int(repeated[0]), len(annotator_ids))
        raise DuplicateVoteError(
            "annotator %s voted more than once on %s" % (annotator_ids[a], clip_ids[c]))
    label = np.fromiter((VOTE_LABELS.index(v.label) for v in records), np.int64, len(records))
    return clip, clip_ids, annotator, annotator_ids, label


def oracle_results(records, golden, threshold):
    """Count table, clip ids, consensus and annotator accuracy of the
    records, by the per-row path."""
    clip, clip_ids, annotator, annotator_ids, label = oracle_encode(records)
    k = len(VOTE_LABELS)
    table = np.bincount(clip * k + label, minlength=len(clip_ids) * k).reshape(-1, k)
    modal, n = table.max(axis=1), table.sum(axis=1)
    fraction = modal / n
    won = (np.count_nonzero(table == modal[:, None], axis=1) == 1) & (fraction >= threshold)
    consensus = [(cid, VOTE_LABELS[j] if ok else None, f, m) for cid, j, ok, f, m in zip(
        clip_ids, table.argmax(axis=1).tolist(), won.tolist(), fraction.tolist(), n.tolist())]
    truth = np.array([VOTE_LABELS.index(golden[c]) if c in golden else -1
                      for c in clip_ids], np.int64)[clip]
    total = np.bincount(annotator[truth >= 0], minlength=len(annotator_ids))
    correct = np.bincount(annotator[label == truth], minlength=len(annotator_ids))
    accuracy = {a: {"correct": c, "total": t, "accuracy": c / t}
                for a, c, t in zip(annotator_ids, correct.tolist(), total.tolist()) if t}
    return table, clip_ids, consensus, accuracy


# ids may hold commas, quotes, newlines and non-ASCII letters; "\r" is
# left out so that "\r\n" only ever ends a written row
vote_ids = st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\x00\r"), max_size=4)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), clips=st.lists(vote_ids, min_size=1, max_size=6, unique=True),
       annotators=st.lists(vote_ids, min_size=1, max_size=5, unique=True),
       repeats=st.booleans(), blank_lines=st.booleans(),
       threshold=st.sampled_from([0.3, 0.5, 0.7, 1.0]))
def test_reader_matches_the_per_row_oracle(tmp_path_factory, data, clips, annotators,
                                           repeats, blank_lines, threshold):
    row = st.tuples(st.sampled_from(clips), st.sampled_from(annotators),
                    st.sampled_from(VOTE_LABELS))
    rows = data.draw(st.lists(row, max_size=40, unique_by=None if repeats else
                              (lambda r: (r[0], r[1]))), label="rows")
    records = [VoteRecord(*r) for r in data.draw(st.permutations(rows), label="order")]
    golden = data.draw(st.dictionaries(st.sampled_from(clips) | vote_ids,
                                       st.sampled_from(VOTE_LABELS)), label="golden")
    path = tmp_path_factory.mktemp("votes") / "votes.csv"
    write_votes_csv(path, records)
    if blank_lines:
        lines = path.read_bytes().split(b"\r\n")
        path.write_bytes(b"\r\n\r\n".join(lines[:1] + [b""] + lines[1:]))
    try:
        want = oracle_results(records, golden, threshold)
    except DuplicateVoteError as exc:
        with pytest.raises(DuplicateVoteError) as got:
            read_votes_csv(path)
        assert str(got.value) == str(exc)
        return
    votes = read_votes_csv(path)
    assert len(votes) == len(records)
    table, clip_ids = votes_to_table(votes)
    assert table.tolist() == want[0].tolist() and clip_ids == want[1]
    assert [(r.clip_id, r.label, r.agreement_fraction, r.vote_count)
            for r in aggregate_all(votes, threshold)] == want[2]
    assert annotator_accuracy(votes, golden) == want[3]
