"""Crowd-label aggregation: modal-vote consensus with an agreement
threshold, Fleiss' kappa agreement, and golden-clip annotator accuracy.

Votes are held as columns. Votes.from_rows, which read_votes_csv feeds,
codes each clip id, annotator id and label as it reads them, keeping no
object per vote, and rejects an unknown label or a repeated (clip,
annotator) pair. Consensus and kappa both read the one
clips-by-VOTE_LABELS count table that votes_to_table builds from those
codes; each vote carries exactly one label. VoteRecord is the row type
that write_votes_csv writes."""
from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateVoteError, LabelError, UndefinedKappaError
from .textio import read_json, write_csv
from .vocab import CLASSES

VOTE_LABELS = CLASSES + ("other",)
_LABEL_CODE = {label: i for i, label in enumerate(VOTE_LABELS)}

CONSENSUS_THRESHOLD = 0.7


@dataclass(frozen=True, slots=True)
class VoteRecord:
    clip_id: str
    annotator_id: str
    label: str

    def __post_init__(self):
        if self.label not in VOTE_LABELS:
            raise LabelError("unknown vote label %r" % self.label)


@dataclass(frozen=True)
class ConsensusResult:
    """label is None when the clip failed to reach consensus; the agreement
    fraction of the (largest) modal label is kept either way for audit."""

    clip_id: str
    label: str | None
    agreement_fraction: float
    vote_count: int

    @property
    def accepted(self) -> bool:
        return self.label is not None


@dataclass(frozen=True, eq=False)
class Votes:
    """Votes as columns: vote i is annotator_ids[annotator[i]]'s vote of
    VOTE_LABELS[label[i]] on clip_ids[clip[i]], in the order read. The
    int64 code arrays number the sorted ids; len() is the vote count."""

    clip: np.ndarray
    annotator: np.ndarray
    label: np.ndarray
    clip_ids: list
    annotator_ids: list

    def __len__(self) -> int:
        return len(self.label)

    @classmethod
    def from_rows(cls, rows, where=lambda: ""):
        """Votes from (clip_id, annotator_id, label) triples. Each id takes
        a code when first seen, and the codes are then renumbered in sorted
        id order. A row that is not a triple or has an unknown label raises
        LabelError, prefixed by where() (the reader's file and line); a
        repeated (clip, annotator) pair raises DuplicateVoteError."""
        clip_code, annotator_code = {}, {}
        clip, annotator, label = array("q"), array("q"), array("q")
        for row in rows:
            try:
                c, a, lab = row
                label.append(_LABEL_CODE[lab])
            except ValueError:
                raise LabelError("%sexpected 3 columns" % where()) from None
            except KeyError:
                raise LabelError("%sunknown vote label %r" % (where(), lab)) from None
            clip.append(clip_code.setdefault(c, len(clip_code)))
            annotator.append(annotator_code.setdefault(a, len(annotator_code)))
        clip, clip_ids = _in_sorted_order(clip, clip_code)
        annotator, annotator_ids = _in_sorted_order(annotator, annotator_code)
        pairs = np.sort(clip * len(annotator_ids) + annotator)
        repeated = pairs[1:][pairs[1:] == pairs[:-1]]
        if repeated.size:
            c, a = divmod(int(repeated[0]), len(annotator_ids))
            raise DuplicateVoteError(
                "annotator %s voted more than once on %s" % (annotator_ids[a], clip_ids[c]))
        return cls(clip, annotator, np.frombuffer(label, np.int64), clip_ids, annotator_ids)


def _in_sorted_order(codes, first_seen):
    """First-seen codes renumbered in the sorted order of their ids, and
    those ids."""
    ids = sorted(first_seen)
    rank = np.empty(len(ids), np.int64)
    rank[np.fromiter(map(first_seen.__getitem__, ids), np.int64, len(ids))] = np.arange(len(ids))
    return rank[np.frombuffer(codes, np.int64)], ids


def votes_to_table(votes: Votes):
    """Clips-by-VOTE_LABELS count table of the votes, and the clip ids of
    its rows in sorted order."""
    k = len(VOTE_LABELS)
    table = np.bincount(votes.clip * k + votes.label, minlength=len(votes.clip_ids) * k)
    return table.reshape(len(votes.clip_ids), k), votes.clip_ids


def aggregate_all(votes: Votes, threshold: float = CONSENSUS_THRESHOLD):
    """Consensus of every clip, sorted by clip_id: the modal label wins iff it
    is the only mode and its share of the clip's votes reaches threshold.
    Rejecting ties at any threshold keeps the result order-independent."""
    table, clip_ids = votes_to_table(votes)
    modal, n = table.max(axis=1), table.sum(axis=1)
    fraction = modal / n
    won = (np.count_nonzero(table == modal[:, None], axis=1) == 1) & (fraction >= threshold)
    labels = [VOTE_LABELS[j] if ok else None
              for j, ok in zip(table.argmax(axis=1).tolist(), won.tolist())]
    return list(map(ConsensusResult, clip_ids, labels, fraction.tolist(), n.tolist()))


def fleiss_kappa(table) -> float:
    """Standard Fleiss' kappa from a clips-by-categories count table.

    Every clip must carry the same number of ratings (at least 2), and
    at least 2 clips are required. When every rating in the table lands
    in one category the chance agreement is exactly 1 and kappa is
    undefined; that raises UndefinedKappaError rather than returning a
    sentinel.
    """
    table = np.asarray(table, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] < 2:
        raise LabelError("need a 2-D table with at least 2 clips")
    if np.any(table < 0):
        raise LabelError("negative rating counts")
    row_sums = table.sum(axis=1)
    n = int(row_sums[0])
    if n < 2:
        raise LabelError("kappa needs at least 2 ratings per clip")
    if np.any(row_sums != n):
        raise LabelError("unequal ratings per clip: %s" % sorted(set(row_sums.tolist())))

    col_totals = table.sum(axis=0)
    if np.count_nonzero(col_totals) == 1:
        raise UndefinedKappaError(
            "all %d ratings fall in one category; chance agreement is 1" % col_totals.sum())

    N = table.shape[0]
    p_i = (np.sum(table.astype(np.float64) ** 2, axis=1) - n) / (n * (n - 1))
    p_bar = float(np.mean(p_i))
    p_j = col_totals / float(N * n)
    p_e = float(np.sum(p_j ** 2))
    return (p_bar - p_e) / (1.0 - p_e)


def annotator_accuracy(votes: Votes, golden_labels: dict) -> dict:
    """Per-annotator accuracy against known labels of golden clips.

    Only votes on clips present in golden_labels count; annotators who
    never saw a golden clip are omitted.
    """
    truth = np.array([_LABEL_CODE.get(golden_labels.get(c), -1)
                      for c in votes.clip_ids], np.int64)[votes.clip]
    n = len(votes.annotator_ids)
    total = np.bincount(votes.annotator[truth >= 0], minlength=n)
    correct = np.bincount(votes.annotator[votes.label == truth], minlength=n)
    return {a: {"correct": c, "total": t, "accuracy": c / t}
            for a, c, t in zip(votes.annotator_ids, correct.tolist(), total.tolist()) if t}


def read_golden_json(path) -> dict:
    """Golden labels: one JSON object mapping clip id to its true label."""
    golden = read_json(path, LabelError)
    if not isinstance(golden, dict) or not all(lab in VOTE_LABELS for lab in golden.values()):
        raise LabelError("%s: expected a JSON object mapping clip ids to labels in %s"
                         % (path, ", ".join(VOTE_LABELS)))
    return golden


def read_votes_csv(path) -> Votes:
    """Votes CSV is clip_id,annotator_id,label with a header row; blank
    lines are skipped. A bad row's error names the file and line."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            reader = csv.reader(fh)
            if next(reader, None) != ["clip_id", "annotator_id", "label"]:
                raise LabelError("%s: expected header clip_id,annotator_id,label" % path)
            return Votes.from_rows(filter(None, reader),
                                   where=lambda: "%s:%d: " % (path, reader.line_num))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise LabelError("%s: %s" % (path, exc)) from None


def write_votes_csv(path, votes) -> None:
    write_csv(path, ["clip_id", "annotator_id", "label"],
              ([v.clip_id, v.annotator_id, v.label] for v in votes))
