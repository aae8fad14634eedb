"""Crowd-label aggregation: modal-vote consensus with an agreement
threshold, Fleiss' kappa agreement, and golden-clip annotator accuracy.
Consensus and kappa both read the one clips-by-VOTE_LABELS count table
that votes_to_table builds; each vote carries exactly one label."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateVoteError, LabelError, UndefinedKappaError
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


def _intern(values):
    """Codes numbering the distinct values in sorted order, and those values."""
    ids = sorted(set(values))
    code = {v: i for i, v in enumerate(ids)}
    return np.fromiter(map(code.__getitem__, values), np.int64, len(values)), ids


def _encode(votes):
    """Clip, annotator and label codes of each vote, and the sorted clip and
    annotator ids; a repeated (clip, annotator) pair is a duplicate vote."""
    clip, clip_ids = _intern([v.clip_id for v in votes])
    annotator, annotator_ids = _intern([v.annotator_id for v in votes])
    pairs = np.sort(clip * len(annotator_ids) + annotator)
    repeated = pairs[1:][pairs[1:] == pairs[:-1]]
    if repeated.size:
        c, a = divmod(int(repeated[0]), len(annotator_ids))
        raise DuplicateVoteError(
            "annotator %s voted more than once on %s" % (annotator_ids[a], clip_ids[c]))
    label = np.fromiter((_LABEL_CODE[v.label] for v in votes), np.int64, len(votes))
    return clip, clip_ids, annotator, annotator_ids, label


def votes_to_table(votes):
    """Clips-by-VOTE_LABELS count table of a vote list, and the clip ids
    of its rows in sorted order. Duplicate votes are rejected."""
    clip, clip_ids, _, _, label = _encode(votes)
    k = len(VOTE_LABELS)
    table = np.bincount(clip * k + label, minlength=len(clip_ids) * k)
    return table.reshape(len(clip_ids), k), clip_ids


def aggregate_all(votes, threshold: float = CONSENSUS_THRESHOLD):
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


def aggregate(votes, threshold: float = CONSENSUS_THRESHOLD) -> ConsensusResult:
    """Consensus of the votes on a single clip, by the aggregate_all rule."""
    votes = list(votes)
    clip_ids = {v.clip_id for v in votes}
    if len(clip_ids) != 1:
        raise LabelError("aggregate takes the votes on one clip, got %s" % sorted(clip_ids))
    return aggregate_all(votes, threshold)[0]


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


def annotator_accuracy(votes, golden_labels: dict) -> dict:
    """Per-annotator accuracy against known labels of golden clips.

    Only votes on clips present in golden_labels count; annotators who
    never saw a golden clip are omitted.
    """
    clip, clip_ids, annotator, annotator_ids, label = _encode(votes)
    truth = np.array([_LABEL_CODE.get(golden_labels.get(c), -1) for c in clip_ids])[clip]
    total = np.bincount(annotator[truth >= 0], minlength=len(annotator_ids))
    correct = np.bincount(annotator[label == truth], minlength=len(annotator_ids))
    return {a: {"correct": c, "total": t, "accuracy": c / t}
            for a, c, t in zip(annotator_ids, correct.tolist(), total.tolist()) if t}


def read_golden_json(path) -> dict:
    """Golden labels: one JSON object mapping clip id to its true label."""
    with open(path) as fh:
        try:
            golden = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise LabelError("%s: %s" % (path, exc)) from None
    if not isinstance(golden, dict) or not all(lab in VOTE_LABELS for lab in golden.values()):
        raise LabelError("%s: expected a JSON object mapping clip ids to labels in %s"
                         % (path, ", ".join(VOTE_LABELS)))
    return golden


def read_votes_csv(path):
    """Votes CSV is clip_id,annotator_id,label with a header row."""
    with open(path, newline="") as fh:
        try:
            reader = csv.reader(fh)
            if next(reader, None) != ["clip_id", "annotator_id", "label"]:
                raise LabelError("%s: expected header clip_id,annotator_id,label" % path)
            votes = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise LabelError("%s:%d: expected 3 columns" % (path, lineno))
                votes.append(VoteRecord(*row))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise LabelError("%s: %s" % (path, exc)) from None
    return votes


def write_votes_csv(path, votes) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "annotator_id", "label"])
        writer.writerows([v.clip_id, v.annotator_id, v.label] for v in votes)
