"""Impact of raise-hand usage on predicted meeting inclusiveness via
propensity-score stratification.

The inclusiveness predictor is upstream; its output arrives here as a
boolean column. This module fits a logistic propensity model on meeting
confounders, splits meetings into equal-sized propensity bins, checks
confounder balance, and reports the bin-weighted treated-minus-control
difference with a stratified normal-approximation CI.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (CausalError, NoValidStrataError, PerfectSeparationError,
                     SingleClassTreatmentError)

BASE_NUMERIC = ("participant_count", "duration_min")
BASE_BOOLEAN = ("video_used", "screenshare_used")

PS_MAX_ITER = 100
PS_TOL = 1e-8
PS_COEF_LIMIT = 30.0  # log-odds beyond this only arise when classes separate

MIN_PARTICIPANTS = 3  # analysis covers meetings with more than 2 people

# Two-sided 95% normal quantile, the double nearest norm.ppf(0.975).
# statistics.NormalDist().inv_cdf(0.975) lands two ulps lower.
Z_975 = 1.959963984540054


@dataclass(frozen=True)
class MeetingRecord:
    meeting_id: str
    participant_count: int
    duration_min: float
    video_used: bool
    screenshare_used: bool
    vrh_used: bool
    predicted_inclusive: bool
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.participant_count < 2:
            raise CausalError("%s: participant_count must be >= 2" % self.meeting_id)
        if not self.duration_min > 0:
            raise CausalError("%s: duration_min must be positive" % self.meeting_id)
        for name, value in self.extras.items():
            if not np.isfinite(float(value)):
                raise CausalError("%s: extra column %r is not finite" % (self.meeting_id, name))


def filter_eligible(records):
    """Keep meetings with more than 2 participants; returns (kept, n_dropped)."""
    kept = [r for r in records if r.participant_count >= MIN_PARTICIPANTS]
    return kept, len(records) - len(kept)


def _feature_names(records):
    extra_keys = sorted(records[0].extras)
    for r in records:
        if sorted(r.extras) != extra_keys:
            raise CausalError("inconsistent extra columns across records")
    return BASE_NUMERIC + tuple(extra_keys) + BASE_BOOLEAN


def _raw_matrix(records, names):
    cols = []
    for name in names:
        if name in BASE_BOOLEAN:
            cols.append([float(getattr(r, name)) for r in records])
        elif name in BASE_NUMERIC:
            cols.append([float(getattr(r, name)) for r in records])
        else:
            cols.append([float(r.extras[name]) for r in records])
    return np.array(cols, dtype=np.float64).T  # (n, k)


@dataclass(frozen=True)
class PsModel:
    """Logistic model over standardized confounders.

    Numeric columns are z-scored with the stored means/stds; boolean
    columns pass through as 0/1 (their stored mean/std are 0/1).
    Constant columns are dropped from the fit and keep coefficient 0.
    coefficients[0] is the intercept.
    """

    feature_names: tuple
    means: tuple
    stds: tuple
    coefficients: tuple
    dropped: tuple

    def __post_init__(self):
        if not np.all(np.isfinite(self.coefficients)):
            raise CausalError("non-finite propensity coefficients")


def _standardize(raw, names, means=None, stds=None):
    if means is None:
        means = np.zeros(raw.shape[1])
        stds = np.ones(raw.shape[1])
        for j, name in enumerate(names):
            if name not in BASE_BOOLEAN:
                means[j] = raw[:, j].mean()
                stds[j] = raw[:, j].std()
                if stds[j] == 0.0:
                    stds[j] = 1.0  # constant column; zeroed by centering
    else:
        means = np.asarray(means)
        stds = np.asarray(stds)
    return (raw - means) / stds, means, stds


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fit_propensity(records) -> PsModel:
    """Maximum-likelihood logistic fit of treatment on confounders by
    Newton/IRLS; converges when the largest coefficient change drops
    below 1e-8, capped at 100 iterations."""
    records = list(records)
    if len(records) < 2:
        raise CausalError("need at least 2 records to fit a propensity model")
    y = np.array([float(r.vrh_used) for r in records])
    if y.min() == y.max():
        raise SingleClassTreatmentError(
            "all records have vrh_used=%s; propensity undefined" % bool(y[0]))

    names = _feature_names(records)
    raw = _raw_matrix(records, names)
    Z, means, stds = _standardize(raw, names)

    # constant columns are collinear with the intercept; fit without them
    active = [j for j in range(Z.shape[1]) if np.ptp(Z[:, j]) > 0]
    dropped = tuple(names[j] for j in range(Z.shape[1]) if j not in active)
    X = np.hstack([np.ones((len(records), 1)), Z[:, active]])

    beta = np.zeros(X.shape[1])
    for _ in range(PS_MAX_ITER):
        p = _sigmoid(X @ beta)
        W = p * (1.0 - p)
        H = (X * W[:, None]).T @ X
        grad = X.T @ (y - p)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            raise CausalError("singular design in propensity fit") from None
        beta = beta + step
        if np.max(np.abs(beta)) > PS_COEF_LIMIT:
            raise PerfectSeparationError(
                "coefficients diverged past %g; treatment is separable" % PS_COEF_LIMIT)
        if np.max(np.abs(step)) < PS_TOL:
            break

    coefs = np.zeros(len(names) + 1)
    coefs[0] = beta[0]
    for pos, j in enumerate(active):
        coefs[j + 1] = beta[pos + 1]
    return PsModel(names, tuple(means), tuple(stds), tuple(coefs), dropped)


def predict_ps(model: PsModel, records) -> np.ndarray:
    """Propensity scores in (0,1) for each record, in order."""
    records = list(records)
    names = _feature_names(records)
    if names != model.feature_names:
        raise CausalError(
            "records carry confounders %s but the model was fit on %s"
            % (list(names), list(model.feature_names)))
    raw = _raw_matrix(records, names)
    Z, _, _ = _standardize(raw, names, model.means, model.stds)
    beta = np.asarray(model.coefficients)
    return _sigmoid(beta[0] + Z @ beta[1:])


def stratify(records, model: PsModel, n_bins: int = 5) -> np.ndarray:
    """Quantile bins of the propensity score: records sorted by PS and
    split into n_bins contiguous groups of equal size (within 1).
    Returns the bin index of each record in input order."""
    records = list(records)
    if n_bins < 2:
        raise CausalError("need at least 2 bins")
    if len(records) < n_bins:
        raise CausalError("%d records cannot fill %d bins" % (len(records), n_bins))
    ps = predict_ps(model, records)
    order = np.argsort(ps, kind="stable")
    assignment = np.empty(len(records), dtype=np.int64)
    for b, chunk in enumerate(np.array_split(order, n_bins)):
        assignment[chunk] = b
    return assignment


def _smd(a: np.ndarray, b: np.ndarray) -> float:
    """Standardized mean difference with pooled spread; 0 when both arms
    are constant and identical."""
    va = a.var(ddof=1) if len(a) > 1 else 0.0
    vb = b.var(ddof=1) if len(b) > 1 else 0.0
    pooled = np.sqrt((va + vb) / 2.0)
    diff = abs(a.mean() - b.mean())
    if pooled == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return float(diff / pooled)


def balance_report(records, assignment) -> dict:
    """Within-bin standardized mean differences per confounder.

    Bins missing an arm are skipped. The summary per confounder is the
    bin-size-weighted mean of the within-bin SMDs.
    """
    records = list(records)
    names = _feature_names(records)
    raw = _raw_matrix(records, names)
    treated = np.array([r.vrh_used for r in records])
    assignment = np.asarray(assignment)

    per_bin = {}
    weights = {}
    for b in sorted(set(assignment.tolist())):
        in_bin = assignment == b
        t = in_bin & treated
        c = in_bin & ~treated
        if not t.any() or not c.any():
            continue
        per_bin[b] = {name: _smd(raw[t, j], raw[c, j]) for j, name in enumerate(names)}
        weights[b] = int(in_bin.sum())

    total = sum(weights.values())
    summary = {}
    for name in names:
        if total:
            summary[name] = sum(per_bin[b][name] * weights[b] for b in per_bin) / total
        else:
            summary[name] = float("nan")
    return {"per_bin": per_bin, "summary": summary}


@dataclass(frozen=True)
class ImpactEstimate:
    delta: float
    ci95: tuple
    per_stratum: tuple  # rows of (bin, n_treated, n_control, delta)

    def __post_init__(self):
        low, high = self.ci95
        if not low <= self.delta <= high:
            raise CausalError("CI (%g, %g) does not bracket delta %g" % (low, high, self.delta))


def estimate_impact(records, assignment) -> ImpactEstimate:
    """Bin-weighted treated-minus-control outcome difference.

    Strata lacking a treated or a control record are dropped with a
    warning and the weights renormalized over what remains. The CI is a
    normal approximation with per-stratum Bernoulli variances.
    """
    records = list(records)
    assignment = np.asarray(assignment)
    if len(records) != len(assignment):
        raise CausalError("assignment length does not match records")
    treated = np.array([r.vrh_used for r in records])
    outcome = np.array([float(r.predicted_inclusive) for r in records])

    rows = []
    dropped_bins = []
    for b in sorted(set(assignment.tolist())):
        in_bin = assignment == b
        t = in_bin & treated
        c = in_bin & ~treated
        if not t.any() or not c.any():
            dropped_bins.append(int(b))
            continue
        p_t = outcome[t].mean()
        p_c = outcome[c].mean()
        rows.append((int(b), int(t.sum()), int(c.sum()), int(in_bin.sum()),
                     float(p_t), float(p_c)))
    if dropped_bins:
        warnings.warn(
            "dropping strata %s with no treated or no control meetings; "
            "weights renormalized" % dropped_bins, stacklevel=2)
    if not rows:
        raise NoValidStrataError("every stratum lacks a treated or control arm")

    total = sum(r[3] for r in rows)
    delta = 0.0
    var = 0.0
    per_stratum = []
    for b, n_t, n_c, n_bin, p_t, p_c in rows:
        w = n_bin / total
        d = p_t - p_c
        delta += w * d
        var += w * w * (p_t * (1 - p_t) / n_t + p_c * (1 - p_c) / n_c)
        per_stratum.append((b, n_t, n_c, d))
    half = Z_975 * np.sqrt(var)
    return ImpactEstimate(float(delta), (float(delta - half), float(delta + half)),
                          tuple(per_stratum))


def naive_difference(records) -> float:
    """Unadjusted treated-minus-control outcome difference, for bias
    comparison in reports."""
    treated = np.array([r.vrh_used for r in records])
    outcome = np.array([float(r.predicted_inclusive) for r in records])
    if not treated.any() or treated.all():
        raise SingleClassTreatmentError("need both treated and control records")
    return float(outcome[treated].mean() - outcome[~treated].mean())


def bootstrap_ci(records, n_bins: int = 5, n_boot: int = 200, seed: int = 0,
                 alpha: float = 0.05):
    """Percentile bootstrap of the full fit-stratify-estimate pipeline.
    Slower than the normal approximation; offered as an alternative."""
    records = list(records)
    rng = np.random.default_rng(seed)
    deltas = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(n_boot):
            idx = rng.integers(0, len(records), size=len(records))
            sample = [records[i] for i in idx]
            try:
                model = fit_propensity(sample)
                est = estimate_impact(sample, stratify(sample, model, n_bins))
            except CausalError:
                continue  # degenerate resample; skip it
            deltas.append(est.delta)
    if not deltas:
        raise CausalError("all bootstrap resamples were degenerate")
    lo, hi = np.quantile(deltas, [alpha / 2, 1 - alpha / 2])
    return float(lo), float(hi), len(deltas)


def run_impact(records, n_bins: int = 5, bootstrap: bool = False,
               bootstrap_samples: int = 200, seed: int = 0) -> dict:
    """Full pipeline on raw telemetry: eligibility filter, propensity
    fit, stratification, balance check, stratified estimate. Returns a
    JSON-ready report."""
    eligible, n_small = filter_eligible(records)
    if not eligible:
        raise CausalError("no meetings with %d or more participants" % MIN_PARTICIPANTS)
    model = fit_propensity(eligible)
    assignment = stratify(eligible, model, n_bins)
    balance = balance_report(eligible, assignment)
    estimate = estimate_impact(eligible, assignment)

    report = {
        "n_records": len(records),
        "n_eligible": len(eligible),
        "n_excluded_small_meetings": n_small,
        "n_bins": n_bins,
        "propensity": {
            "feature_names": list(model.feature_names),
            "coefficients": {"intercept": model.coefficients[0],
                             **{n: c for n, c in zip(model.feature_names,
                                                     model.coefficients[1:])}},
            "dropped_constant_columns": list(model.dropped),
        },
        "delta": estimate.delta,
        "ci95": list(estimate.ci95),
        "naive_delta": naive_difference(eligible),
        "per_stratum": [
            {"bin": b, "n_treated": nt, "n_control": nc, "delta": d}
            for b, nt, nc, d in estimate.per_stratum
        ],
        "balance": {
            "summary": balance["summary"],
            "per_bin": {str(b): v for b, v in balance["per_bin"].items()},
        },
    }
    if bootstrap:
        lo, hi, used = bootstrap_ci(eligible, n_bins, bootstrap_samples, seed)
        report["bootstrap_ci95"] = [lo, hi]
        report["bootstrap_samples_used"] = used
    return report


TELEMETRY_COLUMNS = ("meeting_id", "participant_count", "duration_min",
                     "video_used", "screenshare_used", "vrh_used",
                     "predicted_inclusive")


def read_telemetry_csv(path):
    """Telemetry CSV with the documented columns; booleans as 0/1. Any
    additional columns are carried as numeric extras."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header[: len(TELEMETRY_COLUMNS)]) != TELEMETRY_COLUMNS:
            raise CausalError(
                "%s: expected columns %s" % (path, ",".join(TELEMETRY_COLUMNS)))
        extra_names = header[len(TELEMETRY_COLUMNS):]
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CausalError("%s:%d: expected %d columns" % (path, lineno, len(header)))
            try:
                records.append(MeetingRecord(
                    meeting_id=row[0],
                    participant_count=int(row[1]),
                    duration_min=float(row[2]),
                    video_used=_parse_bool(row[3]),
                    screenshare_used=_parse_bool(row[4]),
                    vrh_used=_parse_bool(row[5]),
                    predicted_inclusive=_parse_bool(row[6]),
                    extras={n: float(v) for n, v in
                            zip(extra_names, row[len(TELEMETRY_COLUMNS):])},
                ))
            except ValueError as exc:
                raise CausalError("%s:%d: %s" % (path, lineno, exc)) from None
    return records


def _parse_bool(text: str) -> bool:
    if text == "0":
        return False
    if text == "1":
        return True
    raise ValueError("boolean column must be 0 or 1, got %r" % text)


def write_telemetry_csv(path, records) -> None:
    extra_names = sorted(records[0].extras) if records else []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(TELEMETRY_COLUMNS) + extra_names)
        for r in records:
            writer.writerow([
                r.meeting_id, r.participant_count, "%.10g" % r.duration_min,
                int(r.video_used), int(r.screenshare_used), int(r.vrh_used),
                int(r.predicted_inclusive),
            ] + ["%.10g" % r.extras[n] for n in extra_names])
