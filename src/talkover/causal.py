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


TELEMETRY_COLUMNS = ("meeting_id",) + BASE_NUMERIC + BASE_BOOLEAN + (
    "vrh_used", "predicted_inclusive")


@dataclass(frozen=True, eq=False)
class Telemetry:
    """Meeting telemetry as one numpy column per CSV field, row i being
    meeting i. extras maps each additional confounder name to a float64
    column, in sorted-name order."""

    meeting_id: np.ndarray
    participant_count: np.ndarray
    duration_min: np.ndarray
    video_used: np.ndarray
    screenshare_used: np.ndarray
    vrh_used: np.ndarray
    predicted_inclusive: np.ndarray
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        dtypes = (str, np.int64, np.float64) + (bool,) * 4
        for name, dtype in zip(TELEMETRY_COLUMNS, dtypes):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        object.__setattr__(self, "extras", {
            k: np.asarray(self.extras[k], dtype=np.float64) for k in sorted(self.extras)})
        for name in self.extras:
            if name in TELEMETRY_COLUMNS:
                raise CausalError("extra column %r repeats a telemetry column" % name)
        n = len(self.meeting_id)
        columns = [getattr(self, c) for c in TELEMETRY_COLUMNS] + list(self.extras.values())
        if any(c.shape != (n,) for c in columns):
            raise CausalError("telemetry columns differ in length")
        self._reject(self.participant_count < 2, "participant_count must be >= 2")
        self._reject(~(np.isfinite(self.duration_min) & (self.duration_min > 0)),
                     "duration_min must be positive and finite")
        for name, col in self.extras.items():
            self._reject(~np.isfinite(col), "extra column %r is not finite" % name)

    def _reject(self, bad, message):
        if bad.any():
            raise CausalError("%s: %s" % (self.meeting_id[np.argmax(bad)], message))

    def __len__(self):
        return len(self.meeting_id)

    def take(self, rows) -> Telemetry:
        """The meetings at an index array or boolean mask, in its order."""
        return Telemetry(*(getattr(self, c)[rows] for c in TELEMETRY_COLUMNS),
                         extras={k: v[rows] for k, v in self.extras.items()})

    def column(self, name) -> np.ndarray:
        return (self.extras[name] if name in self.extras
                else getattr(self, name)).astype(np.float64)


def filter_eligible(telemetry):
    """Keep meetings with more than 2 participants; returns (kept, n_dropped)."""
    kept = telemetry.take(telemetry.participant_count >= MIN_PARTICIPANTS)
    return kept, len(telemetry) - len(kept)


def _feature_names(telemetry):
    return BASE_NUMERIC + tuple(telemetry.extras) + BASE_BOOLEAN


def _raw_matrix(telemetry, names):
    return np.stack([telemetry.column(name) for name in names]).T  # (n, k)


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
                with np.errstate(over="ignore", invalid="ignore"):
                    means[j] = raw[:, j].mean()
                    stds[j] = raw[:, j].std()
                if not (np.isfinite(means[j]) and np.isfinite(stds[j])):
                    raise CausalError("column %r has a non-finite mean or spread" % name)
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


def fit_propensity(telemetry) -> PsModel:
    """Maximum-likelihood logistic fit of treatment on confounders by
    Newton/IRLS; converges when the largest coefficient change drops
    below 1e-8, capped at 100 iterations."""
    if len(telemetry) < 2:
        raise CausalError("need at least 2 records to fit a propensity model")
    y = telemetry.column("vrh_used")
    if y.min() == y.max():
        raise SingleClassTreatmentError(
            "all records have vrh_used=%s; propensity undefined" % bool(y[0]))

    names = _feature_names(telemetry)
    raw = _raw_matrix(telemetry, names)
    Z, means, stds = _standardize(raw, names)

    # constant columns are collinear with the intercept; fit without them
    active = [j for j in range(Z.shape[1]) if np.ptp(Z[:, j]) > 0]
    dropped = tuple(names[j] for j in range(Z.shape[1]) if j not in active)
    X = np.hstack([np.ones((len(telemetry), 1)), Z[:, active]])

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


def predict_ps(model: PsModel, telemetry) -> np.ndarray:
    """Propensity scores in (0,1) for each meeting, in order."""
    names = _feature_names(telemetry)
    if names != model.feature_names:
        raise CausalError(
            "records carry confounders %s but the model was fit on %s"
            % (list(names), list(model.feature_names)))
    raw = _raw_matrix(telemetry, names)
    Z, _, _ = _standardize(raw, names, model.means, model.stds)
    beta = np.asarray(model.coefficients)
    return _sigmoid(beta[0] + Z @ beta[1:])


def stratify(telemetry, model: PsModel, n_bins: int = 5) -> np.ndarray:
    """Quantile bins of the propensity score: meetings sorted by PS and
    split into n_bins contiguous groups of equal size (within 1).
    Returns the bin index of each meeting in input order."""
    if n_bins < 2:
        raise CausalError("need at least 2 bins")
    if len(telemetry) < n_bins:
        raise CausalError("%d records cannot fill %d bins" % (len(telemetry), n_bins))
    ps = predict_ps(model, telemetry)
    order = np.argsort(ps, kind="stable")
    assignment = np.empty(len(telemetry), dtype=np.int64)
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


def balance_report(telemetry, assignment) -> dict:
    """Within-bin standardized mean differences per confounder.

    Bins missing an arm are skipped. The summary per confounder is the
    bin-size-weighted mean of the within-bin SMDs.
    """
    names = _feature_names(telemetry)
    raw = _raw_matrix(telemetry, names)
    treated = telemetry.vrh_used
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


def estimate_impact(telemetry, assignment) -> ImpactEstimate:
    """Bin-weighted treated-minus-control outcome difference.

    Strata lacking a treated or a control meeting are dropped with a
    warning and the weights renormalized over what remains. The CI is a
    normal approximation with per-stratum Bernoulli variances.
    """
    assignment = np.asarray(assignment)
    if len(telemetry) != len(assignment):
        raise CausalError("assignment length does not match records")
    treated = telemetry.vrh_used
    outcome = telemetry.column("predicted_inclusive")

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


def naive_difference(telemetry) -> float:
    """Unadjusted treated-minus-control outcome difference, for bias
    comparison in reports."""
    treated = telemetry.vrh_used
    outcome = telemetry.column("predicted_inclusive")
    if not treated.any() or treated.all():
        raise SingleClassTreatmentError("need both treated and control records")
    return float(outcome[treated].mean() - outcome[~treated].mean())


def bootstrap_ci(telemetry, n_bins: int = 5, n_boot: int = 200, seed: int = 0,
                 alpha: float = 0.05):
    """Percentile bootstrap of the full fit-stratify-estimate pipeline.
    Slower than the normal approximation; offered as an alternative."""
    rng = np.random.default_rng(seed)
    deltas = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(n_boot):
            sample = telemetry.take(rng.integers(0, len(telemetry), size=len(telemetry)))
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


def run_impact(telemetry, n_bins: int = 5, bootstrap: bool = False,
               bootstrap_samples: int = 200, seed: int = 0) -> dict:
    """Full pipeline on raw telemetry: eligibility filter, propensity
    fit, stratification, balance check, stratified estimate. Returns a
    JSON-ready report."""
    eligible, n_small = filter_eligible(telemetry)
    if not len(eligible):
        raise CausalError("no meetings with %d or more participants" % MIN_PARTICIPANTS)
    model = fit_propensity(eligible)
    assignment = stratify(eligible, model, n_bins)
    balance = balance_report(eligible, assignment)
    estimate = estimate_impact(eligible, assignment)

    report = {
        "n_records": len(telemetry),
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


def read_telemetry_csv(path) -> Telemetry:
    """Telemetry CSV with the documented columns and one row per
    meeting_id; booleans as 0/1. Any additional columns are carried as
    numeric extras."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header[: len(TELEMETRY_COLUMNS)]) != TELEMETRY_COLUMNS:
            raise CausalError(
                "%s: expected columns %s" % (path, ",".join(TELEMETRY_COLUMNS)))
        for name in header:
            if header.count(name) > 1:
                raise CausalError("%s: column %r appears more than once" % (path, name))
        parsers = (str, np.int64, float) + (_parse_bool,) * 4
        parsers += (float,) * (len(header) - len(parsers))
        columns = [[] for _ in header]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CausalError("%s:%d: expected %d columns" % (path, lineno, len(header)))
            try:
                for column, parse, text in zip(columns, parsers, row):
                    column.append(parse(text))
            except (ValueError, OverflowError) as exc:
                raise CausalError("%s:%d: %s" % (path, lineno, exc)) from None
    # here, not in Telemetry: bootstrap resamples repeat rows on purpose
    seen = set()
    for meeting_id in columns[0]:
        if meeting_id in seen:
            raise CausalError("%s: meeting_id %r appears more than once" % (path, meeting_id))
        seen.add(meeting_id)
    n_base = len(TELEMETRY_COLUMNS)
    return Telemetry(*columns[:n_base], extras=dict(zip(header[n_base:], columns[n_base:])))


def _parse_bool(text: str) -> bool:
    if text == "0":
        return False
    if text == "1":
        return True
    raise ValueError("boolean column must be 0 or 1, got %r" % text)


def write_telemetry_csv(path, telemetry) -> None:
    columns = [telemetry.meeting_id.tolist(), telemetry.participant_count.tolist(),
               ["%.10g" % x for x in telemetry.duration_min.tolist()]]
    columns += [getattr(telemetry, c).astype(int).tolist() for c in TELEMETRY_COLUMNS[3:]]
    columns += [["%.10g" % x for x in c.tolist()] for c in telemetry.extras.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(TELEMETRY_COLUMNS) + list(telemetry.extras))
        writer.writerows(zip(*columns))
