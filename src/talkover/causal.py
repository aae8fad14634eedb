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
import io
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (CausalError, NoValidStrataError, PerfectSeparationError,
                     SingleClassTreatmentError)
from .textio import write_csv

BASE_NUMERIC = ("participant_count", "duration_min")
BASE_BOOLEAN = ("video_used", "screenshare_used")

PS_MAX_ITER = 100
PS_TOL = 1e-8
PS_COEF_LIMIT = 30.0  # log-odds beyond this only arise when classes separate
PS_EPS = 10 * np.finfo(np.float64).eps  # R glm.fit's "fitted probabilities numerically 0 or 1"

MIN_PARTICIPANTS = 3  # analysis covers meetings with more than 2 people

# Two-sided 95% normal quantile, the double nearest norm.ppf(0.975).
# statistics.NormalDist().inv_cdf(0.975) lands two ulps lower.
Z_975 = 1.959963984540054
BOOTSTRAP_ALPHA = 0.05  # the percentile bootstrap's two-sided 95% interval


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
            if name == "intercept":  # report.json keys the fitted intercept so
                raise CausalError("extra column 'intercept' is reserved for the fitted intercept")
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


def filter_eligible(telemetry):
    """Keep meetings with more than 2 participants; returns (kept, n_dropped)."""
    kept = telemetry.take(telemetry.participant_count >= MIN_PARTICIPANTS)
    return kept, len(telemetry) - len(kept)


def _confounder_names(telemetry):
    return BASE_NUMERIC + tuple(telemetry.extras) + BASE_BOOLEAN


def _column(telemetry, name):
    """The confounder column called name, in place."""
    return telemetry.extras[name] if name in telemetry.extras else getattr(telemetry, name)


@dataclass(frozen=True, eq=False)
class PsModel:
    """Logistic model over confounders standardized on its fit records.

    Numeric columns are z-scored, boolean ones pass through as 0/1.
    Constant columns are dropped from the fit and keep coefficient 0;
    coefficients[0] is the intercept. fitted is the read-only float64
    propensity the fit converged on for each of its records, and design
    the read-only (k + 1, n) design it was fit on, constant rows
    included, which the bootstrap resamples.
    """

    feature_names: tuple
    coefficients: np.ndarray
    dropped: tuple
    fitted: np.ndarray
    design: np.ndarray


def _sigmoid(z):
    """The logistic function, by exp of -|z| only, so it never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _design(telemetry):
    """The confounder names and the (k + 1, n) design: an intercept row
    of ones, then one row per confounder, written in place. Numeric rows
    are z-scored on these records' own mean and spread; boolean rows
    pass through as 0/1."""
    names = _confounder_names(telemetry)
    XT = np.ones((len(names) + 1, len(telemetry)))
    for name, row in zip(names, XT[1:]):
        row[:] = _column(telemetry, name)
        if name not in BASE_BOOLEAN:
            with np.errstate(over="ignore", invalid="ignore"):
                mean, std = row.mean(), row.std()
            if not (np.isfinite(mean) and np.isfinite(std)):
                raise CausalError("column %r has a non-finite mean or spread" % name)
            row -= mean
            row /= std or 1.0  # a constant row; zeroed by centering
    return names, XT


def _live_rows(XT):
    """The rows of a design that vary, as a mask and as the design they
    make (XT itself where all do). The intercept row always stays; a
    constant confounder is collinear with it, so it is fit without."""
    live = XT.max(axis=1) > XT.min(axis=1)
    live[0] = True
    return live, (XT if live.all() else XT[live])


def _newton(XT, y, beta):
    """Maximum-likelihood logistic coefficients of treatment y on the
    (k, n) design XT by Newton/IRLS from beta; converges when the
    largest coefficient change drops below 1e-8, capped at 100
    iterations; returns (beta, fitted propensities). Separation raises
    PerfectSeparationError: a coefficient past PS_COEF_LIMIT, or a
    fitted propensity within PS_EPS of 0 or 1."""
    if y.min() == y.max():
        raise SingleClassTreatmentError(
            "all records have vrh_used=%s; propensity undefined" % bool(y[0]))
    for _ in range(PS_MAX_ITER):
        p = _sigmoid(beta @ XT)
        W = p * (1.0 - p)
        try:
            step = np.linalg.solve((XT * W) @ XT.T, XT @ (y - p))
        except np.linalg.LinAlgError:
            raise CausalError("singular design in propensity fit") from None
        beta = beta + step
        if np.max(np.abs(beta)) > PS_COEF_LIMIT:
            raise PerfectSeparationError(
                "coefficients diverged past %g; treatment is separable" % PS_COEF_LIMIT)
        if np.max(np.abs(step)) < PS_TOL:
            break
    if not np.all(np.isfinite(beta)):
        raise CausalError("non-finite propensity coefficients")
    p = _sigmoid(beta @ XT)
    if p.min() < PS_EPS or p.max() > 1.0 - PS_EPS:
        raise PerfectSeparationError(
            "fitted propensities numerically 0 or 1; treatment is separable")
    return beta, p


def fit_propensity(telemetry) -> PsModel:
    """Maximum-likelihood logistic fit of treatment on confounders,
    standardized on these records, by Newton/IRLS from zero."""
    if len(telemetry) < 2:
        raise CausalError("need at least 2 records to fit a propensity model")
    names, design = _design(telemetry)
    live, XT = _live_rows(design)
    coefs = np.zeros(len(live))
    coefs[live], fitted = _newton(XT, telemetry.vrh_used, coefs[live])
    fitted.flags.writeable = design.flags.writeable = False
    dropped = tuple(name for name, keep in zip(names, live[1:]) if not keep)
    return PsModel(names, coefs, dropped, fitted, design)


def _check_fit_records(model: PsModel, telemetry):
    """CausalError unless telemetry has the fit's confounders and count."""
    names = _confounder_names(telemetry)
    if names != model.feature_names or len(telemetry) != len(model.fitted):
        raise CausalError("the model was fit on %d records with confounders %s, not on "
                          "these %d with %s" % (len(model.fitted), list(model.feature_names),
                                                len(telemetry), list(names)))


def predict_ps(model: PsModel, telemetry) -> np.ndarray:
    """Propensity scores in (0,1) of the records model was fit on, in
    order: the propensities the fit converged on, bit for bit."""
    _check_fit_records(model, telemetry)
    return model.fitted


def stratify(telemetry, model: PsModel, n_bins: int = 5) -> np.ndarray:
    """Quantile bins of the propensity score: meetings sorted by PS and
    split into n_bins contiguous groups of equal size (within 1).
    Returns the bin index of each meeting in input order."""
    return _bins(predict_ps(model, telemetry), n_bins)


def _bins(ps, n_bins):
    """The bin of each score when the stable argsort of ps is cut into
    the chunks np.array_split(order, n_bins) gives: the first
    len % n_bins bins hold one meeting more. Only the n_bins - 1 cut
    values are found, by partition; meetings tied at a cut value are
    ranked by input position, as the stable sort ranks them."""
    if n_bins < 2:
        raise CausalError("need at least 2 bins")
    if len(ps) < n_bins:
        raise CausalError("%d records cannot fill %d bins" % (len(ps), n_bins))
    size, extra = divmod(len(ps), n_bins)
    later = np.arange(1, n_bins)
    starts = later * size + np.minimum(later, extra)  # first sorted rank of bins 1..
    cuts = np.partition(ps, starts)[starts]
    bins = np.searchsorted(cuts, ps, side="right")
    for value in dict.fromkeys(cuts.tolist()):
        tied = np.flatnonzero(ps == value)
        ranks = np.count_nonzero(ps < value) + np.arange(len(tied))
        bins[tied] = np.searchsorted(starts, ranks, side="right")
    return bins


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


def _strata(telemetry, assignment, values=None):
    """Arm table of the strata, in sorted label order: (labels, counts,
    sums, dropped). A stratum counts only when it holds a treated and a
    control meeting; labels, and the (control, treated) counts and sums
    of values (counts again when values is None), cover those strata,
    and dropped lists the labels of the others."""
    assignment = np.asarray(assignment)
    if len(telemetry) != len(assignment):
        raise CausalError("assignment length does not match records")
    labels, code = np.unique(assignment, return_inverse=True)
    counts, sums = _arm_table(code, len(labels), telemetry.vrh_used, values)
    both = counts.all(axis=1)
    return labels[both].tolist(), counts[both], sums[both], labels[~both].tolist()


def _arm_table(code, n_codes, treated, values):
    """(control, treated) counts and sums of values per stratum code
    0 .. n_codes - 1, as two (n_codes, 2) arrays."""
    cell = code * 2 + treated
    counts = np.bincount(cell, minlength=2 * n_codes).reshape(-1, 2)
    sums = np.bincount(cell, values, 2 * n_codes).reshape(-1, 2)
    return counts, sums


def balance_report(telemetry, assignment) -> dict:
    """Within-bin standardized mean differences per confounder.

    Bins missing an arm are skipped. The summary per confounder is the
    bin-size-weighted mean of the within-bin SMDs. Each confounder is
    read from its telemetry column in place, on the raw scale.
    """
    labels, counts, _, _ = _strata(telemetry, assignment)
    names = _confounder_names(telemetry)
    columns = [_column(telemetry, name) for name in names]
    treated = telemetry.vrh_used
    assignment = np.asarray(assignment)

    per_bin = {}
    for b in labels:
        in_bin = assignment == b
        t = in_bin & treated
        c = in_bin & ~treated
        per_bin[b] = {name: _smd(column[t], column[c]) for name, column in zip(names, columns)}
    weights = counts.sum(axis=1).tolist()
    total = sum(weights)
    summary = {name: sum(per_bin[b][name] * w for b, w in zip(labels, weights)) / total
               if total else float("nan") for name in names}
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
    labels, counts, sums, dropped_bins = _strata(
        telemetry, assignment, telemetry.predicted_inclusive)
    if dropped_bins:
        warnings.warn(
            "dropping strata %s with no treated or no control meetings; "
            "weights renormalized" % dropped_bins, stacklevel=2)
    if not labels:
        raise NoValidStrataError("every stratum lacks a treated or control arm")

    delta, var, diffs = _stratified_delta(counts, sums)
    half = Z_975 * np.sqrt(var)
    per_stratum = tuple((b, n_t, n_c, d)
                        for b, (n_c, n_t), d in zip(labels, counts.tolist(), diffs))
    return ImpactEstimate(float(delta), (float(delta - half), float(delta + half)),
                          per_stratum)


def _stratified_delta(counts, sums):
    """Bin-weighted treated-minus-control outcome difference over strata
    that all hold both arms, from their (control, treated) counts and
    outcome sums; returns (delta, variance, per-stratum differences)."""
    # outcomes are 0/1, so each sum is exact and sum / n is the arm mean
    means = (sums / counts).tolist()
    counts = counts.tolist()
    total = sum(n_c + n_t for n_c, n_t in counts)
    delta = var = 0.0
    diffs = []
    for (n_c, n_t), (p_c, p_t) in zip(counts, means):
        w = (n_t + n_c) / total
        d = p_t - p_c
        delta += w * d
        var += w * w * (p_t * (1 - p_t) / n_t + p_c * (1 - p_c) / n_c)
        diffs.append(d)
    return delta, var, diffs


def naive_difference(telemetry) -> float:
    """Unadjusted treated-minus-control outcome difference, for bias
    comparison in reports."""
    treated = telemetry.vrh_used
    outcome = telemetry.predicted_inclusive
    if not treated.any() or treated.all():
        raise SingleClassTreatmentError("need both treated and control records")
    return float(outcome[treated].mean() - outcome[~treated].mean())


def bootstrap_ci(telemetry, model: PsModel, n_bins: int = 5, n_boot: int = 200,
                 seed: int = 0):
    """Percentile bootstrap (Efron and Tibshirani, 1993) of the full
    fit-stratify-estimate pipeline; returns (lo, hi, resamples used).

    model is fit_propensity(telemetry); other records raise CausalError.
    Each resample takes the columns of the fit's own design,
    model.design, by index, drops the confounders constant within it,
    refits from the model's coefficients (the fit does not
    depend on the scaling), bins the refit's propensities as stratify
    does and estimates as estimate_impact does. It is skipped where
    those would raise CausalError: one treatment class, a singular or
    separable design, non-finite coefficients, too few meetings for
    n_bins, or no stratum holding both arms."""
    _check_fit_records(model, telemetry)
    n = len(telemetry)
    treated = telemetry.vrh_used
    outcome = telemetry.predicted_inclusive
    rng = np.random.default_rng(seed)
    X = np.empty_like(model.design)
    deltas = []
    for _ in range(n_boot):
        rows = rng.integers(0, n, size=n)
        np.take(model.design, rows, axis=1, out=X)
        live, X_live = _live_rows(X)
        try:
            bins = _bins(_newton(X_live, treated[rows], model.coefficients[live])[1], n_bins)
        except CausalError:
            continue  # degenerate resample; skip it
        counts, sums = _arm_table(bins, n_bins, treated[rows], outcome[rows])
        both = counts.all(axis=1)
        if both.any():
            deltas.append(_stratified_delta(counts[both], sums[both])[0])
    if not deltas:
        raise CausalError("all bootstrap resamples were degenerate")
    deltas.sort()
    return (_percentile(deltas, BOOTSTRAP_ALPHA / 2),
            _percentile(deltas, 1 - BOOTSTRAP_ALPHA / 2), len(deltas))


def _percentile(ordered, q):
    """The q-quantile of sorted floats by np.quantile's default linear
    rule, bit for bit: index (n - 1) q, interpolated from the nearer
    neighbour. np.quantile itself imports numpy.ma, which costs
    start-up time and memory."""
    last = len(ordered) - 1
    at = last * q
    if at >= last:
        return ordered[-1]
    i = int(at)
    a, b = ordered[i], ordered[i + 1]
    t = at - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


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
            "coefficients": dict(zip(("intercept",) + model.feature_names,
                                     model.coefficients.tolist())),
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
            "summary": _json_smds(balance["summary"]),
            "per_bin": {str(b): _json_smds(v) for b, v in balance["per_bin"].items()},
        },
    }
    if bootstrap:
        lo, hi, used = bootstrap_ci(eligible, model, n_bins, bootstrap_samples, seed)
        report["bootstrap_ci95"] = [lo, hi]
        report["bootstrap_samples_used"] = used
    return report


def _json_smds(smds: dict) -> dict:
    """SMDs for a strict JSON report: an infinite one, where both arms
    are constant and differ, becomes None (JSON null)."""
    return {name: v if np.isfinite(v) else None for name, v in smds.items()}


def read_telemetry_csv(path) -> Telemetry:
    """Telemetry CSV with the documented columns and one row per
    meeting_id; booleans as 0/1. Any additional columns are carried as
    numeric extras.

    The body is parsed in C by one np.loadtxt pass. A file that pass
    declines goes through the per-cell parse, which accepts the same
    files and names the line of every error."""
    telemetry = _read_telemetry_columns(path)
    return _read_telemetry_cells(path) if telemetry is None else telemetry


# '"' opens a quoted field, which loadtxt does not read; loadtxt strips
# \x1c-\x1f around a number as white space, where int() and float() refuse
_DECLINED_BYTES = tuple(bytes([c]) for c in b'"\x1c\x1d\x1e\x1f')


def _loadtxt_may_differ(path) -> bool:
    """Whether the file holds text that np.loadtxt and the csv module
    read differently: a declined byte, or a line that may hold a field
    past the csv module's size limit."""
    with open(path, "rb") as fh:
        data = fh.read()
    return (any(b in data for b in _DECLINED_BYTES)
            or max(map(len, io.BytesIO(data)), default=0) > csv.field_size_limit())


def _read_telemetry_columns(path):
    """The telemetry as one np.loadtxt pass over the body reads it, or
    None where _read_telemetry_cells might read the file differently:
    loadtxt raises or warns, a boolean cell is not exactly 0 or 1, or a
    meeting_id repeats."""
    if _loadtxt_may_differ(path):
        return None
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            header = _telemetry_header(csv.reader(fh), path)
    except (UnicodeDecodeError, csv.Error):
        return None
    n_base = len(TELEMETRY_COLUMNS)
    # booleans as objects, not a fixed-width string dtype: loadtxt cuts
    # those to their width and drops trailing NULs, so 100 and 1\0 would
    # read 1
    types = (object, np.int64, np.float64) + (object,) * 4
    types += (np.float64,) * (len(header) - n_base)
    dtype = np.dtype([("f%d" % i, t) for i, t in enumerate(types)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a path, not an open file: loadtxt reads an open file line
            # by line, and a path in blocks; no comments, since a
            # meeting_id may start with #
            body = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, ndmin=1,
                              encoding="utf-8", comments=None)
    except (ValueError, OverflowError, Warning):
        return None
    # each field as its own array, so that no strided view keeps the
    # parsed rows alive
    columns = [body[name].copy() for name in dtype.names]
    del body
    for j in range(3, n_base):
        ones = columns[j] == "1"
        if not (ones | (columns[j] == "0")).all():
            return None
        columns[j] = ones
    if len(set(columns[0])) < len(columns[0]):
        return None
    return Telemetry(*columns[:n_base], extras=dict(zip(header[n_base:], columns[n_base:])))


def _telemetry_header(reader, path):
    """The header row of a telemetry csv.reader, checked for the
    documented columns and for repeated names."""
    header = next(reader, None)
    if header is None or tuple(header[: len(TELEMETRY_COLUMNS)]) != TELEMETRY_COLUMNS:
        raise CausalError("%s: expected columns %s" % (path, ",".join(TELEMETRY_COLUMNS)))
    for name in header:
        if header.count(name) > 1:
            raise CausalError("%s: column %r appears more than once" % (path, name))
    return header


def _read_telemetry_cells(path) -> Telemetry:
    """read_telemetry_csv by the csv module and one parser call per
    cell: the reference reader, and the one that words every error."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            reader = csv.reader(fh)
            header = _telemetry_header(reader, path)
            parsers = (str, np.int64, float) + (_parse_bool,) * 4
            parsers += (float,) * (len(header) - len(parsers))
            columns = [[] for _ in header]
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != len(header):
                        raise ValueError("expected %d columns" % len(header))
                    for column, parse, text in zip(columns, parsers, row):
                        column.append(parse(text))
                except (ValueError, OverflowError) as exc:
                    raise CausalError("%s:%d: %s" % (path, reader.line_num, exc)) from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise CausalError("%s: %s" % (path, exc)) from None
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
    write_csv(path, list(TELEMETRY_COLUMNS) + list(telemetry.extras), zip(*columns))
