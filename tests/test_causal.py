import csv
import dataclasses
import math
import re
import statistics
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import run_cli, same_telemetry
from talkover import causal, synth
from talkover.causal import (BASE_BOOLEAN, BASE_NUMERIC, MIN_PARTICIPANTS, TELEMETRY_COLUMNS,
                             Z_975, Telemetry, _bins, _design, _percentile,
                             _read_telemetry_cells, _read_telemetry_columns, _sigmoid, _smd,
                             balance_report, bootstrap_ci, estimate_impact,
                             filter_eligible, fit_propensity, naive_difference,
                             predict_ps, read_telemetry_csv, run_impact, stratify,
                             write_telemetry_csv)
from talkover.errors import (CausalError, NoValidStrataError,
                             PerfectSeparationError, SingleClassTreatmentError)


def record(i, pc=5, dur=30.0, video=False, share=False, vrh=False,
           inclusive=False, extras=None):
    """One meeting as a row of field values, for table()."""
    return ("m%05d" % i, pc, dur, video, share, vrh, inclusive, extras or {})


def table(rows):
    """Telemetry holding the record() rows in order; the extras keys
    come from the first row."""
    columns = list(zip(*rows))
    extras = {k: [r[7][k] for r in rows] for k in rows[0][7]}
    return Telemetry(*columns[:7], extras=extras)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def synth_records(rng, n, effect=0.05, confounding=1.5):
    """Meetings where large long meetings both adopt the feature more and
    score as inclusive more, so the naive difference is biased upward."""
    records = []
    for i in range(n):
        pc = int(rng.integers(3, 21))
        dur = float(rng.uniform(10.0, 90.0))
        video = bool(rng.random() < 0.5)
        share = bool(rng.random() < 0.3)
        z_pc = (pc - 11.5) / 5.2
        z_dur = (dur - 50.0) / 23.0
        logit = confounding * (0.8 * z_pc + 0.6 * z_dur) + 0.4 * video - 0.2
        treated = bool(rng.random() < sigmoid(logit))
        base = 0.3 + 0.2 * sigmoid(0.9 * z_pc + 0.5 * z_dur + 0.3 * share)
        outcome = bool(rng.random() < base + effect * treated)
        records.append(record(i, pc, dur, video, share, treated, outcome))
    return table(records)


def masked_sigmoid(z):
    """The logistic function by masked gathers: the oracle _sigmoid keeps."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# exp(-|z|) is subnormal past |z| = 708.4 and 0 past 745.2
SIGMOID_EDGES = [0.0, -0.0, np.nan, np.inf, -np.inf, 708.0, -708.0, 709.0, -709.0,
                 745.0, -745.0, 746.0, -746.0, 1e308, -1e308, 5e-324, -5e-324, 36.7, -36.7]


@settings(max_examples=300, deadline=None)
@given(z=st.lists(st.floats() | st.sampled_from(SIGMOID_EDGES), max_size=64))
def test_sigmoid_matches_masked_gathers_bit_for_bit(z):
    z = np.array(z, dtype=np.float64)
    assert np.array_equal(_sigmoid(z), masked_sigmoid(z), equal_nan=True)


def test_record_validation():
    for bad in (record(1, pc=1), record(1, dur=0.0), record(1, dur=math.nan),
                record(1, dur=math.inf), record(1, extras={"x": math.nan}),
                record(1, extras={"x": math.inf})):
        with pytest.raises(CausalError, match="m00001"):
            table([record(0, extras=dict.fromkeys(bad[7], 0.0)), bad])
    with pytest.raises(CausalError, match="video_used"):
        table([record(0, extras={"video_used": 1.0})])
    table([record(0, pc=2, dur=0.01, extras={"x": -3.0})])  # boundary values are fine


def test_filter_eligible():
    records = table([record(0, pc=2), record(1, pc=3), record(2, pc=2), record(3, pc=12)])
    kept, dropped = filter_eligible(records)
    assert kept.meeting_id.tolist() == ["m00001", "m00003"]
    assert dropped == 2
    assert np.all(kept.participant_count >= MIN_PARTICIPANTS)


def test_take_matches_rebuilt_rows():
    rows = [record(i, pc=3 + i, dur=10.0 + i, video=i % 2 == 0, vrh=i % 3 == 0,
                   extras={"b": float(i), "a": -float(i)}) for i in range(6)]
    idx = np.array([5, 0, 0, 3, 5, 1])
    assert same_telemetry(table(rows).take(idx), table([rows[i] for i in idx]))
    assert list(table(rows).extras) == ["a", "b"]


def test_fit_recovers_known_coefficients():
    rng = np.random.default_rng(3)
    n = 20000
    pc = rng.integers(3, 25, n)
    dur = rng.uniform(5.0, 120.0, n)
    video = rng.random(n) < 0.4
    share = rng.random(n) < 0.25
    # the fit standardizes numeric columns with sample moments, so the
    # ground truth is expressed on that same scale
    z_pc = (pc - pc.mean()) / pc.std()
    z_dur = (dur - dur.mean()) / dur.std()
    true = {"intercept": -0.3, "participant_count": 0.7, "duration_min": -0.5,
            "video_used": 0.9, "screenshare_used": 0.0}
    logit = (true["intercept"] + true["participant_count"] * z_pc
             + true["duration_min"] * z_dur + true["video_used"] * video)
    treated = rng.random(n) < sigmoid(logit)
    records = Telemetry(["m%05d" % i for i in range(n)], pc, dur, video, share,
                        treated, rng.random(n) < 0.5)

    model = fit_propensity(records)
    fitted = dict(zip(("intercept",) + model.feature_names, model.coefficients))
    for name, value in true.items():
        assert abs(fitted[name] - value) < 0.1, name
    assert model.dropped == ()

    ps = predict_ps(model, records)
    assert np.all((ps > 0.0) & (ps < 1.0))
    assert np.max(np.abs(ps - sigmoid(logit))) < 0.05


def test_separable_treatment_raises():
    rng = np.random.default_rng(0)
    records = []
    for i in range(200):
        pc = int(rng.integers(3, 25))
        records.append(record(i, pc, float(rng.uniform(10, 60)),
                              vrh=pc >= 12, inclusive=bool(rng.random() < 0.5)))
    with pytest.raises(PerfectSeparationError):
        fit_propensity(table(records))


def test_impact_exits_8_on_a_propensity_numerically_0_or_1(tmp_path):
    # x is nonzero in meeting 0 only, so the fit drives that meeting's
    # propensity to 0 while every coefficient stays far under
    # PS_COEF_LIMIT: a quasi-separation only the fitted values show
    records = synth_records(np.random.default_rng(21), 120)
    records = dataclasses.replace(records, extras={"x": np.eye(1, 120).ravel()})
    with pytest.raises(PerfectSeparationError, match="numerically 0 or 1"):
        fit_propensity(records)
    path = tmp_path / "telemetry.csv"
    write_telemetry_csv(path, records)
    assert run_cli(["impact", "--telemetry", path, "--out", tmp_path / "o"]) == 8


def test_single_class_treatment_raises():
    records = table([record(i, vrh=True) for i in range(10)])
    with pytest.raises(SingleClassTreatmentError):
        fit_propensity(records)
    with pytest.raises(SingleClassTreatmentError):
        naive_difference(records)


def test_constant_columns_dropped_with_zero_coefficient():
    rng = np.random.default_rng(5)
    records = []
    for i in range(400):
        pc = int(rng.integers(3, 25))
        records.append(record(
            i, pc, float(rng.uniform(10, 60)), video=True,
            share=bool(rng.random() < 0.5),
            vrh=bool(rng.random() < sigmoid((pc - 13) / 5.0)),
            inclusive=bool(rng.random() < 0.5), extras={"year": 5.0}))
    model = fit_propensity(table(records))
    assert set(model.dropped) == {"year", "video_used"}
    names = model.feature_names
    assert model.coefficients[1 + names.index("year")] == 0.0
    assert model.coefficients[1 + names.index("video_used")] == 0.0
    # live columns still carry signal
    assert model.coefficients[1 + names.index("participant_count")] > 0.2


def test_predict_rejects_mismatched_confounders():
    rng = np.random.default_rng(1)
    records = synth_records(rng, 100)
    model = fit_propensity(records)
    with_extras = table([record(i, 5, 30.0, extras={"x": 1.0}) for i in range(3)])
    with pytest.raises(CausalError):
        predict_ps(model, with_extras)


@pytest.mark.parametrize("constant_extra", [False, True])
def test_predict_ps_is_the_fits_converged_propensity_bit_for_bit(monkeypatch, constant_extra):
    # the scores stratify bins are the propensities the fit converged on
    # and checked against PS_EPS, not the same sum in another order
    n = 4000
    telemetry = synth.make_telemetry(n, 1)
    if constant_extra:
        telemetry = dataclasses.replace(telemetry, extras={"year": np.full(n, 5.0)})
    converged = []
    newton = causal._newton

    def spy(XT, y, beta):
        beta, p = newton(XT, y, beta)
        converged.append(_sigmoid(beta @ XT))
        return beta, p
    monkeypatch.setattr(causal, "_newton", spy)
    model = fit_propensity(telemetry)
    assert model.dropped == (("year",) if constant_extra else ())
    assert len(converged) == 1
    assert predict_ps(model, telemetry).tobytes() == converged[0].tobytes()
    assert not model.fitted.flags.writeable
    assert not model.design.flags.writeable


def test_inconsistent_extras_rejected():
    # an extra column that does not cover every meeting
    records = table([record(0), record(1, vrh=True)])
    with pytest.raises(CausalError):
        dataclasses.replace(records, extras={"x": [1.0]})


def test_stratify_bin_sizes_and_order():
    rng = np.random.default_rng(2)
    records = synth_records(rng, 103)
    model = fit_propensity(records)
    assignment = stratify(records, model, n_bins=5)
    sizes = Counter(assignment.tolist())
    assert [sizes[b] for b in range(5)] == [21, 21, 21, 20, 20]
    # lowest propensity scores land in bin 0
    ps = predict_ps(model, records)
    order = np.argsort(ps, kind="stable")
    assert set(np.flatnonzero(assignment == 0).tolist()) == set(order[:21].tolist())
    assert set(np.flatnonzero(assignment == 4).tolist()) == set(order[-20:].tolist())


@pytest.mark.parametrize("n, n_bins", [(2, 2), (7, 3), (10, 10), (41, 4), (103, 5), (103, 9)])
def test_stratify_matches_array_split_chunks(n, n_bins):
    records = synth_records(np.random.default_rng(2), 103)
    model = fit_propensity(records)
    ps = predict_ps(model, records)[:n]
    expected = np.empty(n, dtype=np.int64)
    for b, chunk in enumerate(np.array_split(np.argsort(ps, kind="stable"), n_bins)):
        expected[chunk] = b
    assert np.array_equal(_bins(ps, n_bins), expected)
    if n == len(records):
        assert np.array_equal(stratify(records, model, n_bins), expected)


def test_stratify_validation():
    rng = np.random.default_rng(2)
    records = synth_records(rng, 80)
    model = fit_propensity(records)
    with pytest.raises(CausalError, match="at least 2 bins"):
        stratify(records, model, n_bins=1)
    with pytest.raises(CausalError, match="^3 records cannot fill 5 bins$"):
        _bins(predict_ps(model, records)[:3], 5)


@pytest.mark.parametrize("stage", ["predict_ps", "stratify", "bootstrap_ci"])
def test_fit_stages_take_only_the_records_the_model_was_fit_on(stage):
    # the model keeps the fit's propensities, not a way to score others
    records = synth_records(np.random.default_rng(2), 80)
    model = fit_propensity(records)
    call = {"predict_ps": lambda t: predict_ps(model, t),
            "stratify": lambda t: stratify(t, model, 5),
            "bootstrap_ci": lambda t: bootstrap_ci(t, model, 5, 4)}[stage]
    names = ("participant_count", "duration_min", "video_used", "screenshare_used")
    for other, n in ((records.take(np.arange(40)), 40), (records.take(np.r_[:80, :3]), 83)):
        with pytest.raises(CausalError, match=r"^the model was fit on 80 records with "
                                              r"confounders \[.*\], not on these %d with" % n):
            call(other)
    extra = dataclasses.replace(records, extras={"x": np.zeros(80)})
    with pytest.raises(CausalError, match=re.escape(
            "fit on 80 records with confounders %s, not on these 80 with %s"
            % (list(names), list(names[:2] + ("x",) + names[2:])))):
        call(extra)
    call(records)


def test_smd_cases():
    assert _smd(np.array([2.0, 2.0]), np.array([2.0, 2.0])) == 0.0
    assert _smd(np.array([2.0, 2.0]), np.array([3.0, 3.0])) == float("inf")
    got = _smd(np.array([0.0, 2.0]), np.array([1.0, 3.0]))
    assert math.isclose(got, 1.0 / math.sqrt(2.0), rel_tol=1e-12)
    assert _smd(np.array([5.0]), np.array([5.0])) == 0.0


def test_balance_skips_single_arm_bins():
    records = table([record(0, pc=4, vrh=True), record(1, pc=8, vrh=False),
                     record(2, pc=6, vrh=True), record(3, pc=7, vrh=True)])
    report = balance_report(records, np.array([0, 0, 1, 1]))
    assert list(report["per_bin"]) == [0]
    assert report["summary"]["participant_count"] == \
        report["per_bin"][0]["participant_count"]


def test_stratification_improves_balance():
    rng = np.random.default_rng(11)
    records = synth_records(rng, 4000)
    model = fit_propensity(records)
    assignment = stratify(records, model, n_bins=5)
    report = balance_report(records, assignment)

    treated = records.vrh_used
    for name in ("participant_count", "duration_min"):
        col = getattr(records, name).astype(np.float64)
        naive = _smd(col[treated], col[~treated])
        assert naive > 0.3  # the generator really does confound
        assert report["summary"][name] < 0.5 * naive


def test_estimate_hand_case():
    # bin 0: treated 2/3 vs control 0/2; bin 1: treated 1/1 vs control 2/4
    flags = [(0, True, True), (0, True, True), (0, True, False),
             (0, False, False), (0, False, False),
             (1, True, True), (1, False, True), (1, False, False),
             (1, False, False), (1, False, True)]
    records = table([record(i, vrh=t, inclusive=o) for i, (_, t, o) in enumerate(flags)])
    assignment = np.array([b for b, _, _ in flags])
    est = estimate_impact(records, assignment)
    assert math.isclose(est.delta, 0.5 * (2.0 / 3.0) + 0.5 * 0.5, rel_tol=1e-12)
    assert est.per_stratum == ((0, 3, 2, 2.0 / 3.0), (1, 1, 4, 0.5))
    lo, hi = est.ci95
    assert lo < est.delta < hi


def test_z_literal_is_the_normal_quantile():
    stats = pytest.importorskip("scipy.stats")
    assert Z_975 == float(stats.norm.ppf(0.975))
    assert abs(Z_975 - statistics.NormalDist().inv_cdf(0.975)) <= 1e-15


def test_estimate_order_invariant():
    rng = np.random.default_rng(4)
    records = synth_records(rng, 500)
    model = fit_propensity(records)
    assignment = stratify(records, model, n_bins=5)
    est = estimate_impact(records, assignment)

    perm = rng.permutation(len(records))
    est2 = estimate_impact(records.take(perm), assignment[perm])
    assert math.isclose(est.delta, est2.delta, rel_tol=0, abs_tol=1e-12)


def test_estimate_antisymmetric_in_treatment():
    rng = np.random.default_rng(6)
    records = synth_records(rng, 400)
    model = fit_propensity(records)
    assignment = stratify(records, model, n_bins=4)
    est = estimate_impact(records, assignment)

    flipped = dataclasses.replace(records, vrh_used=~records.vrh_used)
    est2 = estimate_impact(flipped, assignment)
    assert est2.delta == -est.delta
    assert est2.ci95 == (-est.ci95[1], -est.ci95[0])


def test_estimate_drops_single_arm_strata():
    records = table([record(0, vrh=True, inclusive=True),
                     record(1, vrh=True, inclusive=False),
                     record(2, vrh=False, inclusive=False),
                     record(3, vrh=True, inclusive=True),
                     record(4, vrh=True, inclusive=True)])
    assignment = np.array([0, 0, 0, 1, 1])
    with pytest.warns(UserWarning, match="renormalized"):
        est = estimate_impact(records, assignment)
    assert est.per_stratum == ((0, 2, 1, 0.5),)
    assert est.delta == 0.5


def test_estimate_no_valid_strata():
    records = table([record(0, vrh=True), record(1, vrh=True),
                     record(2, vrh=False), record(3, vrh=False)])
    assignment = np.array([0, 0, 1, 1])
    with pytest.warns(UserWarning):
        with pytest.raises(NoValidStrataError):
            estimate_impact(records, assignment)


def test_estimate_length_mismatch():
    with pytest.raises(CausalError):
        estimate_impact(table([record(0)]), np.array([0, 1]))


def stacked_confounders(telemetry):
    """The confounder names and their (n, k) float64 matrix, stacked
    from the columns, for an oracle."""
    names = BASE_NUMERIC + tuple(telemetry.extras) + BASE_BOOLEAN
    columns = [telemetry.extras[name] if name in telemetry.extras
               else getattr(telemetry, name) for name in names]
    return names, np.stack(columns, dtype=np.float64).T


def loop_balance_report(telemetry, assignment):
    """balance_report as one boolean mask per stratum over a stacked
    matrix, for an oracle."""
    names, raw = stacked_confounders(telemetry)
    treated = telemetry.vrh_used
    per_bin, weights = {}, {}
    for b in sorted(set(assignment.tolist())):
        in_bin = assignment == b
        t = in_bin & treated
        c = in_bin & ~treated
        if not t.any() or not c.any():
            continue
        per_bin[b] = {name: _smd(raw[t, j], raw[c, j]) for j, name in enumerate(names)}
        weights[b] = int(in_bin.sum())
    total = sum(weights.values())
    summary = {name: sum(per_bin[b][name] * weights[b] for b in per_bin) / total
               if total else float("nan") for name in names}
    return {"per_bin": per_bin, "summary": summary}


def loop_estimate_impact(telemetry, assignment):
    """estimate_impact as one boolean mask per stratum, for an oracle;
    returns (delta, ci95, per_stratum)."""
    treated = telemetry.vrh_used
    outcome = telemetry.predicted_inclusive.astype(np.float64)
    rows, dropped_bins = [], []
    for b in sorted(set(assignment.tolist())):
        in_bin = assignment == b
        t = in_bin & treated
        c = in_bin & ~treated
        if not t.any() or not c.any():
            dropped_bins.append(int(b))
            continue
        rows.append((int(b), int(t.sum()), int(c.sum()), int(in_bin.sum()),
                     float(outcome[t].mean()), float(outcome[c].mean())))
    if dropped_bins:
        warnings.warn("dropping strata %s with no treated or no control meetings; "
                      "weights renormalized" % dropped_bins)
    if not rows:
        raise NoValidStrataError("every stratum lacks a treated or control arm")
    total = sum(r[3] for r in rows)
    delta, var, per_stratum = 0.0, 0.0, []
    for b, n_t, n_c, n_bin, p_t, p_c in rows:
        w = n_bin / total
        d = p_t - p_c
        delta += w * d
        var += w * w * (p_t * (1 - p_t) / n_t + p_c * (1 - p_c) / n_c)
        per_stratum.append((b, n_t, n_c, d))
    half = Z_975 * np.sqrt(var)
    return float(delta), (float(delta - half), float(delta + half)), tuple(per_stratum)


def outcome_and_warnings(fn, *args):
    """What fn returns or raises, with the warning messages it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except NoValidStrataError as exc:
            result = exc
    return result, [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_strata_table_matches_loop_oracles(data):
    n = data.draw(st.integers(1, 30), label="meetings")
    pool = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6,
                              unique=True), label="stratum labels")
    rows = [record(i, pc=data.draw(st.integers(2, 30)),
                   dur=data.draw(st.floats(0.5, 120.0)),
                   video=data.draw(st.booleans()), share=data.draw(st.booleans()),
                   vrh=data.draw(st.booleans()), inclusive=data.draw(st.booleans()),
                   extras={"x": data.draw(st.floats(-5.0, 5.0))})
            for i in range(n)]
    records = table(rows)
    assignment = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n),
                                    label="assignment"))

    got, got_warned = outcome_and_warnings(estimate_impact, records, assignment)
    want, want_warned = outcome_and_warnings(loop_estimate_impact, records, assignment)
    assert got_warned == want_warned
    if isinstance(want, NoValidStrataError):
        assert isinstance(got, NoValidStrataError)
    else:
        # repr is exact for floats and shows nan and inf
        assert repr((got.delta, got.ci95, got.per_stratum)) == repr(want)

    got_balance = balance_report(records, assignment)
    want_balance = loop_balance_report(records, assignment)
    assert repr(got_balance["per_bin"]) == repr(want_balance["per_bin"])
    assert repr(got_balance["summary"]) == repr(want_balance["summary"])


def test_naive_difference_hand_case():
    records = table([record(0, vrh=True, inclusive=True),
                     record(1, vrh=True, inclusive=False),
                     record(2, vrh=False, inclusive=False),
                     record(3, vrh=False, inclusive=False)])
    assert naive_difference(records) == 0.5


def test_bootstrap_ci_smoke():
    rng = np.random.default_rng(8)
    records = synth_records(rng, 250)
    lo, hi, used = bootstrap_ci(records, fit_propensity(records), n_bins=4, n_boot=15, seed=1)
    assert lo <= hi
    assert 0 < used <= 15


def oracle_bootstrap_ci(telemetry, n_bins=5, n_boot=200, seed=0):
    """bootstrap_ci as a copied table and a fit from zero, standardized
    on the resample, per resample: the oracle the refits keep."""
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
    lo, hi = np.quantile(deltas, [0.025, 0.975])
    return float(lo), float(hi), len(deltas)


def assert_bootstrap_matches_oracle(records, n_bins, n_boot, seed):
    lo, hi, used = bootstrap_ci(records, fit_propensity(records), n_bins, n_boot, seed)
    want_lo, want_hi, want_used = oracle_bootstrap_ci(records, n_bins, n_boot, seed)
    assert used == want_used
    assert abs(lo - want_lo) <= 1e-12 and abs(hi - want_hi) <= 1e-12
    return used


@pytest.mark.parametrize("n_bins", range(2, 11))
def test_bootstrap_matches_per_resample_refit_oracle(n_bins):
    records = synth_records(np.random.default_rng(20 + n_bins), 300)
    assert assert_bootstrap_matches_oracle(records, n_bins, 20, n_bins) == 20


def test_bootstrap_skips_single_class_resamples_as_the_oracle_does():
    # two treated meetings inside a grid of controls, so no resample
    # separates them; a resample draws neither about one time in eight
    rows = [record(i, pc=3 + i % 5, dur=20.0 + 7.0 * (i // 5 % 3), vrh=i in (6, 21),
                   inclusive=i % 3 == 0) for i in range(30)]
    used = assert_bootstrap_matches_oracle(table(rows), 2, 40, 5)
    assert 0 < used < 40


class FixedDraws:
    """Stands in for np.random.default_rng(seed): integers() hands out
    the given resample rows in order."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def integers(self, low, high, size):
        return next(self.draws)


def test_bootstrap_drops_a_confounder_constant_in_the_resample(monkeypatch):
    # x is nonzero in meetings 0 and 1 only, one treated and one not, so
    # it is live in the full-sample fit, which does not separate, and
    # constant, and dropped, in every resample without them. A resample
    # that draws only one of the two lets x fit it exactly, a
    # quasi-separation; so the draws leave both out.
    records = synth_records(np.random.default_rng(21), 120)
    assert records.vrh_used[0] != records.vrh_used[1]
    records = dataclasses.replace(records, extras={"x": (np.arange(120) < 2) * 1.0})
    assert "x" not in fit_propensity(records).dropped
    draws = np.random.default_rng(24).integers(2, 120, size=(30, 120))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedDraws(draws))
    assert assert_bootstrap_matches_oracle(records, 4, 30, 0) == 30


@pytest.mark.parametrize("case", ["one bin per meeting", "one treatment class"])
def test_bootstrap_raises_when_every_resample_is_degenerate(case):
    # 20 meetings, not 12: the full-sample fit of these 12 separates
    n = 20 if case == "one bin per meeting" else 12
    records = synth_records(np.random.default_rng(22), n)
    n_bins = n if case == "one bin per meeting" else 3
    if case == "one treatment class":
        records = dataclasses.replace(records, vrh_used=np.ones(n, dtype=bool))
    with pytest.raises(CausalError, match="all bootstrap resamples were degenerate"):
        oracle_bootstrap_ci(records, n_bins, 10, 0)
    if case == "one treatment class":
        # bootstrap_ci takes the full-sample fit, which raises first
        with pytest.raises(SingleClassTreatmentError):
            fit_propensity(records)
        return
    with pytest.raises(CausalError, match="all bootstrap resamples were degenerate"):
        bootstrap_ci(records, fit_propensity(records), n_bins, 10, 0)


def test_bootstrap_refits_start_from_the_full_sample_fit(monkeypatch):
    records = synth_records(np.random.default_rng(23), 2000)
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    model = fit_propensity(records)
    full_fit = len(solves)
    _, _, used = bootstrap_ci(records, model, n_bins=5, n_boot=20, seed=0)
    # a fit from zero takes 6 or more Newton steps on this generator
    assert full_fit >= 6
    assert (len(solves) - full_fit) / used < 5


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cut_rank_bins_match_stable_argsort_chunks(data):
    n_bins = data.draw(st.integers(2, 10), label="bins")
    pool = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=7, unique=True),
                     label="distinct scores")
    ps = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n_bins, max_size=200),
                            label="scores"))
    expected = np.empty(len(ps), dtype=np.int64)
    for b, chunk in enumerate(np.array_split(np.argsort(ps, kind="stable"), n_bins)):
        expected[chunk] = b
    assert np.array_equal(_bins(ps, n_bins), expected)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, 0.25, -3.5]),
                       min_size=1, max_size=300),
       q=st.floats(0.0, 1.0) | st.sampled_from([0.025, 1 - 0.025]))
def test_percentile_matches_np_quantile_bit_for_bit(values, q):
    assert repr(_percentile(sorted(values), q)) == repr(float(np.quantile(values, q)))


def test_run_impact_report():
    rng = np.random.default_rng(9)
    small = table([record(9000, pc=2), record(9001, pc=2)])
    records = synth_records(rng, 2000)
    records = Telemetry(*(np.r_[getattr(records, c), getattr(small, c)]
                          for c in TELEMETRY_COLUMNS))
    report = run_impact(records, n_bins=5)

    assert report["n_records"] == 2002
    assert report["n_eligible"] == 2000
    assert report["n_excluded_small_meetings"] == 2
    assert report["n_bins"] == 5
    assert report["propensity"]["feature_names"] == [
        "participant_count", "duration_min", "video_used", "screenshare_used"]
    assert "intercept" in report["propensity"]["coefficients"]
    assert report["propensity"]["dropped_constant_columns"] == []
    lo, hi = report["ci95"]
    assert lo <= report["delta"] <= hi
    assert isinstance(report["naive_delta"], float)
    assert len(report["per_stratum"]) == 5
    assert set(report["per_stratum"][0]) == {"bin", "n_treated", "n_control", "delta"}
    assert all(isinstance(k, str) for k in report["balance"]["per_bin"])
    assert set(report["balance"]["summary"]) == set(
        report["propensity"]["feature_names"])


def test_run_impact_with_bootstrap():
    rng = np.random.default_rng(10)
    records = synth_records(rng, 300)
    report = run_impact(records, n_bins=4, bootstrap=True, bootstrap_samples=10)
    assert len(report["bootstrap_ci95"]) == 2
    assert report["bootstrap_samples_used"] <= 10


def test_run_impact_standardizes_one_design_per_record_set(monkeypatch):
    # the fit builds the design the report's propensities come from and
    # the bootstrap resamples it; no later stage builds or rescales one
    calls = Counter()
    design = causal._design

    def counted(telemetry):
        calls["_design"] += 1
        return design(telemetry)
    monkeypatch.setattr(causal, "_design", counted)
    records = synth_records(np.random.default_rng(10), 300)
    run_impact(records, n_bins=4)
    assert calls == {"_design": 1}
    calls.clear()
    run_impact(records, n_bins=4, bootstrap=True, bootstrap_samples=3)
    assert calls == {"_design": 1}
    model = fit_propensity(records)
    calls.clear()
    predict_ps(model, records)
    assignment = stratify(records, model, 4)
    balance_report(records, assignment)
    bootstrap_ci(records, model, 4, 3)
    assert not calls


def test_telemetry_csv_round_trip(tmp_path):
    records = table([record(0, pc=4, dur=30.5, video=True, vrh=True, inclusive=True,
                            extras={"speech_share": 0.25, "az": -2.0}),
                     record(1, pc=7, dur=12.25, share=True,
                            extras={"speech_share": 0.5, "az": 3.0})])
    path = tmp_path / "telemetry.csv"
    write_telemetry_csv(path, records)
    header = path.read_text().splitlines()[0]
    assert header == ("meeting_id,participant_count,duration_min,video_used,"
                      "screenshare_used,vrh_used,predicted_inclusive,az,speech_share")
    assert same_telemetry(read_telemetry_csv(path), records)


def test_telemetry_csv_rejects_bad_input(tmp_path):
    path = tmp_path / "telemetry.csv"
    path.write_text("meeting_id,participants\nm0,4\n")
    with pytest.raises(CausalError):
        read_telemetry_csv(path)

    good = "meeting_id,participant_count,duration_min,video_used,screenshare_used,vrh_used,predicted_inclusive\n"
    path.write_text(good + "m0,4,30.0,yes,0,0,0\n")
    with pytest.raises(CausalError):
        read_telemetry_csv(path)

    path.write_text(good + "m0,4,30.0,0,0,0\n")
    with pytest.raises(CausalError):
        read_telemetry_csv(path)

    path.write_text(good + "m0,99999999999999999999,30.0,1,0,1,1\n")
    with pytest.raises(CausalError, match=":2: .*too large"):
        read_telemetry_csv(path)

    # a quoted line break in row 2 puts row 3 on line 4
    path.write_text(good + '"a\nb",4,30.0,1,0,1,1\nm1,5,20.0,0,1,0,x\n')
    with pytest.raises(CausalError, match=":4: boolean column must be 0 or 1, got 'x'"):
        read_telemetry_csv(path)

    # a fixed-width string dtype would read both of these as 1
    for cell in ("1\0", "100"):
        path.write_text(good + "m0,4,30.0,1,0,1,1\nm1,5,20.0,%s,1,0,0\n" % cell)
        with pytest.raises(CausalError, match=":3: boolean column must be 0 or 1, got %s$"
                                              % re.escape(repr(cell))):
            read_telemetry_csv(path)

    path.write_text(good + "m0,4,30.0,1,0,1,1\n\nm1,5,20.0,0,1,0,0\n")
    assert len(read_telemetry_csv(path)) == 2


GOOD_HEADER = ",".join(TELEMETRY_COLUMNS)


def test_telemetry_csv_rejects_duplicate_extra_column(tmp_path):
    path = tmp_path / "telemetry.csv"
    path.write_text(GOOD_HEADER + ",x,y,x\nm0,4,30.0,1,0,1,1,1,2,3\n")
    with pytest.raises(CausalError, match="'x' appears more than once"):
        read_telemetry_csv(path)


def test_telemetry_csv_rejects_extra_named_like_a_base_column(tmp_path):
    path = tmp_path / "telemetry.csv"
    path.write_text(GOOD_HEADER + ",video_used\nm0,4,30.0,1,0,1,1,0.5\n")
    with pytest.raises(CausalError, match="'video_used' appears more than once"):
        read_telemetry_csv(path)


def test_extra_column_may_not_be_named_intercept(tmp_path):
    # report.json keys the fitted intercept "intercept"; a covariate of
    # that name would overwrite it there
    with pytest.raises(CausalError, match="^extra column 'intercept' is reserved for the "
                                          "fitted intercept$"):
        table([record(0, extras={"intercept": 0.5}), record(1, vrh=True,
                                                            extras={"intercept": 1.5})])
    path = tmp_path / "telemetry.csv"
    path.write_text(GOOD_HEADER + ",intercept\nm0,4,30.0,1,0,1,1,0.5\n")
    with pytest.raises(CausalError, match="'intercept' is reserved"):
        read_telemetry_csv(path)


def test_telemetry_csv_rejects_an_unquoted_field_past_the_csv_limit(tmp_path):
    path = tmp_path / "telemetry.csv"
    path.write_text(GOOD_HEADER + "\nm0,4,30.%s,1,0,1,1\n" % ("0" * csv.field_size_limit()))
    with pytest.raises(CausalError, match="field larger than field limit"):
        read_telemetry_csv(path)


def test_telemetry_csv_rejects_repeated_meeting_id(tmp_path):
    path = tmp_path / "telemetry.csv"
    rows = ["m0,4,30.0,1,0,1,1", "m1,5,20.0,0,1,0,0", "m2,3,10.0,0,0,1,0",
            "m1,5,20.0,0,1,0,0", "m0,4,30.0,1,0,1,1"]
    path.write_text(GOOD_HEADER + "\n" + "\n".join(rows) + "\n")
    # the first id seen twice in file order is named, not the first row's
    with pytest.raises(CausalError, match="meeting_id 'm1' appears more than once"):
        read_telemetry_csv(path)
    path.write_text(GOOD_HEADER + "\n" + "\n".join(rows[:3]) + "\n")
    assert len(read_telemetry_csv(path)) == 3


def test_a_repeated_meeting_id_is_refused_without_the_cell_parse(tmp_path, monkeypatch):
    path = tmp_path / "telemetry.csv"
    rows = ["m0,4,30.0,1,0,1,1", "m1,5,20.0,0,1,0,0", "m2,3,10.0,0,0,1,0", "m1,5,20.0,0,1,0,0"]
    path.write_text(GOOD_HEADER + "\n" + "\n".join(rows) + "\n")
    calls = []
    monkeypatch.setattr(causal, "_read_telemetry_cells", lambda p: calls.append(p))
    with pytest.raises(CausalError) as info:
        read_telemetry_csv(path)
    assert str(info.value) == "%s: meeting_id 'm1' appears more than once" % path
    assert calls == []


@pytest.mark.parametrize("quote", ["", '"'], ids=["column pass", "cell parse"])
def test_ids_that_differ_in_trailing_nuls_are_one_meeting_id(tmp_path, capsys, quote):
    # Telemetry holds meeting_id in a numpy str array, which drops
    # trailing NULs, so a and a\0 would be stored as one id twice
    path = tmp_path / "telemetry.csv"
    rows = ["a,4,30.0,1,0,1,1", "%sa\0%s,5,20.0,0,1,0,0" % (quote, quote),
            "m2,3,10.0,0,0,1,0"]
    path.write_text(GOOD_HEADER + "\n" + "\n".join(rows) + "\n")
    assert causal._loadtxt_may_differ(path) == bool(quote)
    message = "%s: meeting_id 'a' appears more than once" % path
    with pytest.raises(CausalError) as info:
        read_telemetry_csv(path)
    assert str(info.value) == message
    capsys.readouterr()
    assert run_cli(["impact", "--telemetry", path, "--out", tmp_path / "o"]) == 8
    assert capsys.readouterr().err == "error: %s\n" % message


def test_an_undecodable_header_is_refused_without_the_cell_parse(tmp_path, monkeypatch):
    path = tmp_path / "telemetry.csv"
    path.write_bytes(GOOD_HEADER.encode() + b"\xff\nm0,4,30.0,1,0,1,1\n")
    calls = []
    monkeypatch.setattr(causal, "_read_telemetry_cells", lambda p: calls.append(p))
    with pytest.raises(CausalError) as info:
        read_telemetry_csv(path)
    assert str(info.value) == ("%s: 'utf-8' codec can't decode byte 0xff in position 98: "
                               "invalid start byte" % path)
    assert calls == []


def test_write_telemetry_csv_refuses_a_repeated_meeting_id(tmp_path):
    path = tmp_path / "telemetry.csv"
    with pytest.raises(CausalError) as info:
        write_telemetry_csv(path, table([record(0), record(1), record(2), record(1)]))
    assert str(info.value) == "%s: meeting_id 'm00001' appears more than once" % path
    assert not path.exists()


# cells that np.loadtxt and the per-cell parse read differently, or
# that only a per-cell check refuses
ODD_CELLS = {
    "id": ["#x", "m0", "", " m1", "a\0b", "a\u2028b", '"m1"', '"a,b"'],
    "int": ["1_0", "\u0663", "+3", " 3", "3 ", "3.0", "1e3", "", "03", "0x10", "3\x1c",
            "\x1f3", "3\u2003", "3\x85", "99999999999999999999", '"3"'],
    "float": ["1_0", "\u0663", "+3", " 3", "3.0", "1e3", "nan", "Infinity", "", "-0", "1.",
              "3\x1c", "\x1f3", "3\u2003", '"3"'],
    "bool": ["01", "10", "100", "1\0", "\0", "", " 1", "+1", "1.0", "1\x1c", "0", '"1"'],
}
ODD_LINES = ["", " ", "\t", "m9,4"]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_column_read_matches_the_cell_parse(tmp_path_factory, data):
    extras = data.draw(st.lists(st.sampled_from(["a", "b"]), max_size=2, unique=True),
                       label="extras")
    kinds = ["id", "int", "float"] + ["bool"] * 4 + ["float"] * len(extras)
    valid = ["4", "30.5", "1", "0", "1", "0"] + ["0.5"] * len(extras)
    rows = [["m%d" % i] + valid for i in range(data.draw(st.integers(0, 5), label="rows"))]
    for _ in range(data.draw(st.integers(0, 3), label="odd cells") if rows else 0):
        row = data.draw(st.sampled_from(rows), label="row")
        j = data.draw(st.integers(0, len(kinds) - 1), label="column")
        row[j] = data.draw(st.sampled_from(ODD_CELLS[kinds[j]]), label=kinds[j])
    lines = [",".join(TELEMETRY_COLUMNS + tuple(extras))] + [",".join(r) for r in rows]
    for _ in range(data.draw(st.integers(0, 2), label="odd lines")):
        lines.insert(data.draw(st.integers(1, len(lines)), label="at"),
                     data.draw(st.sampled_from(ODD_LINES), label="line"))
    end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="line end")
    text = end.join(lines) + data.draw(st.sampled_from([end, ""]), label="last end")
    path = tmp_path_factory.mktemp("telemetry") / "t.csv"
    path.write_bytes(text.encode())
    try:
        expected = _read_telemetry_cells(path)
    except CausalError as exc:
        with pytest.raises(CausalError) as info:
            read_telemetry_csv(path)
        assert str(info.value) == str(exc)
        event("both raise")
    else:
        assert same_telemetry(read_telemetry_csv(path), expected)
        event("read by %s" % ("cells" if _read_telemetry_columns(path) is None else "column"))


def test_column_read_takes_the_generated_telemetry(tmp_path):
    path, _ = synth.write_telemetry_fixture(tmp_path, n=500, seed=2)
    columns = _read_telemetry_columns(path)
    assert columns is not None
    assert same_telemetry(columns, _read_telemetry_cells(path))


def stacked_design(telemetry):
    """_design as a stacked (n, k) confounder matrix, its column means
    and spreads, then one subtract and one divide into the design, for
    an oracle."""
    names, raw = stacked_confounders(telemetry)
    with np.errstate(over="ignore", invalid="ignore"):
        means, stds = raw.mean(axis=0), raw.std(axis=0)
    boolean = np.isin(names, BASE_BOOLEAN)
    means[boolean], stds[boolean] = 0.0, 1.0
    bad = ~(np.isfinite(means) & np.isfinite(stds))
    if bad.any():
        raise CausalError("column %r has a non-finite mean or spread" % names[np.argmax(bad)])
    stds[stds == 0.0] = 1.0
    XT = np.ones((len(names) + 1, len(telemetry)))
    np.divide(np.subtract(raw.T, means[:, None], out=XT[1:]), stds[:, None], out=XT[1:])
    return names, XT


def assert_designs_as_the_stack(telemetry):
    try:
        names, expected = stacked_design(telemetry)
    except CausalError as exc:
        with pytest.raises(CausalError) as info:
            _design(telemetry)
        assert str(info.value) == str(exc)
        return
    got_names, XT = _design(telemetry)
    assert got_names == names
    assert XT.shape == expected.shape and XT.tobytes() == expected.tobytes()
    for name, row in zip(names, XT[1:]):
        if name in BASE_BOOLEAN:
            assert row.tolist() == getattr(telemetry, name).astype(float).tolist()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_standardize_matches_the_column_loop_bit_for_bit(data):
    n = data.draw(st.integers(1, 400), label="meetings")
    flags = [data.draw(hnp.arrays(bool, n), label=name) for name in TELEMETRY_COLUMNS[3:]]
    extras = {}
    for name in data.draw(st.lists(st.sampled_from(["a", "speech_share", "z"]),
                                   max_size=3, unique=True), label="extras"):
        scale = data.draw(st.sampled_from([1e-300, 1.0, 1e6, 1e150, 1e306]), label=name)
        if data.draw(st.booleans(), label=name + " constant"):
            extras[name] = np.full(n, data.draw(st.floats(-1.0, 1.0)) * scale)
        else:
            extras[name] = data.draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)),
                                     label=name) * scale
    telemetry = Telemetry(
        ["m%d" % i for i in range(n)],
        data.draw(hnp.arrays(np.int64, n, elements=st.integers(2, 10**6)), label="size"),
        data.draw(hnp.arrays(float, n, elements=st.floats(1e-3, 1e4)), label="duration"),
        *flags, extras=extras)
    assert_designs_as_the_stack(telemetry)


def test_standardize_names_the_first_column_that_overflows():
    rng = np.random.default_rng(3)
    huge = np.array([1.7e308, 1.7e308, -1.7e308, 1.7e308])
    telemetry = table([record(i, vrh=bool(i % 2)) for i in range(4)])
    telemetry = dataclasses.replace(telemetry, extras={"a": rng.normal(size=4), "b": huge,
                                                       "c": huge})
    assert_designs_as_the_stack(telemetry)
    with pytest.raises(CausalError, match="^column 'b' has a non-finite mean or spread$"):
        fit_propensity(telemetry)


@pytest.mark.parametrize("duration", ["inf", "1e308"])
def test_fit_rejects_non_finite_or_overflowing_duration(duration):
    rng = np.random.default_rng(12)
    records = synth_records(rng, 300)
    durations = records.duration_min.copy()
    durations[7] = float(duration)
    with pytest.raises(CausalError, match="duration_min"):
        fit_propensity(dataclasses.replace(records, duration_min=durations))
