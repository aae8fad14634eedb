import dataclasses
import math
import statistics
from collections import Counter

import numpy as np
import pytest

from conftest import same_telemetry
from talkover.causal import (MIN_PARTICIPANTS, TELEMETRY_COLUMNS, Z_975,
                             Telemetry, _smd, balance_report, bootstrap_ci,
                             estimate_impact, filter_eligible, fit_propensity,
                             naive_difference, predict_ps, read_telemetry_csv,
                             run_impact, stratify, write_telemetry_csv)
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


def test_stratify_validation():
    rng = np.random.default_rng(2)
    records = synth_records(rng, 80)
    model = fit_propensity(records)
    with pytest.raises(CausalError):
        stratify(records, model, n_bins=1)
    with pytest.raises(CausalError):
        stratify(records.take(np.arange(3)), model, n_bins=5)


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


def test_naive_difference_hand_case():
    records = table([record(0, vrh=True, inclusive=True),
                     record(1, vrh=True, inclusive=False),
                     record(2, vrh=False, inclusive=False),
                     record(3, vrh=False, inclusive=False)])
    assert naive_difference(records) == 0.5


def test_bootstrap_ci_smoke():
    rng = np.random.default_rng(8)
    records = synth_records(rng, 250)
    lo, hi, used = bootstrap_ci(records, n_bins=4, n_boot=15, seed=1)
    assert lo <= hi
    assert 0 < used <= 15


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


@pytest.mark.parametrize("duration", ["inf", "1e308"])
def test_fit_rejects_non_finite_or_overflowing_duration(duration):
    rng = np.random.default_rng(12)
    records = synth_records(rng, 300)
    durations = records.duration_min.copy()
    durations[7] = float(duration)
    with pytest.raises(CausalError, match="duration_min"):
        fit_propensity(dataclasses.replace(records, duration_min=durations))
