import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trfkit.errors import DegenerateDataError, NumericalError, PreconditionError, ValidationError
from trfkit.lagged_design import LagSpec, build_lagged_matrix
from trfkit.preprocess import FeatureSeries, Segment, SegmentSet
from trfkit.ridge_trf import TrfModel
from trfkit.stats_eval import (
    ChannelScore,
    EvaluationReport,
    evaluate_subject,
    fisher_combine,
    group_report,
    mean_channel_r,
    pearson_r,
    r_to_p,
    topo_report,
    write_topo_csv,
)
from trfkit.tensorio import ChannelLayout, LayoutEntry


# ---------------------------------------------------------------------------
# pearson_r


def test_pearson_known_value():
    assert pearson_r([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)


def test_pearson_perfect_correlation_is_exactly_one():
    x = np.array([0.1, 0.7, -2.3, 4.5, 1.1])
    assert pearson_r(x, x) == 1.0
    assert pearson_r(x, -x) == -1.0


def test_pearson_constant_series_rejected():
    with pytest.raises(DegenerateDataError):
        pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_pearson_non_finite_input_raises():
    with pytest.raises(NumericalError):
        pearson_r([np.nan, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 5.0])


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_pearson_extreme_scale_is_exact(scale):
    # sums of squares of the raw series overflow (1e200) or underflow (1e-200)
    x = np.array([1.0, 2.0, 3.0, 5.0]) * scale
    y = np.array([1.0, 2.0, 3.0, 5.0])
    assert pearson_r(x, y) == pytest.approx(1.0, abs=1e-15)
    assert pearson_r(-x, y) == pytest.approx(-1.0, abs=1e-15)
    assert mean_channel_r(np.c_[x, -x], np.c_[y, -y]) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("scale", [1e308, 1e-308])
def test_pearson_near_float_limits(scale):
    # at 1e308 the column sum behind the mean overflows; at 1e-308 the
    # entries are subnormal
    x = np.array([1.7, 1.7, 1.7, 1.6]) * scale
    y = np.array([1.0, 1.0, 1.0, 0.0])
    assert pearson_r(x, y) == pytest.approx(1.0, abs=1e-15)
    assert pearson_r(y, -x) == pytest.approx(-1.0, abs=1e-15)
    assert mean_channel_r(np.c_[x, -x], np.c_[y, -y]) == pytest.approx(1.0, abs=1e-15)


def test_pearson_needs_three_samples():
    with pytest.raises(PreconditionError):
        pearson_r([1.0, 2.0], [3.0, 4.0])


def test_pearson_length_mismatch_rejected():
    with pytest.raises(PreconditionError):
        pearson_r([1.0, 2.0, 3.0], [1.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_pearson_invariant_under_positive_affine_maps(seed, scale, shift):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    base = pearson_r(x, y)
    assert pearson_r(scale * x + shift, y) == pytest.approx(base, abs=1e-9)
    assert pearson_r(x, scale * y + shift) == pytest.approx(base, abs=1e-9)
    assert pearson_r(-x, y) == pytest.approx(-base, abs=1e-9)


# ---------------------------------------------------------------------------
# r_to_p


def test_r_to_p_known_value():
    assert r_to_p(0.8, 4) == pytest.approx(0.2, abs=1e-9)


def test_r_to_p_zero_correlation_is_one():
    assert r_to_p(0.0, 100) == pytest.approx(1.0, abs=1e-12)


def test_r_to_p_unit_correlation_is_tiny_not_zero():
    p = r_to_p(1.0, 10)
    assert 0.0 < p < 1e-300
    assert r_to_p(-1.0, 10) == p


def test_r_to_p_monotone_in_strength_and_samples():
    assert r_to_p(0.9, 20) < r_to_p(0.5, 20)
    assert r_to_p(0.5, 200) < r_to_p(0.5, 20)
    assert r_to_p(-0.5, 20) == pytest.approx(r_to_p(0.5, 20), abs=1e-15)


def test_r_to_p_domain_checks():
    with pytest.raises(PreconditionError):
        r_to_p(1.5, 10)
    with pytest.raises(PreconditionError):
        r_to_p(0.5, 2)


# ---------------------------------------------------------------------------
# fisher_combine


def test_fisher_single_p_statistic_identity():
    stat, df, p = fisher_combine([0.05])
    assert stat == pytest.approx(-2.0 * math.log(0.05), abs=1e-12)
    assert df == 2
    assert p == pytest.approx(0.05, abs=1e-12)


def test_fisher_two_equal_ps_against_closed_form():
    stat, df, p = fisher_combine([0.05, 0.05])
    assert df == 4
    # chi-square survival with 4 df has the closed form e^(-x/2) (1 + x/2)
    expected = math.exp(-stat / 2.0) * (1.0 + stat / 2.0)
    assert p == pytest.approx(expected, abs=1e-12)
    assert p == pytest.approx(0.017478661367769956, abs=1e-12)


def test_fisher_is_order_invariant():
    ps = [0.3, 0.01, 0.7, 0.2]
    a = fisher_combine(ps)
    b = fisher_combine(list(reversed(ps)))
    assert a == b


def test_fisher_rejects_out_of_range_ps():
    with pytest.raises(PreconditionError):
        fisher_combine([])
    with pytest.raises(PreconditionError):
        fisher_combine([0.0])
    with pytest.raises(PreconditionError):
        fisher_combine([0.5, 1.2])


def test_fisher_more_evidence_means_smaller_p():
    _, _, one = fisher_combine([0.05])
    _, _, two = fisher_combine([0.05, 0.05])
    _, _, three = fisher_combine([0.05, 0.05, 0.05])
    assert three < two < one


# ---------------------------------------------------------------------------
# subject evaluation


def _lag_spec(lags, fs=100.0):
    lags = list(lags)
    tmax = lags[-1] / fs if len(lags) > 1 else lags[0] / fs + 0.25 / fs
    return LagSpec(tmin_s=lags[0] / fs, tmax_s=tmax, fs_hz=fs, lag_samples=lags)


def _make_eval_setup(seed=0, n_segments=4, n=120, d=2, e=2, noise=0.0):
    rng = np.random.default_rng(seed)
    fs = 100.0
    spec = _lag_spec(range(0, 5), fs=fs)
    L = spec.n_lags
    kernel = rng.normal(size=(L, e, d))
    model = TrfModel(kernel=kernel, lag_spec=spec,
                     channel_names=[f"c{j}" for j in range(e)], lam=0.1)
    W = kernel.transpose(2, 0, 1).reshape(d * L, e)
    segments = []
    for k in range(n_segments):
        x = rng.normal(size=(n, d))
        dm = build_lagged_matrix(FeatureSeries(data=x, fs_hz=fs), spec)
        y = dm.data @ W + noise * rng.normal(size=(n, e))
        segments.append(Segment(x=x, y=y, start=k * n))
    segs = SegmentSet(segments=segments, window_samples=n, hop_samples=n,
                      fs_hz=fs, channel_names=list(model.channel_names))
    return model, segs


def test_perfect_predictions_score_one():
    model, segs = _make_eval_setup(noise=0.0)
    report = evaluate_subject(model, segs, model.lag_spec, subject_id="s01")
    assert report.subject_id == "s01"
    assert report.n_samples == 4 * 120
    assert len(report.channels) == 2
    for ch in report.channels:
        assert ch.r == 1.0
        assert ch.p < 1e-300
    assert report.mean_r == 1.0


def test_noise_lowers_scores_but_keeps_order():
    model, segs = _make_eval_setup(noise=2.0, seed=5)
    report = evaluate_subject(model, segs, model.lag_spec, subject_id="s")
    assert all(0.0 < ch.r < 1.0 for ch in report.channels)
    assert report.mean_r == pytest.approx(
        np.mean([ch.r for ch in report.channels]), abs=1e-12
    )


def test_evaluate_rejects_channel_mismatch():
    model, segs = _make_eval_setup()
    segs.channel_names[0] = "other"
    with pytest.raises(PreconditionError):
        evaluate_subject(model, segs, model.lag_spec, subject_id="s")


def test_evaluate_rejects_empty_segment_set():
    model, segs = _make_eval_setup()
    with pytest.raises(PreconditionError):
        evaluate_subject(model, segs.subset([]), model.lag_spec, subject_id="s")


def test_evaluation_report_json_shape():
    model, segs = _make_eval_setup(noise=1.0)
    report = evaluate_subject(model, segs, model.lag_spec, subject_id="s01")
    blob = report.to_json()
    assert set(blob) == {"subject_id", "mean_r", "channels"}
    assert all(set(c) == {"name", "r", "p"} for c in blob["channels"])


def test_mean_channel_r_averages_columns():
    rng = np.random.default_rng(11)
    y = rng.normal(size=(50, 3))
    pred = y + 0.1 * rng.normal(size=(50, 3))
    per_channel = [pearson_r(pred[:, e], y[:, e]) for e in range(3)]
    assert mean_channel_r(pred, y) == pytest.approx(np.mean(per_channel), abs=1e-12)


# ---------------------------------------------------------------------------
# group aggregation


def _report(subject_id, mean_r, n=500, rs=None):
    rs = rs if rs is not None else [mean_r]
    channels = [ChannelScore(channel=f"c{i}", r=r, p=r_to_p(r, n))
                for i, r in enumerate(rs)]
    return EvaluationReport(subject_id=subject_id, channels=channels,
                            mean_r=mean_r, n_samples=n)


def test_group_single_subject_pools_to_own_mean():
    rep = _report("s01", 0.4)
    group = group_report([rep])
    assert group.pooled_r == pytest.approx(0.4, abs=1e-12)
    assert group.fisher_df == 2
    assert group.fisher_p == pytest.approx(rep.subject_p(), abs=1e-12)


def test_group_pools_through_fisher_z():
    reps = [_report("a", 0.2), _report("b", 0.6)]
    group = group_report(reps)
    expected = math.tanh((math.atanh(0.2) + math.atanh(0.6)) / 2.0)
    assert group.pooled_r == pytest.approx(expected, abs=1e-12)
    assert group.fisher_df == 4


def test_group_handles_perfect_correlation():
    group = group_report([_report("a", 1.0), _report("b", 0.5)])
    assert np.isfinite(group.pooled_r)
    assert 0.5 < group.pooled_r <= 1.0
    assert group.fisher_p > 0.0


def test_group_requires_subjects():
    with pytest.raises(PreconditionError):
        group_report([])


def test_group_json_shape():
    blob = group_report([_report("a", 0.3)]).to_json()
    assert set(blob) == {"subjects", "pooled_r", "fisher"}
    assert set(blob["fisher"]) == {"statistic", "df", "p"}


# ---------------------------------------------------------------------------
# topographies


def _layout(names):
    return ChannelLayout(
        entries=[LayoutEntry(n, float(i), -float(i)) for i, n in enumerate(names)]
    )


def test_topo_rows_follow_layout_order():
    rep = _report("s", 0.3, rs=[0.1, 0.2, 0.3])
    layout = _layout(["c2", "c0", "c1"])
    rows = topo_report(rep, layout)
    assert [r.channel for r in rows] == ["c2", "c0", "c1"]
    assert rows[0].r == 0.3
    assert rows[0].x == 0.0


def test_topo_skips_layout_channels_without_scores():
    rep = _report("s", 0.15, rs=[0.1, 0.2])
    layout = _layout(["c0", "c1", "extra"])
    rows = topo_report(rep, layout)
    assert [r.channel for r in rows] == ["c0", "c1"]


def test_topo_missing_layout_entry_is_an_error():
    rep = _report("s", 0.15, rs=[0.1, 0.2])
    layout = _layout(["c0"])
    with pytest.raises(ValidationError, match="c1"):
        topo_report(rep, layout)


def test_topo_csv_format(tmp_path):
    rep = _report("s", 0.1, rs=[0.1])
    rows = topo_report(rep, _layout(["c0"]))
    path = tmp_path / "topo.csv"
    write_topo_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "channel,x,y,r,p"
    assert lines[1].startswith("c0,0.0,-0.0,0.1,")
