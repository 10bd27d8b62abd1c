import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trfkit.errors import DegenerateDataError, PreconditionError
from trfkit.preprocess import (
    FeatureSeries,
    impulse_align,
    segment,
    zscore_channels,
    zscore_features,
)
from trfkit.tensorio import EegRecording, WordEvent, WordEventSequence


def _rec(data, fs=100.0):
    data = np.asarray(data, dtype=np.float64)
    names = [f"c{i}" for i in range(data.shape[0])]
    return EegRecording(data=data, fs_hz=fs, channel_names=names, subject_id="s")


def test_zscore_uses_population_std():
    rec = _rec([[1.0, 2.0, 3.0]])
    out = zscore_channels(rec)
    # (x - 2) / sqrt(2/3)
    expected = np.array([[-1.224744871391589, 0.0, 1.224744871391589]])
    assert np.allclose(out.data, expected, atol=1e-15)


def test_zscore_two_samples_give_unit_values():
    out = zscore_channels(_rec([[1.0, 3.0]]))
    assert np.allclose(out.data, [[-1.0, 1.0]])


def test_zscore_is_idempotent():
    rng = np.random.default_rng(7)
    rec = _rec(rng.normal(size=(3, 50)))
    once = zscore_channels(rec)
    twice = zscore_channels(once)
    assert np.allclose(once.data, twice.data, atol=1e-12)


def test_zscore_constant_channel_named():
    rec = _rec([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
    with pytest.raises(DegenerateDataError, match="c1"):
        zscore_channels(rec)


def test_zscore_needs_two_samples():
    with pytest.raises(PreconditionError):
        zscore_channels(_rec([[1.0]]))


def test_zscore_features_matches_channel_logic():
    seq = WordEventSequence(
        events=[
            WordEvent("a", 0.0, np.array([1.0, 10.0])),
            WordEvent("b", 0.1, np.array([2.0, 20.0])),
            WordEvent("c", 0.2, np.array([3.0, 30.0])),
        ],
        dim=2,
    )
    out = zscore_features(seq)
    vecs = out.vectors()
    expected_col = np.array([-1.224744871391589, 0.0, 1.224744871391589])
    assert np.allclose(vecs[:, 0], expected_col, atol=1e-15)
    assert np.allclose(vecs[:, 1], expected_col, atol=1e-15)
    # tokens and onsets untouched
    assert [ev.token for ev in out.events] == ["a", "b", "c"]


def test_zscore_features_constant_dimension_named():
    seq = WordEventSequence(
        events=[
            WordEvent("a", 0.0, np.array([1.0, 4.0])),
            WordEvent("b", 0.1, np.array([1.0, 5.0])),
        ],
        dim=2,
    )
    with pytest.raises(DegenerateDataError, match="0"):
        zscore_features(seq)


def _events(mat):
    return WordEventSequence(
        events=[WordEvent(f"w{i}", 0.1 * i, row) for i, row in enumerate(mat)], dim=mat.shape[1]
    )


def test_zscore_features_survives_a_finite_huge_value():
    # the naive std of this column overflows to inf and zeroes the feature
    mat = np.random.default_rng(3).normal(size=(40, 3))
    mat[7, 1] = 1e308
    vecs = zscore_features(_events(mat)).vectors()
    assert np.all(np.isfinite(vecs))
    assert vecs[:, 1].std() == pytest.approx(1.0, rel=1e-12)
    assert vecs[7, 1] == pytest.approx(np.sqrt(39.0), rel=1e-12)  # one spike among 40 samples


def test_zscore_channels_survives_a_finite_huge_value():
    data = np.random.default_rng(4).normal(size=(3, 100))
    data[2, 5] = -1e308
    out = zscore_channels(_rec(data)).data
    assert np.all(np.isfinite(out))
    assert out[2].std() == pytest.approx(1.0, rel=1e-12)
    assert out[2, 5] == pytest.approx(-np.sqrt(99.0), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-30, 1e-3, 1.0, 7.0, 1e30])
def test_zscore_keeps_the_bits_of_the_plain_formula(scale):
    # the exact power-of-two prescale must not move a bit on ordinary data
    a = np.random.default_rng(5).normal(size=(6, 300)) * scale * np.arange(1, 7)[:, None]
    expected = (a - a.mean(axis=1, keepdims=True)) / a.std(axis=1, keepdims=True)
    assert zscore_channels(_rec(a)).data.tobytes() == expected.tobytes()
    mat = np.ascontiguousarray(a.T)
    expected = (mat - mat.mean(axis=0)) / mat.std(axis=0)
    assert zscore_features(_events(mat)).vectors().tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# impulse alignment


def _seq(pairs, dim=1):
    events = [
        WordEvent(f"w{i}", onset, np.asarray(vec, dtype=np.float64))
        for i, (onset, vec) in enumerate(pairs)
    ]
    return WordEventSequence(events=events, dim=dim)


def test_impulse_rounds_half_up():
    # 0.505 * 100 = 50.5, which lands on sample 51
    seq = _seq([(0.505, [1.0])])
    out = impulse_align(seq, fs_hz=100.0, n_samples=60)
    assert out.data[51, 0] == 1.0
    assert out.data.sum() == 1.0
    assert out.fs_hz == 100.0


def test_impulse_coincident_events_sum():
    seq = _seq([(0.1, [1.0]), (0.1, [2.5])])
    out = impulse_align(seq, fs_hz=100.0, n_samples=20)
    assert out.data[10, 0] == 3.5


def test_impulse_out_of_range_lists_events():
    seq = _seq([(0.1, [1.0]), (5.0, [1.0])])
    with pytest.raises(PreconditionError, match="w1"):
        impulse_align(seq, fs_hz=100.0, n_samples=20)


def test_impulse_out_of_range_list_is_capped_at_ten_events():
    seq = _seq([(0.05, [1.0])] + [(1.0 + k, [1.0]) for k in range(69)])
    with pytest.raises(PreconditionError) as err:
        impulse_align(seq, fs_hz=100.0, n_samples=20)
    message = str(err.value)
    assert message.count("->sample") == 10
    assert "'w10'" in message and "'w11'" not in message
    assert message.endswith(" and 59 more")


def test_impulse_onset_no_sample_index_can_hold_is_named_in_float_notation():
    seq = _seq([(0.05, [1.0]), (1e300, [1.0])])
    with pytest.raises(PreconditionError, match=r"event 1 \('w1'\) .* 1e\+302 samples") as err:
        impulse_align(seq, fs_hz=100.0, n_samples=20)
    assert not any(len(word) > 30 for word in str(err.value).split())


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.9),
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_impulse_conserves_feature_mass(pairs):
    pairs = sorted(pairs, key=lambda p: p[0])
    seq = _seq([(onset, [v]) for onset, v in pairs])
    out = impulse_align(seq, fs_hz=100.0, n_samples=100)
    total = sum(v for _, v in pairs)
    assert np.isclose(out.data.sum(), total, atol=1e-9)


# ---------------------------------------------------------------------------
# segmentation


def _xy(n_samples, fs=100.0, n_features=2, n_channels=3):
    x = FeatureSeries(
        data=np.arange(n_samples * n_features, dtype=np.float64).reshape(
            n_samples, n_features
        ),
        fs_hz=fs,
    )
    y = _rec(np.ones((n_channels, n_samples)), fs=fs)
    return x, y


def test_segment_boundaries_ten_seconds():
    x, y = _xy(1000)
    out = segment(x, y, window_s=2.0, overlap_frac=0.1)
    assert out.window_samples == 200
    assert out.hop_samples == 180
    assert [s.start for s in out.segments] == [0, 180, 360, 540, 720]
    assert all(s.x.shape == (200, 2) for s in out.segments)
    assert all(s.y.shape == (200, 3) for s in out.segments)


def test_segment_trailing_partial_dropped():
    x, y = _xy(999)
    out = segment(x, y, window_s=2.0, overlap_frac=0.1)
    # a sixth window would start at 900 and overrun the 999-sample recording
    assert [s.start for s in out.segments] == [0, 180, 360, 540, 720]


def test_segment_zero_overlap_tiles_exactly():
    x, y = _xy(600)
    out = segment(x, y, window_s=2.0, overlap_frac=0.0)
    assert [s.start for s in out.segments] == [0, 200, 400]


def test_segment_window_longer_than_recording():
    x, y = _xy(100)
    with pytest.raises(PreconditionError):
        segment(x, y, window_s=2.0, overlap_frac=0.1)


def test_segment_overlap_one_rejected():
    x, y = _xy(400)
    with pytest.raises(PreconditionError):
        segment(x, y, window_s=2.0, overlap_frac=1.0)


def test_segment_fs_mismatch_rejected():
    x, _ = _xy(400, fs=100.0)
    _, y = _xy(400, fs=128.0)
    with pytest.raises(PreconditionError):
        segment(x, y, window_s=2.0, overlap_frac=0.1)


def test_segment_length_mismatch_rejected():
    x, _ = _xy(400)
    _, y = _xy(401)
    with pytest.raises(PreconditionError):
        segment(x, y, window_s=2.0, overlap_frac=0.1)


def test_segment_copies_do_not_alias_input():
    x, y = _xy(400)
    out = segment(x, y, window_s=2.0, overlap_frac=0.0)
    out.segments[0].x[:] = -1.0
    assert x.data[0, 0] == 0.0


def test_subset_preserves_geometry():
    x, y = _xy(1000)
    out = segment(x, y, window_s=2.0, overlap_frac=0.1)
    sub = out.subset([0, 2])
    assert [s.start for s in sub.segments] == [0, 360]
    assert sub.window_samples == out.window_samples
    assert sub.channel_names == out.channel_names
