import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trfkit.errors import PreconditionError
from trfkit.lagged_design import (
    LagSpec,
    build_lagged_csr,
    build_lagged_matrix,
    build_windows_csr,
    lag_range_to_samples,
)
from trfkit.preprocess import EventSeries, FeatureSeries, align_events
from trfkit.tensorio import WordEvent, WordEventSequence


def test_lag_range_standard_window():
    spec = lag_range_to_samples(-0.1, 1.0, 100.0)
    assert spec.lag_samples[0] == -10
    assert spec.lag_samples[-1] == 100
    assert spec.n_lags == 111
    assert spec.lag_samples == list(range(-10, 101))


def test_lag_range_tiny_window():
    assert lag_range_to_samples(0.0, 0.01, 100.0).lag_samples == [0, 1]


def test_lag_range_lower_rate():
    spec = lag_range_to_samples(-0.1, 1.0, 50.0)
    assert spec.lag_samples == list(range(-5, 51))
    assert spec.n_lags == 56


def test_lag_range_rejects_inverted_window():
    with pytest.raises(PreconditionError):
        lag_range_to_samples(0.5, 0.1, 100.0)


def test_lag_spec_times_roundtrip():
    spec = LagSpec(tmin_s=-0.1, tmax_s=1.0, fs_hz=100.0,
                   lag_samples=list(range(-10, 101)))
    times = spec.lag_times_s()
    assert times[0] == pytest.approx(-0.1)
    assert times[-1] == pytest.approx(1.0)
    assert spec.n_lags == 111


def _series(data, fs=100.0):
    return FeatureSeries(data=np.asarray(data, dtype=np.float64), fs_hz=fs)


def _spec(lags, fs=100.0):
    lags = list(lags)
    return LagSpec(
        tmin_s=lags[0] / fs,
        tmax_s=lags[-1] / fs if len(lags) > 1 else lags[0] / fs + 0.25 / fs,
        fs_hz=fs,
        lag_samples=lags,
    )


def test_positive_lag_shifts_forward():
    x = _series([[1.0], [2.0], [3.0]])
    dm = build_lagged_matrix(x, _spec([1]))
    assert np.array_equal(dm.data[:, 0], [0.0, 1.0, 2.0])


def test_negative_lag_shifts_backward():
    x = _series([[1.0], [2.0], [3.0]])
    dm = build_lagged_matrix(x, _spec([-1]))
    assert np.array_equal(dm.data[:, 0], [2.0, 3.0, 0.0])


def test_zero_lag_is_identity():
    x = _series([[1.0], [2.0], [3.0]])
    dm = build_lagged_matrix(x, _spec([0]))
    assert np.array_equal(dm.data[:, 0], [1.0, 2.0, 3.0])


def test_columns_are_feature_major():
    # feature i, lag index l sits at column i * n_lags + l
    x = _series([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    dm = build_lagged_matrix(x, _spec([0, 1]))
    assert dm.data.shape == (3, 4)
    assert np.array_equal(dm.data[:, 0], [1.0, 2.0, 3.0])     # f0, lag 0
    assert np.array_equal(dm.data[:, 1], [0.0, 1.0, 2.0])     # f0, lag 1
    assert np.array_equal(dm.data[:, 2], [10.0, 20.0, 30.0])  # f1, lag 0
    assert np.array_equal(dm.data[:, 3], [0.0, 10.0, 20.0])   # f1, lag 1


def test_zero_input_gives_zero_design():
    x = _series(np.zeros((20, 3)))
    dm = build_lagged_matrix(x, _spec(range(-2, 5)))
    assert not dm.data.any()


def test_lag_beyond_length_gives_zero_column():
    x = _series([[1.0], [2.0]])
    dm = build_lagged_matrix(x, _spec([2, 3]))
    assert np.array_equal(dm.data[:, 0], [0.0, 0.0])
    assert np.array_equal(dm.data[:, 1], [0.0, 0.0])


def test_fs_mismatch_rejected():
    x = _series([[1.0], [2.0]], fs=128.0)
    for build in (build_lagged_matrix, build_lagged_csr):
        with pytest.raises(PreconditionError):
            build(x, _spec([0], fs=100.0))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_csr_design_equals_dense_design(n, d, first_lag, n_lags, density, seed):
    # sparse impulse trains through fully dense series, with lag ranges
    # that reach past either end of the series
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    x[rng.random((n, d)) >= density] = 0.0
    spec = _spec(range(first_lag, first_lag + n_lags))
    sparse = build_lagged_csr(_series(x), spec)
    assert sparse.shape == (n, d * n_lags)
    assert np.array_equal(sparse.toarray(), build_lagged_matrix(_series(x), spec).data)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=5, max_value=30),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.integers(min_value=0, max_value=10_000),
)
def test_lagging_is_linear(n, d, a, b, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, d))
    v = rng.normal(size=(n, d))
    spec = _spec(range(-2, 4))
    left = build_lagged_matrix(_series(a * u + b * v), spec).data
    right = (
        a * build_lagged_matrix(_series(u), spec).data
        + b * build_lagged_matrix(_series(v), spec).data
    )
    assert np.allclose(left, right, atol=1e-9)


def test_design_times_weights_matches_direct_convolution():
    # X @ w must equal the explicit sum over features and lags with
    # zero-padding outside the recording.
    rng = np.random.default_rng(3)
    n, d = 40, 2
    lags = list(range(-3, 8))
    x = rng.normal(size=(n, d))
    w = rng.normal(size=(d, len(lags)))  # w[i, l]

    dm = build_lagged_matrix(_series(x), _spec(lags))
    flat = w.reshape(-1)  # feature-major matches column order
    via_design = dm.data @ flat

    direct = np.zeros(n)
    for t in range(n):
        for i in range(d):
            for li, lag in enumerate(lags):
                src = t - lag
                if 0 <= src < n:
                    direct[t] += w[i, li] * x[src, i]
    assert np.allclose(via_design, direct, atol=1e-10)


def _per_window_reference(windows, spec):
    """Each window's design built on its own, lexsorted into rows, then vstacked."""
    import scipy.sparse

    blocks = []
    for x in windows:
        T, D = x.shape
        L = spec.n_lags
        t, i = np.nonzero(x)
        rows = t[:, None] + np.asarray(spec.lag_samples)
        cols = i[:, None] * L + np.arange(L)
        vals = np.broadcast_to(x[t, i][:, None], rows.shape)
        keep = (rows >= 0) & (rows < T)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((cols, rows))
        indptr = np.zeros(T + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=T), out=indptr[1:])
        blocks.append(scipy.sparse.csr_array((vals[order], cols[order], indptr), shape=(T, D * L)))
    return scipy.sparse.vstack(blocks, format="csr")


_WINDOW_KINDS = st.sampled_from(["empty", "impulse", "sparse", "dense", "events"])


def _event_window(rng, window, d):
    """The middle third of a 3 * window grid of words, as events and as the dense train.

    Words land before, inside and after the window, some on one sample, with
    0.0 and -0.0 components; the dense train sums them as np.add.at does.
    """
    n = 3 * window
    samples = np.sort(np.concatenate(([0, n - 1], rng.integers(n, size=n + 1))))
    vectors = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(samples.size, d))
    words = WordEventSequence(
        [WordEvent(f"w{k}", s / 100.0, v) for k, (s, v) in enumerate(zip(samples, vectors))], dim=d
    )
    dense = np.zeros((n, d))
    np.add.at(dense, samples, vectors)
    return align_events(words, 100.0, n).window(window, window), dense[window : 2 * window]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
    st.lists(st.tuples(_WINDOW_KINDS, st.booleans()), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_one_build_of_a_window_set_equals_per_window_builds_stacked(
    window, d, first_lag, n_lags, kinds, seed
):
    # lags from well before to well past either window edge; each window
    # empty, one impulse, sparse, fully dense or cut from word events; any
    # ordered subset of them
    rng = np.random.default_rng(seed)
    windows = []
    for kind, _ in kinds:
        if kind == "events":
            windows.append(_event_window(rng, window, d))
            continue
        x = np.zeros((window, d))
        if kind == "impulse":
            x[rng.integers(window), rng.integers(d)] = rng.normal()
        elif kind != "empty":
            x[:] = rng.normal(size=(window, d))
            if kind == "sparse":
                x[rng.random((window, d)) >= 0.2] = 0.0
        windows.append((x, x))
    chosen = [w for w, (_, kept) in zip(windows, kinds) if kept] or windows[:1]
    spec = _spec(range(first_lag, first_lag + n_lags))
    got = build_windows_csr([w for w, _ in chosen], spec)
    want = _per_window_reference([x for _, x in chosen], spec)
    assert got.shape == want.shape == (len(chosen) * window, d * n_lags)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize(
    "windows",
    [[], [np.zeros(4)], [np.zeros((4, 2)), np.zeros((3, 2))], [np.zeros((4, 2)), np.zeros((4, 3))]],
    ids=["none", "1-D", "lengths_differ", "features_differ"],
)
def test_windows_build_refuses_windows_that_differ_or_are_not_2d(windows):
    with pytest.raises(PreconditionError):
        build_windows_csr(windows, _spec([0, 1]))


def test_event_windows_at_another_rate_are_refused_as_feature_series_are():
    spec = lag_range_to_samples(0.0, 0.05, 100.0)
    message = "sampling rates differ: series 128.0 vs lag spec 100.0"
    with pytest.raises(PreconditionError, match=message):
        build_lagged_csr(FeatureSeries(np.ones((20, 1)), fs_hz=128.0), spec)
    window = EventSeries(samples=[2, 7], rows=[[1.0], [2.0]], n_samples=20, fs_hz=128.0)
    with pytest.raises(PreconditionError, match=message):
        build_windows_csr([np.ones((20, 1)), window], spec)
    # a dense array carries no rate
    assert build_windows_csr([np.ones((20, 1))], spec).shape == (20, 6)


def test_a_dense_window_set_builds_in_little_more_than_two_designs():
    # CSC arrays and their CSR conversion are two copies; a lexsort of the
    # entries would need about three
    rng = np.random.default_rng(0)
    windows = list(rng.normal(size=(16, 200, 9)))
    spec = lag_range_to_samples(-0.1, 1.0, 100.0)
    build_windows_csr(windows[:1], spec)  # loads scipy before tracing
    tracemalloc.start()
    try:
        X = build_windows_csr(windows, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    assert X.nnz > 0.7 * 16 * 200 * 9 * spec.n_lags  # dense but for the zero padding
    assert peak < 2.2 * result, f"{peak / result:.2f} designs"
