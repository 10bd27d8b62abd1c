from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trfkit.errors import (
    DegenerateDataError,
    DivergenceError,
    NumericalError,
    PreconditionError,
    SingularSystemError,
    ValidationError,
)
from trfkit.lagged_design import LagSpec, build_lagged_csr, build_lagged_matrix
from trfkit.preprocess import FeatureSeries, Segment, SegmentSet
from trfkit.ridge_trf import (
    CvReport,
    _ridge_path,
    _solve_gram,
    IterativeOptions,
    TrfModel,
    cross_validate,
    fit_iterative,
    fit_trf,
    flatten_trf,
    make_lambda_grid,
    pick_best_lambda,
    predict,
    read_trf,
    reshape_trf,
    ridge_closed_form,
    write_trf,
)
from trfkit.stats_eval import mean_channel_r
from trfkit.tensorio import write_tensor


# ---------------------------------------------------------------------------
# lambda grid


def test_grid_has_exact_endpoints():
    grid = make_lambda_grid(1e-3, 1e5, 10)
    assert len(grid) == 10
    assert grid[0] == 1e-3
    assert grid[-1] == 1e5
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_grid_is_log_spaced():
    grid = make_lambda_grid(1e-3, 1e5, 10)
    # second point: 10 ** (-3 + 8/9)
    assert grid[1] == pytest.approx(10.0 ** (-3.0 + 8.0 / 9.0), rel=1e-12)
    ratios = np.diff(np.log10(grid))
    assert np.allclose(ratios, ratios[0], atol=1e-12)


def test_grid_rejects_bad_bounds():
    with pytest.raises(PreconditionError):
        make_lambda_grid(0.0, 1e5, 10)
    with pytest.raises(PreconditionError):
        make_lambda_grid(1e2, 1e1, 10)
    with pytest.raises(PreconditionError):
        make_lambda_grid(1e-3, 1e5, 1)


def test_pick_best_lambda_breaks_ties_upward():
    grid = [0.1, 1.0, 10.0]
    scores = np.array([0.5, 0.7, 0.7])
    assert pick_best_lambda(grid, scores) == 10.0
    scores = np.array([0.7, 0.5, 0.5])
    assert pick_best_lambda(grid, scores) == 0.1


def test_pick_best_lambda_rejects_empty_or_mismatched_input():
    with pytest.raises(PreconditionError, match="empty"):
        pick_best_lambda([], [])
    with pytest.raises(PreconditionError, match="2 scores for 3 penalties"):
        pick_best_lambda([0.1, 1.0, 10.0], [0.5, 0.7])
    with pytest.raises(PreconditionError, match="2 scores for 1 penalties"):
        pick_best_lambda([0.1], [0.5, 0.7])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pick_best_lambda_names_non_finite_score(bad):
    with pytest.raises(NumericalError, match="lambda = 1 is not finite"):
        pick_best_lambda([0.1, 1.0, 10.0], [0.5, bad, 0.7])
    with pytest.raises(NumericalError, match="lambda = 0.1 is not finite"):
        pick_best_lambda([0.1, 1.0], [bad, bad])


# ---------------------------------------------------------------------------
# closed form


def test_identity_design_shrinks_halfway():
    X = np.eye(2)
    Y = np.array([[1.0], [2.0]])
    W = ridge_closed_form(X, Y, lam=1.0)
    assert np.allclose(W, [[0.5], [1.0]], atol=1e-12)


def test_lambda_zero_on_full_rank_is_least_squares():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    W_true = rng.normal(size=(4, 2))
    Y = X @ W_true
    W = ridge_closed_form(X, Y, lam=0.0)
    assert np.allclose(W, W_true, atol=1e-8)


def test_huge_lambda_crushes_weights():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 5))
    Y = rng.normal(size=(60, 2))
    W = ridge_closed_form(X, Y, lam=1e12)
    assert np.linalg.norm(W) <= 1e-6 * np.linalg.norm(X.T @ Y)


def test_shrinkage_is_monotone_in_lambda():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(80, 6))
    Y = rng.normal(size=(80, 3))
    norms = [
        np.linalg.norm(ridge_closed_form(X, Y, lam=lam))
        for lam in make_lambda_grid(1e-3, 1e5, 10)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_singular_at_lambda_zero_raises_named_error():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # rank 1
    Y = np.array([[1.0], [2.0], [3.0]])
    with pytest.raises(SingularSystemError):
        ridge_closed_form(X, Y, lam=0.0)
    # any positive ridge regularizes the same system
    W = ridge_closed_form(X, Y, lam=1e-6)
    assert np.all(np.isfinite(W))


def test_normal_equations_hold_at_solution():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 8))
    Y = rng.normal(size=(50, 3))
    for lam in (1e-3, 1.0, 1e3):
        W = ridge_closed_form(X, Y, lam=lam)
        resid = X.T @ (X @ W) + lam * W - X.T @ Y
        assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(X.T @ Y), 1.0)


def test_channels_solve_independently():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 5))
    Y = rng.normal(size=(40, 3))
    joint = ridge_closed_form(X, Y, lam=0.5)
    for e in range(3):
        single = ridge_closed_form(X, Y[:, e], lam=0.5)
        assert np.allclose(joint[:, e], single[:, 0], atol=1e-12)


def test_one_dim_target_accepted():
    X = np.eye(3)
    W = ridge_closed_form(X, np.array([3.0, 6.0, 9.0]), lam=2.0)
    assert W.shape == (3, 1)
    assert np.allclose(W[:, 0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# penalty path (one tridiagonal reduction for a whole grid)

_sizes = dict(
    P=st.integers(min_value=1, max_value=40),
    E=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
_grids = st.lists(st.floats(min_value=1e-3, max_value=1e4), min_size=1, max_size=20)


def _gram_problem(P, E, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(P + 5, P))
    return A, rng.normal(size=(P, E))


@settings(max_examples=80, deadline=None)
@given(grid=_grids, **_sizes)
def test_ridge_path_matches_per_lambda_cholesky(P, E, seed, grid):
    A, H = _gram_problem(P, E, seed)
    G = A.T @ A
    W = _ridge_path(G.copy(), H, grid)  # the helper overwrites its Gram
    assert W.shape == (P, len(grid) * E)
    for gi, lam in enumerate(grid):
        ref = _solve_gram(G, H, lam)
        assert np.max(np.abs(W[:, gi * E : (gi + 1) * E] - ref)) <= 1e-10 * np.max(np.abs(ref))


@settings(max_examples=40, deadline=None)
@given(row=st.floats(min_value=0.0, max_value=1.0, exclude_max=True), **_sizes)
def test_ridge_path_zero_row_is_singular_at_lambda_zero(P, E, seed, row):
    A, H = _gram_problem(P, E, seed)
    A[:, int(row * P)] = 0.0
    G = A.T @ A
    with pytest.raises(SingularSystemError):
        _ridge_path(G.copy(), H, [1.0, 0.0])
    assert np.all(np.isfinite(_ridge_path(G.copy(), H, [1.0])))


@settings(max_examples=40, deadline=None)
@given(grid=_grids, **_sizes)
def test_ridge_path_indefinite_gram_raises_numerical_error(P, E, seed, grid):
    A, H = _gram_problem(P, E, seed)
    Q = np.linalg.qr(A[:P])[0]
    eigs = np.linspace(1.0, 10.0, P)
    eigs[len(eigs) // 2] = -(max(grid) + 1.0)  # stays negative at every penalty
    with pytest.raises(NumericalError):
        _ridge_path((Q * eigs) @ Q.T, H, grid)


# ---------------------------------------------------------------------------
# iterative solver


def _standardized_problem(seed, n=200, p=10, e=2, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    W_true = rng.normal(size=(p, e))
    Y = X @ W_true + noise * rng.normal(size=(n, e))
    Y = (Y - Y.mean(axis=0)) / Y.std(axis=0)
    return X, Y


def test_iterative_matches_closed_form():
    X, Y = _standardized_problem(0, n=500, p=50, noise=0.02)
    closed = ridge_closed_form(X, Y, lam=1.0)
    fit = fit_iterative(
        X, Y, lam=1.0, lr=1e-4, batch_size=64, tol=1e-12,
        max_epochs=20_000, seed=0,
    )
    assert np.max(np.abs(fit.weights - closed)) <= 1e-3
    assert fit.stop_reason == "tol"


def test_iterative_is_deterministic():
    X, Y = _standardized_problem(1)
    kwargs = dict(lam=0.5, lr=1e-3, batch_size=32, tol=1e-10,
                  max_epochs=500, seed=42)
    a = fit_iterative(X, Y, **kwargs)
    b = fit_iterative(X, Y, **kwargs)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.epochs == b.epochs
    assert a.stop_reason == b.stop_reason


def test_iterative_seed_changes_path():
    X, Y = _standardized_problem(2)
    a = fit_iterative(X, Y, lam=0.5, lr=1e-3, batch_size=32, tol=0.0,
                      max_epochs=3, seed=0)
    b = fit_iterative(X, Y, lam=0.5, lr=1e-3, batch_size=32, tol=0.0,
                      max_epochs=3, seed=1)
    assert not np.array_equal(a.weights, b.weights)


def test_iterative_divergence_raises_after_five_growth_epochs():
    X, Y = _standardized_problem(3)
    with pytest.raises(DivergenceError, match="learning rate"):
        fit_iterative(X, Y, lam=1.0, lr=1e6, batch_size=64, tol=1e-10,
                      max_epochs=100, seed=0)


def test_iterative_max_epochs_stop_reported():
    X, Y = _standardized_problem(4)
    fit = fit_iterative(X, Y, lam=1.0, lr=1e-5, batch_size=64, tol=0.0,
                        max_epochs=5, seed=0)
    assert fit.stop_reason == "max_epochs"
    assert fit.epochs == 5


# ---------------------------------------------------------------------------
# kernel reshaping and prediction


def _lag_spec(lags, fs=100.0):
    lags = list(lags)
    tmax = lags[-1] / fs if len(lags) > 1 else lags[0] / fs + 0.25 / fs
    return LagSpec(tmin_s=lags[0] / fs, tmax_s=tmax, fs_hz=fs, lag_samples=lags)


def test_reshape_and_flatten_are_inverse():
    rng = np.random.default_rng(5)
    d, L, e = 3, 7, 2
    W = rng.normal(size=(d * L, e))
    spec = _lag_spec(range(-2, 5))
    model = reshape_trf(W, spec, n_features=d,
                        channel_names=["a", "b"], lam=0.1)
    assert model.kernel.shape == (L, e, d)
    # column i * L + l of the flat weights is kernel[l, :, i]
    for i in range(d):
        for li in range(L):
            assert np.array_equal(model.kernel[li, :, i], W[i * L + li, :])
    assert np.array_equal(flatten_trf(model), W)


def test_reshape_rejects_wrong_row_count():
    spec = _lag_spec(range(0, 3))
    with pytest.raises(PreconditionError):
        reshape_trf(np.zeros((7, 1)), spec, n_features=2,
                    channel_names=["a"], lam=0.0)


def test_predict_is_matrix_product():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 6))
    W = rng.normal(size=(6, 2))
    assert np.array_equal(predict(W, X), X @ W)


def test_predict_rejects_width_mismatch():
    with pytest.raises(PreconditionError):
        predict(np.zeros((4, 1)), np.zeros((10, 3)))


def test_predict_on_csr_design_matches_dense_design():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, 3))
    x[rng.random(x.shape) >= 0.2] = 0.0
    series = FeatureSeries(data=x, fs_hz=100.0)
    spec = _lag_spec(range(-2, 5))
    W = rng.normal(size=(3 * spec.n_lags, 2))
    dense = build_lagged_matrix(series, spec)
    sparse = build_lagged_csr(series, spec)
    got = predict(W, sparse)
    assert isinstance(got, np.ndarray) and got.shape == (60, 2)
    # the two products sum the same terms in different orders
    bound = W.shape[0] * np.finfo(np.float64).eps * (np.abs(dense.data) @ np.abs(W))
    assert np.all(np.abs(got - predict(W, dense)) <= bound)
    with pytest.raises(PreconditionError):
        predict(W[:-1], sparse)


# ---------------------------------------------------------------------------
# cross-validation


def _segments(seed=0, n_segments=12, n=80, d=2, e=2, fs=100.0, lags=(0, 4), density=1.0):
    rng = np.random.default_rng(seed)
    spec = _lag_spec(range(lags[0], lags[1] + 1), fs=fs)
    L = spec.n_lags
    W = rng.normal(size=(d * L, e))
    segments = []
    for k in range(n_segments):
        x = rng.normal(size=(n, d))
        if density < 1.0:  # impulse trains: most samples are zero
            x[rng.random((n, d)) >= density] = 0.0
        dm = build_lagged_matrix(FeatureSeries(data=x, fs_hz=fs), spec)
        y = dm.data @ W + 0.5 * rng.normal(size=(n, e))
        segments.append(Segment(x=x, y=y, start=k * n))
    return (
        SegmentSet(
            segments=segments,
            window_samples=n,
            hop_samples=n,
            fs_hz=fs,
            channel_names=[f"c{j}" for j in range(e)],
        ),
        spec,
    )


def test_cv_report_geometry_and_determinism():
    segs, spec = _segments()
    grid = make_lambda_grid(1e-2, 1e2, 5)
    rep1 = cross_validate(segs, spec, grid, k=4, solver="closed_form")
    rep2 = cross_validate(segs, spec, grid, k=4, solver="closed_form")
    assert isinstance(rep1, CvReport)
    assert rep1.per_lambda_scores.shape == (5, 4)
    assert rep1.grid == grid
    assert rep1.best_lambda in grid
    assert np.array_equal(rep1.per_lambda_scores, rep2.per_lambda_scores)
    assert rep1.fold_assignment == rep2.fold_assignment
    assert rep1.best_lambda == rep2.best_lambda


def test_cv_folds_are_contiguous_blocks():
    segs, spec = _segments(n_segments=10)
    rep = cross_validate(segs, spec, [1.0, 10.0], k=4,
                         solver="closed_form")
    fold = rep.fold_assignment
    assert len(fold) == 10
    assert fold == sorted(fold)
    sizes = [fold.count(f) for f in sorted(set(fold))]
    assert max(sizes) - min(sizes) <= 1


def test_cv_single_lambda_grid_is_allowed():
    segs, spec = _segments(n_segments=8)
    rep = cross_validate(segs, spec, [3.0], k=4, solver="closed_form")
    assert rep.best_lambda == 3.0


def test_cv_rejects_too_few_segments_or_folds():
    segs, spec = _segments(n_segments=3)
    with pytest.raises(PreconditionError):
        cross_validate(segs, spec, [1.0], k=4, solver="closed_form")
    with pytest.raises(PreconditionError):
        cross_validate(segs, spec, [1.0], k=1, solver="closed_form")


def test_cv_rejects_unknown_solver():
    segs, spec = _segments(n_segments=6)
    with pytest.raises(PreconditionError):
        cross_validate(segs, spec, [1.0], k=3, solver="magic")


def test_cv_solvers_pick_comparable_scores():
    segs, spec = _segments(n_segments=6, n=60, d=1, e=1)
    grid = [1.0]
    closed = cross_validate(segs, spec, grid, k=3, solver="closed_form")
    iterative = cross_validate(
        segs, spec, grid, k=3, solver="iterative",
        iterative=IterativeOptions(lr=1e-4, batch_size=64, tol=1e-8, max_epochs=20_000, seed=0),
    )
    assert np.allclose(closed.per_lambda_scores,
                       iterative.per_lambda_scores, atol=1e-2)


def _dense_stack(segs, indices, spec):
    X = np.concatenate([
        build_lagged_matrix(FeatureSeries(data=segs.segments[i].x, fs_hz=segs.fs_hz), spec).data
        for i in indices
    ])
    return X, np.concatenate([segs.segments[i].y for i in indices])


def _dense_cv_scores(segs, spec, grid, k, solve=ridge_closed_form):
    """Cross-validation written out on dense designs; solve(X, Y, lam) gives the weights."""
    folds = np.array_split(np.arange(len(segs)), k)
    scores = np.empty((len(grid), k))
    for fi, idx in enumerate(folds):
        X_train, Y_train = _dense_stack(segs, [i for i in range(len(segs)) if i not in idx], spec)
        X_val, Y_val = _dense_stack(segs, idx, spec)
        for gi, lam in enumerate(grid):
            W = solve(X_train, Y_train, lam)
            scores[gi, fi] = mean_channel_r(X_val @ W, Y_val)
    return scores


def test_iterative_cv_matches_dense_reference():
    segs, spec = _segments(seed=4, n_segments=7, n=60, d=2, e=3, density=0.3)
    grid = [0.1, 3.0, 100.0]
    options = IterativeOptions(lr=1e-3, batch_size=16, tol=1e-8, max_epochs=4, seed=2)
    rep = cross_validate(segs, spec, grid, k=3, solver="iterative", iterative=options)
    expected = _dense_cv_scores(
        segs, spec, grid, 3,
        solve=lambda X, Y, lam: fit_iterative(X, Y, lam, **asdict(options)).weights,
    )
    assert np.max(np.abs(rep.per_lambda_scores - expected)) <= 1e-12
    assert rep.fold_assignment == [0, 0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize("density", [0.02, 1.0], ids=["impulse_train", "gaussian"])
def test_closed_form_cv_and_fit_match_dense_reference(density):
    segs, spec = _segments(seed=5, n_segments=10, n=120, d=3, e=3, lags=(-3, 8), density=density)
    grid = make_lambda_grid(1e-2, 1e3, 6)
    rep = cross_validate(segs, spec, grid, k=5, solver="closed_form")
    assert np.max(np.abs(rep.per_lambda_scores - _dense_cv_scores(segs, spec, grid, 5))) <= 1e-10

    X, Y = _dense_stack(segs, range(len(segs)), spec)
    W = ridge_closed_form(X, Y, rep.best_lambda)
    kernel = flatten_trf(fit_trf(segs, spec, rep.best_lambda))
    assert np.max(np.abs(kernel - W)) <= 1e-10 * np.max(np.abs(W))


@pytest.mark.parametrize("density", [0.02, 1.0], ids=["impulse_train", "gaussian"])
def test_closed_form_cv_matches_dense_reference_on_wide_grid(density):
    segs, spec = _segments(seed=7, n_segments=10, n=120, d=3, e=3, lags=(-3, 8), density=density)
    grid = make_lambda_grid(1e-2, 1e6, 20)
    rep = cross_validate(segs, spec, grid, k=5, solver="closed_form")
    assert np.max(np.abs(rep.per_lambda_scores - _dense_cv_scores(segs, spec, grid, 5))) <= 1e-10


@pytest.mark.parametrize("density", [0.02, 1.0], ids=["impulse_train", "gaussian"])
def test_closed_form_singular_at_lambda_zero(density):
    segs, spec = _segments(seed=6, n_segments=6, density=density)
    for s in segs.segments:
        s.x[:, 0] = 0.0  # an all-zero feature leaves X^T X singular
    with pytest.raises(SingularSystemError):
        cross_validate(segs, spec, [0.0], k=3, solver="closed_form")
    with pytest.raises(SingularSystemError):
        fit_trf(segs, spec, lam=0.0)


# ---------------------------------------------------------------------------
# whole-model fitting and serialization


def test_fit_trf_recovers_known_kernel():
    rng = np.random.default_rng(9)
    fs, d, e = 100.0, 2, 2
    spec = _lag_spec(range(-2, 6), fs=fs)
    L = spec.n_lags
    W_true = rng.normal(size=(d * L, e))
    segments = []
    for k in range(10):
        x = rng.normal(size=(300, d))
        dm = build_lagged_matrix(FeatureSeries(data=x, fs_hz=fs), spec)
        segments.append(Segment(x=x, y=dm.data @ W_true, start=300 * k))
    segs = SegmentSet(segments=segments, window_samples=300, hop_samples=300,
                      fs_hz=fs, channel_names=["c0", "c1"])
    model = fit_trf(segs, spec, lam=1e-8)
    assert np.max(np.abs(flatten_trf(model) - W_true)) <= 1e-5
    assert model.lam == 1e-8


def test_trf_file_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    spec = _lag_spec(range(-3, 9), fs=64.0)
    kernel = rng.normal(size=(spec.n_lags, 2, 3))
    model = TrfModel(kernel=kernel, lag_spec=spec,
                     channel_names=["Fz", "Cz"], lam=0.25)
    path = tmp_path / "model_trf.btsr"
    write_trf(path, model)
    back = read_trf(path)
    assert back.kernel.tobytes() == kernel.tobytes()
    assert back.lag_spec.lag_samples == spec.lag_samples
    assert back.lag_spec.fs_hz == spec.fs_hz
    assert back.channel_names == ["Fz", "Cz"]
    assert back.lam == 0.25


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    fs=st.sampled_from([44.1, 64.0, 100.0, 128.0, 250.0, 512.0, 1000.0]),
    first=st.integers(-200, 80),
    n_lags=st.integers(1, 120),
    data=st.data(),
)
def test_trf_file_roundtrip_property(tmp_path, fs, first, n_lags, data):
    n_channels = data.draw(st.integers(1, 3))
    names = data.draw(st.lists(st.text(max_size=4), min_size=n_channels, max_size=n_channels))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    model = TrfModel(
        kernel=rng.normal(size=(n_lags, n_channels, data.draw(st.integers(1, 3)))),
        lag_spec=_lag_spec(range(first, first + n_lags), fs=fs),
        channel_names=names,
        lam=data.draw(st.floats(0.0, 1e12)),
        units=data.draw(st.text(max_size=12)),
    )
    path = tmp_path / "model_trf.btsr"  # the same file every example
    write_trf(path, model)
    back = read_trf(path)
    assert back.kernel.tobytes() == model.kernel.tobytes()
    assert back.lag_spec.lag_samples == model.lag_spec.lag_samples
    assert back.lag_spec.fs_hz == fs
    assert back.channel_names == names
    assert back.lam == model.lam
    assert back.units == model.units


@pytest.mark.parametrize(
    "n_lags, lag_times, fs, message",
    [
        (1, [0.0], 0, "fs_hz must be positive"),
        (1, [1e300], 1e10, "contiguous range"),
        (0, [], 10.0, "contiguous range"),
        (2, [0.0, 1e9], 1.0, "contiguous range"),
        (2, [0.0, 1e300], 1.0, "contiguous range"),
    ],
)
def test_kernel_lag_grid_that_cannot_be_rebuilt_is_rejected(tmp_path, n_lags, lag_times, fs, message):
    path = tmp_path / "model_trf.btsr"
    meta = {"lag_times_s": lag_times, "channel_names": ["a"], "lambda": 1.0,
            "fs_hz": fs, "units": "u"}
    write_tensor(path, "f64", [n_lags, 1, 1], meta, np.zeros(n_lags))
    with pytest.raises(ValidationError, match=message):
        read_trf(path)


def test_cv_rejects_degenerate_targets():
    # a constant target makes Pearson r undefined in every fold
    segs, spec = _segments(n_segments=6, e=1)
    for s in segs.segments:
        s.y[:] = 1.0
    with pytest.raises(DegenerateDataError):
        cross_validate(segs, spec, [1.0], k=3, solver="closed_form")
