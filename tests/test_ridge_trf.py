import math
import re
import tracemalloc
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
from trfkit.lagged_design import (
    LagSpec,
    build_lagged_csr,
    build_lagged_matrix,
    build_windows_csr,
    lag_range_to_samples,
)
from trfkit.preprocess import (
    EventSeries,
    FeatureSeries,
    Segment,
    SegmentSet,
    align_events,
    impulse_align,
    segment,
)
from trfkit.ridge_trf import (
    CvReport,
    _apply_q,
    _penalty_scores,
    _ridge_path,
    _solve_gram,
    _sparse_stack,
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
from trfkit._util import scaled_columns
from trfkit.stats_eval import evaluate_subject, mean_channel_r
from trfkit.tensorio import EegRecording, WordEvent, WordEventSequence, write_tensor


# ---------------------------------------------------------------------------
# lambda grid and the penalty rule


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


def _penalty_calls():
    """Every entry point that takes a penalty, as a call of the penalty alone."""
    segs, spec = _segments(n_segments=6)
    X, Y = _standardized_problem(0, n=20, p=3)
    model = dict(kernel=np.zeros((spec.n_lags, 2, 2)), lag_spec=spec, channel_names=["a", "b"])
    return {
        "grid_lo": lambda lam: make_lambda_grid(lam, 1e5, 4),
        "grid_hi": lambda lam: make_lambda_grid(1e-3, lam, 4),
        "ridge_closed_form": lambda lam: ridge_closed_form(X, Y, lam),
        "fit_iterative": lambda lam: fit_iterative(X, Y, lam, max_epochs=2),
        "fit_trf": lambda lam: fit_trf(segs, spec, lam),
        "cross_validate": lambda lam: cross_validate(segs, spec, [1.0, lam], k=3),
        "TrfModel": lambda lam: TrfModel(**model, lam=lam),
    }


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize(
    "entry",
    ["grid_lo", "grid_hi", "ridge_closed_form", "fit_iterative", "fit_trf", "cross_validate", "TrfModel"],
)
def test_penalty_that_is_not_a_finite_number_at_least_zero_is_refused_by_name(entry, lam):
    with pytest.raises(PreconditionError, match=re.escape(f"must be a finite number >= 0, got {lam}")):
        _penalty_calls()[entry](lam)


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


def _design_layouts():
    """One design in the layouts a caller may pass: C, Fortran, strided both ways, integers."""
    X = np.random.default_rng(9).normal(size=(120, 60))
    return {
        "C": X,
        "F": np.asfortranarray(X),
        "column_strided": X[:, ::2],
        "row_strided": X[::2],
        "int": np.rint(4 * X).astype(np.int64),
    }


@pytest.mark.parametrize("layout", sorted(_design_layouts()))
def test_closed_form_gram_is_exactly_symmetric_and_solved_as_a_copy_solves_it(layout):
    X = np.asarray(_design_layouts()[layout], dtype=np.float64)
    Y = np.random.default_rng(10).normal(size=(X.shape[0], 3))
    G = X.T @ X
    assert np.array_equal(G, G.T)  # so the transpose handed to the solver is G itself
    for lam in (0.1, 10.0):
        W = ridge_closed_form(_design_layouts()[layout], Y, lam)
        assert W.tobytes() == _solve_gram(X.T @ X, X.T @ Y, lam).tobytes()


def test_closed_form_holds_one_gram():
    X = np.random.default_rng(11).normal(size=(2000, 400))
    Y = np.random.default_rng(12).normal(size=(2000, 2))
    ridge_closed_form(X[:10, :5], Y[:10], 1.0)  # loads scipy.linalg before tracing
    peak = _traced_peak(ridge_closed_form, X, Y, 1.0) / (400 * 400 * 8)
    # measured: 2.01 Grams with a copy of X^T X for the solver, 1.01 without
    assert peak < 1.5, f"{peak:.2f} Grams"


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
    W = np.hstack(list(_ridge_path(G.copy(), H, grid)))  # the helper overwrites its Gram
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
    assert np.all(np.isfinite(np.hstack(list(_ridge_path(G.copy(), H, [1.0])))))


@settings(max_examples=40, deadline=None)
@given(grid=_grids, **_sizes)
def test_ridge_path_indefinite_gram_raises_numerical_error(P, E, seed, grid):
    A, H = _gram_problem(P, E, seed)
    Q = np.linalg.qr(A[:P])[0]
    eigs = np.linspace(1.0, 10.0, P)
    eigs[len(eigs) // 2] = -(max(grid) + 1.0)  # stays negative at every penalty
    with pytest.raises(NumericalError):
        _ridge_path((Q * eigs) @ Q.T, H, grid)


def _traced_peak(fn, *args) -> int:
    """Peak bytes allocated by Python and numpy while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _ordered_gram(order, P=200):
    """A Gram in the given memory order, its right-hand side and its size in bytes."""
    A, H = _gram_problem(P, 1, seed=3)
    _solve_gram(A.T @ A, H, 1.0)  # loads scipy.linalg before any tracing
    return np.array(A.T @ A, order=order), H, P * P * 8


# a Fortran-ordered Gram is what a CSR design's sparse product gives
@pytest.mark.parametrize("order", ["F", "C"])
def test_ridge_path_reduces_its_gram_in_place(order):
    G, H, gram_bytes = _ordered_gram(order)
    peak = _traced_peak(_ridge_path, G, H, [1.0, 10.0])
    assert peak < gram_bytes / 2, f"{peak / gram_bytes:.2f} Grams"


@pytest.mark.parametrize("order", ["F", "C"])
def test_solve_gram_copies_its_gram_once(order):
    G, H, gram_bytes = _ordered_gram(order)
    kept = G.copy(order="A")
    peak = _traced_peak(_solve_gram, G, H, 1.0)
    assert peak < 1.5 * gram_bytes, f"{peak / gram_bytes:.2f} Grams"
    assert np.array_equal(G, kept)  # the caller's Gram is left as it was


def test_solve_gram_in_place_keeps_its_strict_upper_triangle_and_copies_nothing():
    G, H, gram_bytes = _ordered_gram("F")
    kept = G.copy(order="F")
    W = _solve_gram(G, H, 1.0)
    peak = _traced_peak(lambda: _solve_gram(G, H, 1.0, overwrite_a=True))
    assert peak < gram_bytes / 2, f"{peak / gram_bytes:.2f} Grams"
    upper = np.triu_indices_from(G, 1)
    assert G[upper].tobytes() == kept[upper].tobytes()
    assert _solve_gram(kept, H, 1.0, overwrite_a=True).tobytes() == W.tobytes()


def _copying_ridge_path(XtX, XtY, grid):
    """The ridge path with one (P, len(grid) * E) weight block, whose rows 1: the
    back-transform gets as a copy: the layout _ridge_path had before it kept row 0 apart."""
    import scipy.linalg

    P, E = XtY.shape
    lwork = int(scipy.linalg.lapack.dsytrd_lwork(P, lower=1)[0])
    A = XtX if XtX.flags.f_contiguous else XtX.T
    c, d, e, tau, _ = scipy.linalg.lapack.dsytrd(A, lower=1, lwork=lwork, overwrite_a=1)
    reflectors = c.reshape(-1, order="F")[1 : 1 + P * (P - 1)].reshape(P, P - 1, order="F")
    B = np.array(XtY, order="F")
    B[1:] = _apply_q("T", reflectors, tau, B[1:])
    Z = np.empty((P, len(grid) * E), order="F")
    for gi, lam in enumerate(grid):
        _, _, Z[:, gi * E : (gi + 1) * E], info = scipy.linalg.lapack.dptsv(d + lam, e, B)
        assert info == 0
    Z[1:] = _apply_q("N", reflectors, tau, Z[1:])
    return Z


def _assert_split_path_matches_copying_path(P, E, seed, grid):
    A, H = _gram_problem(P, E, seed)
    G = A.T @ A
    W = np.hstack(list(_ridge_path(G.copy(), H, grid)))
    assert W.tobytes() == _copying_ridge_path(G.copy(), H, grid).tobytes()


@settings(max_examples=60, deadline=None)
@given(grid=_grids, **dict(_sizes, P=st.integers(min_value=2, max_value=80)))
def test_ridge_path_split_back_transform_is_the_copying_one_bit_for_bit(P, E, seed, grid):
    _assert_split_path_matches_copying_path(P, E, seed, grid)


# P = 200 and 32 channels take dormqr's blocked branch with 32 reflectors a block
@pytest.mark.parametrize("P, E", [(200, 32), (333, 5)])
def test_ridge_path_split_back_transform_is_the_copying_one_bit_for_bit_when_blocked(P, E):
    _assert_split_path_matches_copying_path(P, E, seed=11, grid=make_lambda_grid(1e-2, 1e3, 10))


def test_ridge_path_holds_one_weight_block():
    P, E, grid = 200, 32, make_lambda_grid(1e-2, 1e3, 10)
    A, H = _gram_problem(P, E, seed=3)
    _solve_gram(A.T @ A, H, 1.0)  # loads scipy.linalg before any tracing
    G = np.array(A.T @ A, order="F")
    weight_bytes = P * len(grid) * E * 8

    def every_penalty():
        for _ in _ridge_path(G, H, grid):
            pass

    peak = _traced_peak(every_penalty) / weight_bytes
    # measured: 2.33 blocks while the back-transform copied rows 1: of the block,
    # 1.24 since. Beside the block sit dormqr's blocked workspace (32 columns a
    # right-hand side, 0.16 of the block at P = 200, and its 65 x 64 T factor:
    # 0.23 blocks in all) or, while the penalties are solved, the transformed
    # right-hand side and one penalty's solution (0.2 blocks at 10 penalties)
    assert peak < 1.3, f"{peak:.2f} weight blocks"


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


def _word_segments(seed, align, seconds=40.0, fs=50.0, rate=6.0, d=3, e=4):
    """Words at `rate` per second and the recording they drive, windowed from align's stimulus.

    The onsets are uniform draws, so some words land on one sample. Returns the
    segment set, the lag spec and the words.
    """
    rng = np.random.default_rng(seed)
    n, count = int(seconds * fs), int(rate * seconds)
    onsets = np.sort(rng.uniform(0.0, seconds - 1.0 / fs, size=count))
    vectors = rng.normal(size=(count, d))
    words = WordEventSequence(
        [WordEvent(f"w{k}", float(t), v) for k, (t, v) in enumerate(zip(onsets, vectors))], dim=d
    )
    spec = lag_range_to_samples(-0.1, 0.4, fs)
    X = build_lagged_matrix(impulse_align(words, fs, n), spec).data
    y = X @ rng.normal(size=(X.shape[1], e)) + rng.normal(size=(n, e))
    rec = EegRecording(data=y.T, fs_hz=fs, channel_names=[f"c{j}" for j in range(e)], subject_id="s")
    return segment(align(words, fs, n), rec, window_s=2.0, overlap_frac=0.25), spec, words


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_event_windows_fit_and_score_bit_for_bit_as_dense_windows(seed):
    events, spec, words = _word_segments(seed, align_events)
    dense = _word_segments(seed, impulse_align)[0]
    assert len(np.unique(words.onset_samples(50.0))) < len(words)  # some words share a sample
    assert all(isinstance(s.x, EventSeries) for s in events.segments)
    assert all(isinstance(s.x, np.ndarray) for s in dense.segments)
    (train, test), (dense_train, dense_test) = (
        (segs.subset(range(20)), segs.subset(range(20, len(segs)))) for segs in (events, dense)
    )
    grid = make_lambda_grid(1e-2, 1e3, 6)
    rep, dense_rep = (cross_validate(t, spec, grid, k=4) for t in (train, dense_train))
    assert _bits(rep.per_lambda_scores) == _bits(dense_rep.per_lambda_scores)
    assert rep.best_lambda == dense_rep.best_lambda
    fits = []
    for t, r in ((train, rep), (dense_train, dense_rep)):
        fits.append([fit_trf(t, spec, r.best_lambda, cv=r), fit_trf(t, spec, 7.0)])
    for model, dense_model in zip(*fits):
        assert _bits(flatten_trf(model)) == _bits(flatten_trf(dense_model))
    scores = [
        [c.r for c in evaluate_subject(fits[0][0], t, spec).channels] for t in (test, dense_test)
    ]
    assert _bits(scores[0]) == _bits(scores[1])
    options = IterativeOptions(lr=1e-3, batch_size=32, tol=1e-8, max_epochs=3, seed=5)
    iterative = [
        cross_validate(t, spec, [0.1, 10.0], k=3, solver="iterative", iterative=options)
        for t in (train, dense_train)
    ]
    assert _bits(iterative[0].per_lambda_scores) == _bits(iterative[1].per_lambda_scores)


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


@pytest.mark.parametrize("events", [False, True], ids=["dense", "events"])
def test_iterative_cv_builds_each_window_design_once(monkeypatch, events):
    import trfkit.ridge_trf as ridge_trf

    built = []

    def counting(windows, spec):
        built.append(list(windows))
        return build_windows_csr(windows, spec)

    monkeypatch.setattr(ridge_trf, "build_windows_csr", counting)
    if events:
        segs, spec, _ = _word_segments(seed=4, align=align_events)
    else:
        segs, spec = _segments(seed=4, n_segments=7, n=60, d=2, e=3, density=0.3)
    options = IterativeOptions(lr=1e-3, batch_size=16, tol=1e-8, max_epochs=2, seed=2)
    cross_validate(segs, spec, [0.1, 3.0], k=3, solver="iterative", iterative=options)
    # one build per fold, and the folds' windows, in order, are the segments' own x, once each
    assert len(built) == 3
    assert [id(w) for windows in built for w in windows] == [id(s.x) for s in segs.segments]


@pytest.mark.parametrize("events", [False, True], ids=["dense", "events"])
def test_iterative_cv_trains_each_fold_on_the_other_folds_stacked(monkeypatch, events):
    import trfkit.ridge_trf as ridge_trf

    seen = []

    def capturing(X, Y, lam, **options):
        seen.append((_bits(X), _bits(Y)))
        return fit_iterative(X, Y, lam, **options)

    monkeypatch.setattr(ridge_trf, "fit_iterative", capturing)
    if events:
        segs, spec, _ = _word_segments(seed=4, align=align_events)
    else:
        segs, spec = _segments(seed=4, n_segments=7, n=60, d=2, e=3, density=0.3)
    grid = [0.1, 3.0]
    options = IterativeOptions(lr=1e-3, batch_size=16, tol=1e-8, max_epochs=2, seed=2)
    cross_validate(segs, spec, grid, k=3, solver="iterative", iterative=options)
    want = []
    for idx in np.array_split(np.arange(len(segs)), 3):
        X, Y = ridge_trf._stack_segments(segs, [i for i in range(len(segs)) if i not in idx], spec)
        want += [(_bits(X), _bits(Y))] * len(grid)
    assert seen == want


def test_iterative_cv_scores_each_penalty_before_fitting_the_next():
    # fold 0 holds no stimulus, so its predictions are constant; 1e7 diverges at this lr
    segs, spec = _segments(seed=5, n_segments=4, n=60, d=2, e=2)
    for s in segs.segments[:2]:
        s.x[:] = 0.0
    options = IterativeOptions(lr=1e-3, batch_size=16, tol=1e-8, max_epochs=20, seed=0)
    with pytest.raises(DivergenceError, match="reduce the learning rate"):
        cross_validate(segs, spec, [1e7], k=2, solver="iterative", iterative=options)
    # the small penalty's fold-0 score fails before the large penalty is fitted
    with pytest.raises(DegenerateDataError, match="constant series"):
        cross_validate(segs, spec, [0.1, 1e7], k=2, solver="iterative", iterative=options)


@pytest.mark.parametrize(
    "call", ["cross_validate", "fit_trf", "evaluate_subject", "build_lagged_csr", "build_windows_csr"]
)
def test_every_rate_refusal_names_what_has_the_other_rate(call):
    spec = _lag_spec(range(0, 5))
    segs = _segments(n_segments=4, fs=128.0)[0]
    trf = TrfModel(np.zeros((spec.n_lags, 2, 2)), spec, ["c0", "c1"], lam=1.0)
    events = EventSeries(samples=[2, 7, 30], rows=np.ones((3, 2)), n_samples=40, fs_hz=128.0)
    noun, refused = {
        "cross_validate": ("segments", lambda: cross_validate(segs, spec, [1.0], k=2)),
        "fit_trf": ("segments", lambda: fit_trf(segs, spec, 1.0)),
        "evaluate_subject": ("segments", lambda: evaluate_subject(trf, segs, spec)),
        "build_lagged_csr": (
            "series", lambda: build_lagged_csr(FeatureSeries(np.ones((20, 2)), 128.0), spec)
        ),
        "build_windows_csr": ("series", lambda: build_windows_csr([events.window(5, 20)], spec)),
    }[call]
    with pytest.raises(PreconditionError) as refusal:
        refused()
    assert str(refusal.value) == f"sampling rates differ: {noun} 128.0 vs lag spec 100.0"


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


def _summed_gram_cv_scores(segs, spec, grid, k):
    """Closed-form CV that keeps every fold's Gram and sums them with sum()."""
    stacks = [_sparse_stack(segs, idx, spec) for idx in np.array_split(np.arange(len(segs)), k)]
    stats = [((X.T @ X).toarray(), X.T @ Y) for X, Y in stacks]
    G_tot = sum(G for G, _ in stats)
    H_tot = sum(H for _, H in stats)
    scores = np.empty((len(grid), k))
    for fi, ((X_val, Y_val), (G_val, H_val)) in enumerate(zip(stacks, stats)):
        # C order: the reduction reads the upper triangle, through the transpose
        W = _ridge_path(np.ascontiguousarray(G_tot - G_val), H_tot - H_val, grid)
        scores[:, fi] = _penalty_scores(X_val, scaled_columns(Y_val), W)
    return scores


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("density", [0.02, 1.0], ids=["impulse_train", "gaussian"])
def test_closed_form_cv_scores_equal_summed_gram_reference_exactly(density, k):
    segs, spec = _segments(seed=8, n_segments=10, n=120, d=3, e=3, lags=(-3, 8), density=density)
    grid = make_lambda_grid(1e-2, 1e3, 6)
    rep = cross_validate(segs, spec, grid, k=k, solver="closed_form")
    assert np.array_equal(rep.per_lambda_scores, _summed_gram_cv_scores(segs, spec, grid, k))


@pytest.mark.parametrize("density", [0.02, 1.0], ids=["impulse_train", "gaussian"])
def test_fit_from_cv_report_builds_no_design_and_matches_the_restacked_fit(monkeypatch, density):
    import trfkit.ridge_trf as ridge_trf

    segs, spec = _segments(seed=5, n_segments=10, n=120, d=3, e=3, lags=(-3, 8), density=density)
    rep = cross_validate(segs, spec, make_lambda_grid(1e-2, 1e3, 6), k=5)
    restacked = flatten_trf(fit_trf(segs, spec, rep.best_lambda))
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return build_windows_csr(*args, **kwargs)

    monkeypatch.setattr(ridge_trf, "build_windows_csr", counting)
    fit_trf(segs, spec, rep.best_lambda)
    assert len(calls) == 1  # the patch sees the restacked fit's one build
    calls.clear()
    model = fit_trf(segs, spec, rep.best_lambda, cv=rep)
    assert calls == []
    assert model.lam == rep.best_lambda
    # the report's Gram sums the folds' Grams, so it may differ in the last bits
    assert np.max(np.abs(flatten_trf(model) - restacked)) <= 1e-12 * np.max(np.abs(restacked))


def test_a_kept_cv_report_holds_no_gram():
    segs, spec = _segments(seed=2, n_segments=16, n=200, d=2, e=2, lags=(0, 149), density=0.02)
    gram_bytes = (2 * spec.n_lags) ** 2 * 8
    cross_validate(segs, spec, [0.1, 10.0], k=2)  # loads scipy before tracing
    tracemalloc.start()
    try:
        rep = cross_validate(segs, spec, [0.1, 10.0], k=5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # measured: 1.036 Grams while the report carried the training totals, 0.03 since
    assert held < 0.1 * gram_bytes, f"{held / gram_bytes:.3f} Grams"
    assert rep.best_weights.shape == (2 * spec.n_lags, 2)


def test_fit_from_cv_report_at_another_penalty_is_the_fit_without_it():
    segs, spec = _segments(seed=5, n_segments=10, n=120, d=3, e=3, lags=(-3, 50), density=0.02)
    grid = make_lambda_grid(1e-2, 1e3, 6)
    rep = cross_validate(segs, spec, grid, k=5)
    for lam in grid:
        if lam != rep.best_lambda:
            with_report = flatten_trf(fit_trf(segs, spec, lam, cv=rep))
            assert with_report.tobytes() == flatten_trf(fit_trf(segs, spec, lam)).tobytes()


def test_fit_from_cv_report_holds_one_copy_of_the_gram():
    segs, spec = _segments(seed=2, n_segments=16, n=200, d=2, e=2, lags=(0, 149), density=0.02)
    gram_bytes = (2 * spec.n_lags) ** 2 * 8
    rep = cross_validate(segs, spec, [0.1, 10.0], k=2)  # loads scipy before tracing
    peak = _traced_peak(lambda: fit_trf(segs, spec, rep.best_lambda, cv=rep))
    assert peak < 1.5 * gram_bytes, f"{peak / gram_bytes:.2f} Grams"


def test_fit_refuses_a_cv_report_that_does_not_fit_its_segments():
    segs, spec = _segments(seed=3, n_segments=9, e=2)
    rep = cross_validate(segs, spec, [1.0, 10.0], k=3)
    fit_trf(segs, spec, rep.best_lambda, cv=rep)  # the report fits its own segments
    other_channels, _ = _segments(seed=3, n_segments=9, e=3)
    for segments, lags, message in [
        (segs.subset(range(8)), spec, "covers 9 segments but 8"),
        (segs, _lag_spec(range(0, 6)), r"weights have shape \(10, 2\), .* need \(12, 2\)"),
        (other_channels, spec, r"weights have shape \(10, 2\), .* need \(10, 3\)"),
    ]:
        with pytest.raises(PreconditionError, match=message):
            fit_trf(segments, lags, rep.best_lambda, cv=rep)


def test_closed_form_cv_memory_does_not_grow_with_fold_count():
    segs, spec = _segments(seed=2, n_segments=16, n=200, d=2, e=2, lags=(0, 149), density=0.02)
    gram_bytes = (2 * spec.n_lags) ** 2 * 8
    grid = [0.1, 10.0]
    cross_validate(segs, spec, grid, k=2)  # loads scipy before tracing
    peaks = [_traced_peak(cross_validate, segs, spec, grid, k) / gram_bytes for k in (2, 8)]
    assert abs(peaks[0] - peaks[1]) < 1, f"{peaks[0]:.2f} and {peaks[1]:.2f} Grams at k = 2 and 8"


def test_closed_form_cv_holds_one_fold_response_and_one_weight_block():
    segs, spec = _segments(seed=2, n_segments=40, n=100, d=2, e=32, lags=(0, 99), density=0.02)
    P, E, k, grid = 2 * spec.n_lags, 32, 5, make_lambda_grid(1e-2, 1e3, 10)
    folds = np.array_split(np.arange(len(segs)), k)
    designs = [_sparse_stack(segs, idx, spec)[0] for idx in folds]
    design_bytes = sum(X.data.nbytes + X.indices.nbytes + X.indptr.nbytes for X in designs)
    response_bytes = max(len(idx) for idx in folds) * segs.window_samples * E * 8
    held = P * P * 8 + design_bytes + response_bytes + P * len(grid) * E * 8
    # the fold's response is scaled where it lies and held while it is scored;
    # scoring a penalty holds one more response-sized array, its prediction, scaled
    # where it lies too, and one more response's worth covers the P x E totals, one
    # penalty's weights and the rest
    margin = 3 * response_bytes
    cross_validate(segs, spec, grid, k=2)  # loads scipy before tracing
    peak = _traced_peak(cross_validate, segs, spec, grid, k)
    # measured: 3.18 MB while every fold kept its stacked response and the
    # back-transform copied its weight block; 1.95 MB with the scaling's copies
    # (3.64 responses over held); 1.61 MB since (1.96 over), under a bound of 1.82 MB
    assert peak < held + margin, f"{peak} bytes, {(peak - held) / response_bytes:.2f} responses over"


def test_scoring_a_fold_holds_one_prediction_at_a_time():
    segs, spec = _segments(seed=2, n_segments=8, n=100, d=2, e=32, lags=(0, 99), density=0.02)
    X_val, Y_val = _sparse_stack(segs, range(len(segs)), spec)
    weights = [np.random.default_rng(g).standard_normal((X_val.shape[1], 32)) for g in range(4)]
    target = scaled_columns(Y_val)
    peak = _traced_peak(_penalty_scores, X_val, target, weights)
    # measured: 3.01 predictions while scaled_columns copied each one, 1.33 since
    assert peak < 2 * Y_val.nbytes, f"{peak / Y_val.nbytes:.2f} predictions"


def test_cv_and_fit_from_its_report_hold_under_two_and_a_half_grams():
    segs, spec = _segments(seed=2, n_segments=16, n=200, d=2, e=2, lags=(0, 149), density=0.02)
    gram_bytes = (2 * spec.n_lags) ** 2 * 8
    grid = [0.1, 10.0]
    cross_validate(segs, spec, grid, k=2)  # loads scipy before tracing

    def search_and_fit():
        rep = cross_validate(segs, spec, grid, k=5)
        fit_trf(segs, spec, rep.best_lambda, cv=rep)

    peak = _traced_peak(search_and_fit) / gram_bytes
    # measured: 2.93 Grams with a total Gram, a fold Gram, the sparse product behind
    # each Gram and fit_trf's copy of the total; 2.30 with one buffer for all of them
    assert peak < 2.5, f"{peak:.2f} Grams"


# (-3, 50) gives P = 162 columns: three Gram blocks, the last one partial
@pytest.mark.parametrize("lags", [(-3, 8), (-3, 50)], ids=["one_block", "three_blocks"])
@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("density", [0.02, 1.0], ids=["impulse_train", "gaussian"])
def test_cv_report_totals_are_the_fold_grams_summed_bit_for_bit(density, k, lags):
    segs, spec = _segments(seed=8, n_segments=10, n=120, d=3, e=3, lags=lags, density=density)
    grid = make_lambda_grid(1e-2, 1e3, 6)
    rep = cross_validate(segs, spec, grid, k=k)
    assert np.array_equal(rep.per_lambda_scores, _summed_gram_cv_scores(segs, spec, grid, k))
    # the totals as cross_validate forms them: fold Grams added from +0.0 in fold
    # order, and the folds' X^T Y summed with sum()
    stacks = [_sparse_stack(segs, idx, spec) for idx in np.array_split(np.arange(len(segs)), k)]
    G = np.zeros((stacks[0][0].shape[1],) * 2)
    for X, _ in stacks:
        G += (X.T @ X).toarray()
    H = sum(X.T @ Y for X, Y in stacks)
    # the in-place factorisation gives the weights a copy of the totals gives
    assert rep.best_weights.tobytes() == _solve_gram(G, H, rep.best_lambda).tobytes()


def test_fit_from_cv_report_solves_nothing_at_best_lambda_and_once_elsewhere(monkeypatch):
    import trfkit.ridge_trf as ridge_trf

    segs, spec = _segments(seed=5, n_segments=10, n=120, d=3, e=3, lags=(-3, 50), density=0.02)
    grid = make_lambda_grid(1e-2, 1e3, 6)
    rep = cross_validate(segs, spec, grid, k=5)
    solved = []

    def counting(XtX, XtY, lam, **kwargs):
        solved.append(lam)
        return _solve_gram(XtX, XtY, lam, **kwargs)

    monkeypatch.setattr(ridge_trf, "_solve_gram", counting)
    model = fit_trf(segs, spec, rep.best_lambda, cv=rep)
    assert solved == []
    assert flatten_trf(model).tobytes() == rep.best_weights.tobytes()
    other = next(lam for lam in grid if lam != rep.best_lambda)
    model = fit_trf(segs, spec, other, cv=rep)
    assert solved == [other]  # the patch sees the one solve of the restacked Gram
    restacked = flatten_trf(fit_trf(segs, spec, other))
    assert np.max(np.abs(flatten_trf(model) - restacked)) <= 1e-12 * np.max(np.abs(restacked))


def test_a_design_wider_than_the_cap_is_refused_before_it_is_built(monkeypatch):
    import trfkit.ridge_trf as ridge_trf

    segs, spec = _segments(seed=3, n_segments=6, d=3, lags=(0, 4))

    def no_build(*args, **kwargs):
        raise AssertionError("a design was built")

    monkeypatch.setattr(ridge_trf, "MAX_DESIGN_COLUMNS", 14)
    monkeypatch.setattr(ridge_trf, "build_windows_csr", no_build)
    message = r"3 features x 5 lags .* make P = 15 design columns, .* at most 14 columns are allowed"
    with pytest.raises(PreconditionError, match=message):
        cross_validate(segs, spec, [1.0], k=3)
    for solver in ("closed_form", "iterative"):
        with pytest.raises(PreconditionError, match=message):
            fit_trf(segs, spec, 1.0, solver=solver)


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
