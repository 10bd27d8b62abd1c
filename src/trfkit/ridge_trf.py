"""Ridge estimation of multichannel temporal response kernels.

Weights solve (X^T X + lambda I) W = X^T Y with no intercept; both sides
are expected to be standardised upstream, so kernels come out in
arbitrary units (z-scored response per z-scored feature). A closed-form
fit at one penalty factorises the regularised Gram matrix (Cholesky);
the iterative path runs seeded mini-batch gradient descent on the same
objective.

Cross-validation, the closed-form fit and evaluation share one path for
the sufficient statistics: each segment set is stacked into a CSR design
straight from its non-zero samples, and X^T X and X^T Y come from sparse
products. The iterative solver works on the dense design.

Cross-validation assigns segments to contiguous folds in temporal order
and scores each candidate penalty by the mean Pearson correlation across
channels on the held-out fold, concatenated over its segments. Ties
resolve toward the stronger penalty. The closed-form search reduces each
fold's training Gram to tridiagonal form once, X^T X = Q T Q^T, so every
penalty costs one O(P) tridiagonal solve (Golub & Van Loan, Matrix
Computations, 4th ed., section 8.3.1).
"""

import sys
from dataclasses import asdict, dataclass

import numpy as np

from ._util import correlate, round_half_up, scaled_columns
from .errors import (
    DivergenceError,
    NumericalError,
    PreconditionError,
    SingularSystemError,
    ValidationError,
)
from .lagged_design import DesignMatrix, LagSpec, build_lagged_csr
from .preprocess import FeatureSeries, SegmentSet
from .tensorio import _read_checked, write_tensor

__all__ = [
    "KERNEL_UNITS",
    "TrfModel",
    "CvReport",
    "IterativeFit",
    "IterativeOptions",
    "make_lambda_grid",
    "ridge_closed_form",
    "fit_iterative",
    "predict",
    "reshape_trf",
    "flatten_trf",
    "pick_best_lambda",
    "cross_validate",
    "fit_trf",
    "write_trf",
    "read_trf",
]

KERNEL_UNITS = "arbitrary (z-scored response per z-scored feature)"


@dataclass
class TrfModel:
    """Fitted response kernel, indexed [lag, channel, feature]."""

    kernel: np.ndarray
    lag_spec: LagSpec
    channel_names: list[str]
    lam: float
    units: str = KERNEL_UNITS

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=np.float64)
        if self.kernel.ndim != 3:
            raise PreconditionError(f"kernel must be 3-D, got ndim={self.kernel.ndim}")
        L, E, _ = self.kernel.shape
        if L != self.lag_spec.n_lags:
            raise PreconditionError(
                f"kernel has {L} lags but the lag spec defines {self.lag_spec.n_lags}"
            )
        if E != len(self.channel_names):
            raise PreconditionError(
                f"kernel has {E} channels but {len(self.channel_names)} names were given"
            )
        if self.lam < 0:
            raise PreconditionError(f"lambda must be nonnegative, got {self.lam}")

    @property
    def n_features(self) -> int:
        return self.kernel.shape[2]


@dataclass
class CvReport:
    """Grid-search record: validation score per (penalty, fold)."""

    grid: list[float]
    per_lambda_scores: np.ndarray  # (len(grid), n_folds)
    best_lambda: float
    fold_assignment: list[int]


@dataclass
class IterativeFit:
    """Result of the gradient-descent solver."""

    weights: np.ndarray
    stop_reason: str  # "tol" or "max_epochs"
    epochs: int
    objective: float


@dataclass(frozen=True)
class IterativeOptions:
    """Settings of the gradient-descent solver, named as fit_iterative takes them."""

    lr: float = 1e-4
    batch_size: int = 64
    tol: float = 1e-8
    max_epochs: int = 1000
    seed: int = 0


def make_lambda_grid(lo: float, hi: float, n: int) -> list[float]:
    """n log-spaced penalties from lo to hi, endpoints exact."""
    if not (0 < lo < hi):
        raise PreconditionError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if n < 2:
        raise PreconditionError(f"need at least 2 grid points, got {n}")
    vals = np.power(10.0, np.linspace(np.log10(lo), np.log10(hi), n))
    vals[0] = lo
    vals[-1] = hi
    return [float(v) for v in vals]


def _as_matrix(Y) -> np.ndarray:
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2:
        raise PreconditionError(f"responses must be 1-D or 2-D, got ndim={Y.ndim}")
    return Y


def _not_positive_definite(lam: float) -> Exception:
    if lam == 0:
        return SingularSystemError("X^T X is singular at lambda = 0; use a positive penalty")
    return NumericalError(f"Gram matrix is not positive definite at lambda = {lam}")


def _solve_gram(XtX: np.ndarray, XtY: np.ndarray, lam: float) -> np.ndarray:
    import scipy.linalg

    A = XtX.copy()
    A[np.diag_indices_from(A)] += lam
    try:
        factor = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise _not_positive_definite(lam) from None
    return scipy.linalg.cho_solve(factor, XtY, check_finite=False)


def _apply_q(trans: str, reflectors: np.ndarray, tau: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Q' C (trans "N") or Q'^T C (trans "T") for QR-stored Householder reflectors."""
    import scipy.linalg

    ormqr = scipy.linalg.lapack.dormqr
    lwork = int(ormqr("L", trans, reflectors, tau, C, -1)[1][0])
    return ormqr("L", trans, reflectors, tau, C, lwork, overwrite_c=1)[0]


def _ridge_path(XtX: np.ndarray, XtY: np.ndarray, grid) -> np.ndarray:
    """Ridge weights at every penalty of grid from one tridiagonal reduction.

    X^T X = Q T Q^T (LAPACK dsytrd) turns each (X^T X + lam I) W = X^T Y
    into (T + lam I) Z = Q^T X^T Y, one O(P) tridiagonal solve, and one
    back-transform W = Q Z serves all penalties. Returns (P, len(grid) * E);
    the weights for grid[g] are columns g*E to (g+1)*E. XtX is overwritten,
    so pass a copy to keep it. Failures raise as _solve_gram's do.
    """
    import scipy.linalg

    P, E = XtY.shape
    if P == 1:  # nothing to reduce, and dptsv takes no empty subdiagonal
        return np.hstack([_solve_gram(XtX, XtY, lam) for lam in grid])
    # A Gram's zero diagonal entry is an all-zero row. Cholesky meets it as an
    # exact zero pivot; the reduction mixes it into other rows, where rounding
    # can leave T + 0 I positive definite.
    zero_row = not np.all(np.diagonal(XtX))
    lwork = int(scipy.linalg.lapack.dsytrd_lwork(P, lower=1)[0])
    # XtX is symmetric, so its transpose is the same matrix in Fortran order
    c, d, e, tau, _ = scipy.linalg.lapack.dsytrd(XtX.T, lower=1, lwork=lwork, overwrite_a=1)
    # Q = diag(1, Q'), with Q' stored as QR reflectors below the subdiagonal
    reflectors = np.asfortranarray(c[1:, :-1])
    B = np.array(XtY, order="F")
    B[1:] = _apply_q("T", reflectors, tau, B[1:])
    Z = np.empty((P, len(grid) * E), order="F")
    for gi, lam in enumerate(grid):
        _, _, Z[:, gi * E : (gi + 1) * E], info = scipy.linalg.lapack.dptsv(d + lam, e, B)
        if info > 0 or (lam == 0 and zero_row):
            raise _not_positive_definite(lam)
    Z[1:] = _apply_q("N", reflectors, tau, Z[1:])
    return Z


def ridge_closed_form(X, Y, lam: float) -> np.ndarray:
    """Solve the regularised normal equations for all channels at once."""
    X = np.asarray(X, dtype=np.float64)
    Y = _as_matrix(Y)
    if X.ndim != 2:
        raise PreconditionError(f"X must be 2-D, got ndim={X.ndim}")
    if X.shape[0] != Y.shape[0]:
        raise PreconditionError(
            f"X has {X.shape[0]} rows but Y has {Y.shape[0]}"
        )
    if lam < 0:
        raise PreconditionError(f"lambda must be nonnegative, got {lam}")
    return _solve_gram(X.T @ X, X.T @ Y, lam)


def fit_iterative(
    X,
    Y,
    lam: float,
    lr: float = 1e-4,
    batch_size: int = 64,
    max_epochs: int = 1000,
    tol: float = 1e-8,
    seed: int = 0,
) -> IterativeFit:
    """Mini-batch gradient descent on ||Y - XW||^2/N + lam ||W||^2/N.

    Starts from zero weights, reshuffles rows every epoch with the given
    seed, and stops when the epoch-over-epoch decrease of the full
    objective falls below tol. Growth beyond tol counts toward
    divergence: five consecutive such epochs (or a non-finite objective)
    raise DivergenceError. Growth within tol is the stochastic plateau
    of mini-batch descent and counts as convergence.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = _as_matrix(Y)
    if X.shape[0] != Y.shape[0]:
        raise PreconditionError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    if lam < 0:
        raise PreconditionError(f"lambda must be nonnegative, got {lam}")
    if not (lr > 0):
        raise PreconditionError(f"learning rate must be positive, got {lr}")
    if batch_size < 1:
        raise PreconditionError(f"batch_size must be >= 1, got {batch_size}")
    if max_epochs < 1:
        raise PreconditionError(f"max_epochs must be >= 1, got {max_epochs}")

    N, P = X.shape
    E = Y.shape[1]
    W = np.zeros((P, E))
    rng = np.random.default_rng(seed)

    def objective(weights):
        resid = Y - X @ weights
        return (np.sum(resid * resid) + lam * np.sum(weights * weights)) / N

    prev = objective(W)
    grew = 0
    epochs_run = 0
    reason = "max_epochs"
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, max_epochs + 1):
            epochs_run = epoch
            perm = rng.permutation(N)
            for lo_idx in range(0, N, batch_size):
                rows = perm[lo_idx : lo_idx + batch_size]
                Xb = X[rows]
                grad = (2.0 / rows.size) * (Xb.T @ (Xb @ W - Y[rows]))
                grad += (2.0 * lam / N) * W
                W -= lr * grad
            obj = objective(W)
            delta = prev - obj  # positive = improvement
            if not np.isfinite(obj) or delta < -tol:
                grew += 1
                if grew >= 5:
                    raise DivergenceError(
                        f"objective grew for {grew} consecutive epochs "
                        f"(epoch {epoch}); reduce the learning rate"
                    )
            elif delta < tol:
                prev = obj
                reason = "tol"
                break
            else:
                grew = 0
            prev = obj
    return IterativeFit(weights=W, stop_reason=reason, epochs=epochs_run, objective=float(prev))


def predict(weights: np.ndarray, X) -> np.ndarray:
    """Linear response prediction X @ W for a design matrix, CSR design or raw array."""
    # a sparse X implies scipy.sparse is loaded, so dense input never loads it
    sparse = sys.modules.get("scipy.sparse")
    if isinstance(X, DesignMatrix):
        Xd = X.data
    elif sparse is not None and sparse.issparse(X):
        Xd = X
    else:
        Xd = np.asarray(X, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if Xd.ndim != 2 or weights.ndim != 2:
        raise PreconditionError("predict expects 2-D design and weight matrices")
    if Xd.shape[1] != weights.shape[0]:
        raise PreconditionError(
            f"design has {Xd.shape[1]} columns but weights expect {weights.shape[0]}"
        )
    return Xd @ weights


def reshape_trf(
    weights: np.ndarray,
    spec: LagSpec,
    channel_names: list[str],
    n_features: int,
    lam: float = 0.0,
) -> TrfModel:
    """Fold flat feature-major weights into a [lag, channel, feature] kernel."""
    weights = np.asarray(weights, dtype=np.float64)
    L = spec.n_lags
    E = len(channel_names)
    if weights.shape != (n_features * L, E):
        raise PreconditionError(
            f"weights must have shape ({n_features * L}, {E}), got {weights.shape}"
        )
    kernel = weights.reshape(n_features, L, E).transpose(1, 2, 0)
    return TrfModel(kernel=kernel.copy(), lag_spec=spec, channel_names=list(channel_names), lam=lam)


def flatten_trf(model: TrfModel) -> np.ndarray:
    """Inverse of reshape_trf: kernel back to flat feature-major weights."""
    return np.ascontiguousarray(model.kernel.transpose(2, 0, 1).reshape(-1, len(model.channel_names)))


def pick_best_lambda(grid, mean_scores) -> float:
    """Highest mean score wins; exact ties go to the larger penalty.

    An empty grid or a score count that differs from the grid's raises
    PreconditionError; a non-finite score raises NumericalError naming
    its penalty.
    """
    grid = [float(g) for g in grid]
    scores = [float(s) for s in mean_scores]
    if not grid:
        raise PreconditionError("lambda grid is empty")
    if len(scores) != len(grid):
        raise PreconditionError(f"{len(scores)} scores for {len(grid)} penalties")
    for lam, score in zip(grid, scores):
        if not np.isfinite(score):
            raise NumericalError(f"validation score at lambda = {lam:g} is not finite ({score})")
    return max(zip(scores, grid))[1]


def _sparse_stack(segments: SegmentSet, indices, spec: LagSpec):
    """CSR design and response of the given segments, stacked in order."""
    import scipy.sparse

    xs, ys = [], []
    for i in indices:
        seg = segments.segments[i]
        xs.append(build_lagged_csr(FeatureSeries(data=seg.x, fs_hz=segments.fs_hz), spec))
        ys.append(seg.y)
    return scipy.sparse.vstack(xs, format="csr"), np.concatenate(ys, axis=0)


def _stack_segments(segments: SegmentSet, indices, spec: LagSpec):
    """Dense design and response of the given segments, stacked in order."""
    X, Y = _sparse_stack(segments, indices, spec)
    return X.toarray(), Y


def _normal_equations(X, Y):
    """Dense X^T X and X^T Y of a CSR design X and its response Y."""
    return (X.T @ X).toarray(), X.T @ Y


def _penalty_scores(X_val, Y_val, W) -> list:
    """Mean channel r of X_val @ W_g against Y_val for each penalty's block W_g of W."""
    target = scaled_columns(Y_val)
    blocks = np.split(W, W.shape[1] // Y_val.shape[1], axis=1)
    return [np.mean(correlate(scaled_columns(X_val @ W_g), target)) for W_g in blocks]


def cross_validate(
    segments: SegmentSet,
    spec: LagSpec,
    grid,
    k: int,
    solver: str = "closed_form",
    iterative: IterativeOptions = IterativeOptions(),
) -> CvReport:
    """Grid-search the ridge penalty with k contiguous temporal folds.

    Parameters
    ----------
    segments : SegmentSet
        Training windows in temporal order; folds are contiguous blocks.
    spec : LagSpec
        Lag range used to expand each segment. Must share the segment
        sampling rate.
    grid : sequence of float
        Candidate penalties. Scores are reported per (penalty, fold).
    k : int
        Fold count, at least 2 and at most the number of segments.
    solver : str
        "closed_form" or "iterative".
    iterative : IterativeOptions
        Settings of the iterative solver, including its shuffling seed.
        The fold layout is deterministic regardless.

    Returns
    -------
    CvReport
        Per-(penalty, fold) validation scores, the winning penalty, and
        the fold index of every segment.
    """
    n = len(segments)
    if k < 2:
        raise PreconditionError(f"need at least 2 folds, got {k}")
    if n < k:
        raise PreconditionError(f"{n} segments cannot fill {k} folds")
    if spec.fs_hz != segments.fs_hz:
        raise PreconditionError(
            f"sampling rates differ: segments {segments.fs_hz} vs lag spec {spec.fs_hz}"
        )
    grid = [float(g) for g in grid]
    if not grid:
        raise PreconditionError("lambda grid is empty")
    if any(g < 0 for g in grid):
        raise PreconditionError("lambda grid entries must be nonnegative")
    if solver not in ("closed_form", "iterative"):
        raise PreconditionError(f"unknown solver {solver!r}")

    folds = np.array_split(np.arange(n), k)
    fold_assignment = [fi for fi, idx in enumerate(folds) for _ in idx]
    stacks = [_sparse_stack(segments, idx, spec) for idx in folds]
    if solver == "closed_form":
        stats = [_normal_equations(X, Y) for X, Y in stacks]
        G_tot = sum(G for G, _ in stats)
        H_tot = sum(H for _, H in stats)

    scores = np.empty((len(grid), k))
    for fi, (X_val, Y_val) in enumerate(stacks):
        if solver == "closed_form":
            G_val, H_val = stats[fi]
            # each fold's Gram is used once, so its buffer takes the training Gram
            W = _ridge_path(np.subtract(G_tot, G_val, out=G_val), H_tot - H_val, grid)
        else:
            train_idx = [i for i in range(n) if fold_assignment[i] != fi]
            X_train, Y_train = _stack_segments(segments, train_idx, spec)
            fits = [fit_iterative(X_train, Y_train, lam, **asdict(iterative)) for lam in grid]
            W = np.hstack([fit.weights for fit in fits])
        scores[:, fi] = _penalty_scores(X_val, Y_val, W)

    return CvReport(
        grid=grid,
        per_lambda_scores=scores,
        best_lambda=pick_best_lambda(grid, scores.mean(axis=1)),
        fold_assignment=fold_assignment,
    )


def fit_trf(
    segments: SegmentSet,
    spec: LagSpec,
    lam: float,
    solver: str = "closed_form",
    iterative: IterativeOptions = IterativeOptions(),
) -> TrfModel:
    """Fit one kernel on every segment in the set at a fixed penalty."""
    if len(segments) == 0:
        raise PreconditionError("cannot fit on an empty segment set")
    if spec.fs_hz != segments.fs_hz:
        raise PreconditionError(
            f"sampling rates differ: segments {segments.fs_hz} vs lag spec {spec.fs_hz}"
        )
    if lam < 0:
        raise PreconditionError(f"lambda must be nonnegative, got {lam}")
    everything = range(len(segments))
    if solver == "closed_form":
        W = _solve_gram(*_normal_equations(*_sparse_stack(segments, everything, spec)), lam)
    elif solver == "iterative":
        X, Y = _stack_segments(segments, everything, spec)
        W = fit_iterative(X, Y, lam, **asdict(iterative)).weights
    else:
        raise PreconditionError(f"unknown solver {solver!r}")
    return reshape_trf(W, spec, segments.channel_names, segments.n_features, lam=lam)


# ---------------------------------------------------------------------------
# serialisation


def write_trf(path, model: TrfModel) -> None:
    meta = {
        "lag_times_s": model.lag_spec.lag_times_s(),
        "channel_names": list(model.channel_names),
        "lambda": float(model.lam),
        "fs_hz": float(model.lag_spec.fs_hz),
        "units": str(model.units),
    }
    write_tensor(path, "f64", list(model.kernel.shape), meta, model.kernel)


def read_trf(path) -> TrfModel:
    kernel, meta = _read_checked(path, 3, {
        "lag_times_s": "float list", "channel_names": "str list", "lambda": "float",
        "fs_hz": "float", "units": "str",
    })
    fs = meta["fs_hz"]
    if not fs > 0:
        raise ValidationError(f"{path}: fs_hz must be positive, got {fs}")
    try:
        lag_samples = [round_half_up(t * fs) for t in meta["lag_times_s"]]
    except OverflowError:  # t * fs beyond the float range
        lag_samples = []
    if not lag_samples or lag_samples != list(
        range(lag_samples[0], lag_samples[0] + len(lag_samples))
    ):
        raise ValidationError(f"{path}: lag times do not form a contiguous range at fs={fs}")
    tmin = lag_samples[0] / fs
    tmax = lag_samples[-1] / fs if len(lag_samples) > 1 else tmin + 0.25 / fs
    try:
        spec = LagSpec(tmin_s=tmin, tmax_s=tmax, fs_hz=fs, lag_samples=lag_samples)
        return TrfModel(
            kernel=kernel,
            lag_spec=spec,
            channel_names=meta["channel_names"],
            lam=meta["lambda"],
            units=meta["units"],
        )
    except PreconditionError as e:
        raise ValidationError(f"{path}: {e}") from None
