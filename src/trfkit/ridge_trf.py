"""Ridge estimation of multichannel temporal response kernels.

Weights solve (X^T X + lambda I) W = X^T Y with no intercept; both sides
are expected to be standardised upstream, so kernels come out in
arbitrary units (z-scored response per z-scored feature). A closed-form
fit at one penalty factorises the regularised Gram matrix (Cholesky);
the iterative path runs seeded mini-batch gradient descent on the same
objective.

Cross-validation, the closed-form fit and evaluation share one path for
the sufficient statistics: each segment set (a fold, the training set,
the test set) is one call of lagged_design.build_windows_csr, which
builds its CSR design straight from the non-zero samples without a sort.
X^T Y is a sparse product, and X^T X is formed by fixed-width column
blocks of it, X^T X[:, j0:j1], so no P x P sparse product is made. The
iterative solver works on the dense design: each kept fold design writes
its own row block of one training array.

Closed-form cross-validation holds one Fortran P x P buffer for the whole
search. A first pass builds every fold's design and sums its Gram into the
buffer and its X^T Y into a (P, E) total; the strict upper triangle and a
copy of the diagonal then keep the Gram totals. Each fold writes its
training Gram (the totals less its own Gram) into the lower triangle,
where the reduction runs in place and leaves the upper triangle as it
was. The fold designs are kept, their responses are not: a fold's
response is concatenated again when the fold is scored. So the search
holds at once the P x P buffer, the fold designs, one fold's response and
one weight block with every penalty's weights. After the last fold the
chosen penalty's Cholesky factorises the totals in the lower triangle,
and the report carries the weights it gives: the closed-form final fit at
that penalty, given the report, builds no design, forms no Gram and
factorises nothing.

Cross-validation assigns segments to contiguous folds in temporal order
and scores each candidate penalty by the mean Pearson correlation across
channels on the held-out fold, concatenated over its segments. Ties
resolve toward the stronger penalty. The closed-form search reduces each
fold's training Gram to tridiagonal form once, X^T X = Q T Q^T, so every
penalty costs one O(P) tridiagonal solve (Golub & Van Loan, Matrix
Computations, 4th ed., section 8.3.1).

A design may be at most MAX_DESIGN_COLUMNS columns wide, so that no fit
asks for a Gram that no memory holds.
"""

import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from ._util import correlate, round_half_up, scaled_columns
from .errors import (
    DivergenceError,
    NumericalError,
    PreconditionError,
    SingularSystemError,
    ValidationError,
)
from .lagged_design import DesignMatrix, LagSpec, build_windows_csr
from .preprocess import SegmentSet
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

# cross_validate and fit_trf refuse a wider design before they build it: its
# P x P Gram would take 2 GiB
MAX_DESIGN_COLUMNS = 16_384
_GRAM_BLOCK = 64  # columns per block of a Gram product


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
        _check_penalty(self.lam)

    @property
    def n_features(self) -> int:
        return self.kernel.shape[2]


@dataclass
class CvReport:
    """Grid-search record: validation score per (penalty, fold).

    A closed-form search also keeps the (P, E) weights that solve its
    training totals over every segment at best_lambda. fit_trf takes them
    at best_lambda in place of stacking the segments again; they are
    neither compared nor printed.
    """

    grid: list[float]
    per_lambda_scores: np.ndarray  # (len(grid), n_folds)
    best_lambda: float
    fold_assignment: list[int]
    best_weights: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass
class IterativeFit:
    """Result of the gradient-descent solver."""

    weights: np.ndarray
    stop_reason: str  # "tol" or "max_epochs"
    epochs: int
    objective: float


@dataclass(frozen=True)
class IterativeOptions:
    """Gradient-descent solver settings; fit_iterative and the config read their defaults here."""

    lr: float = 1e-4
    batch_size: int = 64
    tol: float = 1e-8
    max_epochs: int = 1000
    seed: int = 0


def _check_penalty(lam, what: str = "lambda") -> None:
    """A penalty is a finite number >= 0; anything else raises PreconditionError naming it."""
    if not (math.isfinite(lam) and lam >= 0):
        raise PreconditionError(f"{what} must be a finite number >= 0, got {lam}")


def make_lambda_grid(lo: float, hi: float, n: int) -> list[float]:
    """n log-spaced penalties from lo to hi, endpoints exact."""
    _check_penalty(lo, "lower grid bound")
    _check_penalty(hi, "upper grid bound")
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


def _solve_gram(
    XtX: np.ndarray, XtY: np.ndarray, lam: float, overwrite_a: bool = False
) -> np.ndarray:
    """Weights solving (XtX + lam I) W = XtY by Cholesky, read from XtX's lower triangle.

    By default LAPACK factorises one Fortran-ordered copy and XtX is left as
    it was. With overwrite_a, a Fortran-ordered XtX is factorised in place:
    its diagonal and lower triangle are overwritten, its strict upper
    triangle is neither read nor written.
    """
    import scipy.linalg

    A = XtX if overwrite_a else np.array(XtX, order="F")
    A[np.diag_indices_from(A)] += lam
    try:
        factor = scipy.linalg.cho_factor(A, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise _not_positive_definite(lam) from None
    return scipy.linalg.cho_solve(factor, XtY, check_finite=False)


def _apply_q(trans: str, reflectors: np.ndarray, tau: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Q' C (trans "N") or Q'^T C (trans "T") for QR-stored Householder reflectors."""
    import scipy.linalg

    ormqr = scipy.linalg.lapack.dormqr
    # LAPACK writes nothing to C on a workspace query, so f2py need not copy it
    lwork = int(ormqr("L", trans, reflectors, tau, C, -1, overwrite_c=1)[1][0])
    return ormqr("L", trans, reflectors, tau, C, lwork, overwrite_c=1)[0]


def _ridge_path(XtX: np.ndarray, XtY: np.ndarray, grid):
    """Ridge weights at every penalty of grid from one tridiagonal reduction.

    X^T X = Q T Q^T (LAPACK dsytrd) turns each (X^T X + lam I) W = X^T Y
    into (T + lam I) Z = Q^T X^T Y, one O(P) tridiagonal solve, and one
    back-transform W = Q Z serves all penalties. Returns an iterator over
    the (P, E) weights of each penalty in grid order; all of them are
    solved before it is returned, and each block is assembled as it is
    reached. The reduction runs in place on XtX when it is Fortran- or
    C-contiguous (a C-ordered XtX is read through its transpose, the same
    matrix), so pass a copy to keep it; LAPACK copies any other layout.
    Failures raise as _solve_gram's do.
    """
    import scipy.linalg

    P, E = XtY.shape
    if P == 1:  # nothing to reduce, and dptsv takes no empty subdiagonal
        return iter([_solve_gram(XtX, XtY, lam) for lam in grid])
    # A Gram's zero diagonal entry is an all-zero row. Cholesky meets it as an
    # exact zero pivot; the reduction mixes it into other rows, where rounding
    # can leave T + 0 I positive definite.
    zero_row = not np.all(np.diagonal(XtX))
    lwork = int(scipy.linalg.lapack.dsytrd_lwork(P, lower=1)[0])
    # dsytrd copies an input that is not Fortran-contiguous; XtX is symmetric,
    # so whichever of it and its transpose is Fortran-contiguous is the same matrix
    A = XtX if XtX.flags.f_contiguous else XtX.T
    c, d, e, tau, _ = scipy.linalg.lapack.dsytrd(A, lower=1, lwork=lwork, overwrite_a=1)
    # Q = diag(1, Q'), with Q' stored as QR reflectors in c[1:, :-1]: read them in
    # place as the first P - 1 rows of a (P, P - 1) Fortran array with leading
    # dimension P, which starts one element into c
    reflectors = c.reshape(-1, order="F")[1 : 1 + P * (P - 1)].reshape(P, P - 1, order="F")
    B = np.array(XtY, order="F")
    B[1:] = _apply_q("T", reflectors, tau, B[1:])
    # Q' acts on rows 1: alone, so they get their own Fortran block, which dormqr
    # transforms in place; row 0 of every penalty's weights is kept apart
    row0 = np.empty(len(grid) * E)
    rest = np.empty((P - 1, len(grid) * E), order="F")
    for gi, lam in enumerate(grid):
        _, _, Z, info = scipy.linalg.lapack.dptsv(d + lam, e, B)
        if info > 0 or (lam == 0 and zero_row):
            raise _not_positive_definite(lam)
        row0[gi * E : (gi + 1) * E] = Z[0]
        rest[:, gi * E : (gi + 1) * E] = Z[1:]
        del Z  # so that the next penalty's solve does not sit beside it
    del B  # nor does the back-transform need the right-hand side
    return _penalty_blocks(row0, _apply_q("N", reflectors, tau, rest), E)


def _penalty_blocks(row0: np.ndarray, rest: np.ndarray, E: int):
    """Each penalty's (P, E) weights from row 0 and rows 1: of a ridge path, one at a time."""
    for j0 in range(0, row0.size, E):
        W = np.empty((rest.shape[0] + 1, E))
        W[0] = row0[j0 : j0 + E]
        W[1:] = rest[:, j0 : j0 + E]
        yield W


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
    _check_penalty(lam)
    # X^T X is exactly symmetric, so its transpose is the same matrix in the
    # Fortran order that lets the Cholesky run in place
    return _solve_gram((X.T @ X).T, X.T @ Y, lam, overwrite_a=True)


def fit_iterative(
    X,
    Y,
    lam: float,
    lr: float = IterativeOptions.lr,
    batch_size: int = IterativeOptions.batch_size,
    max_epochs: int = IterativeOptions.max_epochs,
    tol: float = IterativeOptions.tol,
    seed: int = IterativeOptions.seed,
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
    _check_penalty(lam)
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
    """CSR design and response of the given segments, stacked in order by one build."""
    X = build_windows_csr([segments.segments[i].x for i in indices], spec)
    return X, _stacked_response(segments, indices)


def _stacked_response(segments: SegmentSet, indices) -> np.ndarray:
    """Response of the given segments, concatenated in order."""
    return np.concatenate([segments.segments[i].y for i in indices])


def _dense_rows(stacks):
    """One dense design and response from (CSR design, response) pairs, stacked in order."""
    xs, ys = zip(*stacks)
    X_all = np.empty((sum(X.shape[0] for X in xs), xs[0].shape[1]))
    row = 0
    for X in xs:  # each design zeroes its own row block, then writes its entries there
        X.toarray(out=X_all[row : row + X.shape[0]])
        row += X.shape[0]
    return X_all, np.concatenate(ys, axis=0)


def _stack_segments(segments: SegmentSet, indices, spec: LagSpec):
    """Dense design and response of the given segments, stacked in order."""
    return _dense_rows([_sparse_stack(segments, indices, spec)])


def _column_blocks(P: int) -> list:
    """(j0, j1) bounds of the _GRAM_BLOCK-wide column blocks of a P-column Gram."""
    return [(j0, min(j0 + _GRAM_BLOCK, P)) for j0 in range(0, P, _GRAM_BLOCK)]


def _gram_blocks(X):
    """Column blocks (j0, j1, X^T X[:, j0:j1]) of a CSR design's Gram, each dense.

    Each block holds the same row-ordered sums as the full sparse product,
    bit for bit, and that product is exactly symmetric. No P x P sparse
    product is formed.
    """
    Xc = X.tocsc()  # its column slices are cheap, and CSC times CSC converts nothing
    for j0, j1 in _column_blocks(X.shape[1]):
        yield j0, j1, (X.T @ Xc[:, j0:j1]).toarray()


def _add_gram(G: np.ndarray, X) -> None:
    """G += X^T X for a CSR design X, one block of columns at a time."""
    for j0, j1, block in _gram_blocks(X):
        G[:, j0:j1] += block


def _fill_lower(G: np.ndarray, diag: np.ndarray, X=None) -> None:
    """Write the totals, less X^T X when a CSR design X is given, into G's lower triangle.

    The totals are G's strict upper triangle, read through its mirror, and
    diag; neither is written. Each entry is the total less X's entry, as
    the full subtraction of the two Grams gives it.
    """
    if X is None:
        blocks = ((j0, j1, None) for j0, j1 in _column_blocks(len(diag)))
    else:
        blocks = _gram_blocks(X)
    for j0, j1, block in blocks:
        lower = G[j0:j1, j0:].T.copy()  # rows j0: of columns j0:j1, mirrored from above
        np.fill_diagonal(lower, diag[j0:j1])
        if block is not None:
            lower -= block[j0:]
        np.copyto(G[j0:, j0:j1], lower, where=np.tri(*lower.shape, dtype=bool))


def _penalty_scores(X_val, target, weights) -> list:
    """Mean channel r of X_val @ W_g against the held-out response for each penalty's weights W_g.

    target is the response's scaled_columns, so the response itself need not be kept.
    """
    return [np.mean(correlate(scaled_columns(X_val @ W_g), target)) for W_g in weights]


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
        the fold index of every segment; in closed form also the weights
        that solve the training totals over every segment at the winning
        penalty, for fit_trf.
    """
    n = len(segments)
    if k < 2:
        raise PreconditionError(f"need at least 2 folds, got {k}")
    if n < k:
        raise PreconditionError(f"{n} segments cannot fill {k} folds")
    _check_design(segments, spec)
    grid = [float(g) for g in grid]
    if not grid:
        raise PreconditionError("lambda grid is empty")
    for g in grid:
        _check_penalty(g, "lambda grid entry")
    if solver not in ("closed_form", "iterative"):
        raise PreconditionError(f"unknown solver {solver!r}")

    folds = np.array_split(np.arange(n), k)
    fold_assignment = [fi for fi, idx in enumerate(folds) for _ in idx]
    scores = np.empty((len(grid), k))
    if solver == "iterative":
        stacks = [_sparse_stack(segments, idx, spec) for idx in folds]
        for fi, (X_val, Y_val) in enumerate(stacks):
            X_train, Y_train = _dense_rows(st for fj, st in enumerate(stacks) if fj != fi)
            fits = [fit_iterative(X_train, Y_train, lam, **asdict(iterative)) for lam in grid]
            scores[:, fi] = _penalty_scores(
                X_val, scaled_columns(Y_val), [fit.weights for fit in fits]
            )
        return CvReport(
            grid=grid,
            per_lambda_scores=scores,
            best_lambda=pick_best_lambda(grid, scores.mean(axis=1)),
            fold_assignment=fold_assignment,
        )

    # One Fortran buffer G serves the whole search. This pass builds each fold's
    # design and adds its Gram and X^T Y into the totals in fold order, from +0.0
    # as sum() would; from then on G's strict upper triangle and diag hold the
    # Gram totals. Only the designs are kept: a fold's response is concatenated
    # again when the fold is scored, and its X^T Y is the same product again.
    P = segments.n_features * spec.n_lags
    G = np.zeros((P, P), order="F")
    H_tot = 0
    designs = []
    for idx in folds:
        X, Y = _sparse_stack(segments, idx, spec)
        _add_gram(G, X)
        H_tot = H_tot + X.T @ Y
        designs.append(X)
    del Y
    diag = G.diagonal().copy()
    for fi, (idx, X_val) in enumerate(zip(folds, designs)):
        # the fold's training Gram, reduced in place in the lower triangle
        _fill_lower(G, diag, X_val)
        Y_val = _stacked_response(segments, idx)
        weights = _ridge_path(G, H_tot - X_val.T @ Y_val, grid)
        target = scaled_columns(Y_val)
        del Y_val  # scoring needs only its scaled copy, and that only for this fold
        scores[:, fi] = _penalty_scores(X_val, target, weights)
        del target
    del designs, X_val  # the fold designs are not needed again
    best = pick_best_lambda(grid, scores.mean(axis=1))
    # the totals at the chosen penalty are factorised in the same lower triangle
    _fill_lower(G, diag)
    return CvReport(
        grid=grid,
        per_lambda_scores=scores,
        best_lambda=best,
        fold_assignment=fold_assignment,
        best_weights=_solve_gram(G, H_tot, best, overwrite_a=True),
    )


def _check_design(segments: SegmentSet, spec: LagSpec) -> None:
    """Refuse another sampling rate, or a design wider than MAX_DESIGN_COLUMNS, before a build."""
    if spec.fs_hz != segments.fs_hz:
        raise PreconditionError(
            f"sampling rates differ: segments {segments.fs_hz} vs lag spec {spec.fs_hz}"
        )
    n_features = segments.n_features
    P = n_features * spec.n_lags
    if P > MAX_DESIGN_COLUMNS:
        raise PreconditionError(
            f"{n_features} features x {spec.n_lags} lags (tmin_s={spec.tmin_s} to "
            f"tmax_s={spec.tmax_s} at fs_hz={spec.fs_hz}) make P = {P} design columns, whose "
            f"P x P Gram would take {P * P * 8 / 2**30:.1f} GiB; at most "
            f"{MAX_DESIGN_COLUMNS} columns are allowed"
        )


def _check_report(cv: CvReport, segments: SegmentSet, spec: LagSpec) -> None:
    """Refuse a cross-validation report that was not made on these segments and lags."""
    if len(cv.fold_assignment) != len(segments):
        raise PreconditionError(
            f"the cross-validation report covers {len(cv.fold_assignment)} segments "
            f"but {len(segments)} were given"
        )
    P, E = segments.n_features * spec.n_lags, segments.n_channels
    if cv.best_weights is not None and cv.best_weights.shape != (P, E):
        raise PreconditionError(
            f"the cross-validation report's weights have shape {cv.best_weights.shape}, "
            f"but {segments.n_features} features x {spec.n_lags} lags and "
            f"{E} channels need ({P}, {E})"
        )


def fit_trf(
    segments: SegmentSet,
    spec: LagSpec,
    lam: float,
    solver: str = "closed_form",
    iterative: IterativeOptions = IterativeOptions(),
    cv: CvReport | None = None,
) -> TrfModel:
    """Fit one kernel on every segment in the set at a fixed penalty.

    cv, the report of cross_validate on the same segments and lag spec,
    spares the closed-form fit at the report's best_lambda stacking the
    segments, forming their Gram and solving it: the fit takes the weights
    the report already solved. At any other penalty the fit runs as it
    does without a report. A report that does not fit the segments raises
    PreconditionError.
    """
    if len(segments) == 0:
        raise PreconditionError("cannot fit on an empty segment set")
    _check_design(segments, spec)
    _check_penalty(lam)
    if cv is not None:
        _check_report(cv, segments, spec)
    everything = range(len(segments))
    if solver == "closed_form":
        if cv is not None and lam == cv.best_lambda and cv.best_weights is not None:
            W = cv.best_weights
        else:
            X, Y = _sparse_stack(segments, everything, spec)
            G = np.zeros((X.shape[1], X.shape[1]), order="F")
            _add_gram(G, X)
            W = _solve_gram(G, X.T @ Y, lam, overwrite_a=True)
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
        lag_samples = [round_half_up(t * fs, "lag time") for t in meta["lag_times_s"]]
    except PreconditionError:  # a lag time that no sample index can hold
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
