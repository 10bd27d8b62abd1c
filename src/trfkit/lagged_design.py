"""Time-lagged design matrices for deconvolution-style regression.

A lag window [tmin_s, tmax_s] maps to the contiguous integer lag range
round(tmin*fs) .. round(tmax*fs) inclusive. Column i*L + l of the design
matrix holds feature i delayed by lag_samples[l]: entry [t, i*L + l] is
x[t - lag_samples[l], i], with zeros where the shift runs off either end
of the series. Columns are feature-major so each feature owns one
contiguous block of L lag columns.

Word-feature impulse trains are mostly zero, so their designs are too:
build_lagged_csr builds the same matrix in CSR form from the non-zero
samples alone, and the model fitting code works on that form.
build_windows_csr builds the stacked design of any set of equal-length
windows, each zero-padded at its own edges, in one pass and without a
sort; build_lagged_csr is its one-window case. A lag range may span at
most MAX_LAGS lags.
"""

from dataclasses import dataclass

import numpy as np

from ._util import round_half_up
from .errors import PreconditionError
from .preprocess import FeatureSeries

__all__ = [
    "LagSpec",
    "DesignMatrix",
    "lag_range_to_samples",
    "build_lagged_matrix",
    "build_lagged_csr",
    "build_windows_csr",
]

# LagSpec refuses a lag range longer than this before it lists the lags.
MAX_LAGS = 100_000


@dataclass
class LagSpec:
    """Contiguous integer lag range tied to a sampling rate."""

    tmin_s: float
    tmax_s: float
    fs_hz: float
    lag_samples: list[int]

    def __post_init__(self):
        if not (self.fs_hz > 0):
            raise PreconditionError(f"fs_hz must be positive, got {self.fs_hz}")
        if not (self.tmin_s < self.tmax_s):
            raise PreconditionError(
                f"tmin_s must be below tmax_s, got [{self.tmin_s}, {self.tmax_s}]"
            )
        if not self.lag_samples:
            raise PreconditionError("lag_samples is empty")
        first, last = self.lag_samples[0], self.lag_samples[-1]
        if last - first >= MAX_LAGS:  # checked before a list of the lags is made
            raise PreconditionError(
                f"tmin_s={self.tmin_s} to tmax_s={self.tmax_s} at fs_hz={self.fs_hz} spans "
                f"{last - first + 1} lags, more than the {MAX_LAGS} allowed"
            )
        lags = list(self.lag_samples)
        if lags != list(range(first, first + len(lags))):
            raise PreconditionError("lag_samples must be contiguous and increasing")
        self.lag_samples = lags

    @property
    def n_lags(self) -> int:
        return len(self.lag_samples)

    def lag_times_s(self) -> list[float]:
        return [lag / self.fs_hz for lag in self.lag_samples]


@dataclass
class DesignMatrix:
    """Lagged expansion of a feature series; columns are feature-major."""

    data: np.ndarray
    lag_spec: LagSpec
    n_features: int

    def __post_init__(self):
        expected = self.lag_spec.n_lags * self.n_features
        if self.data.ndim != 2 or self.data.shape[1] != expected:
            raise PreconditionError(
                f"design matrix must have {expected} columns "
                f"({self.n_features} features x {self.lag_spec.n_lags} lags), "
                f"got shape {self.data.shape}"
            )


def lag_range_to_samples(tmin_s: float, tmax_s: float, fs_hz: float) -> LagSpec:
    """Convert a lag window in seconds to an inclusive integer sample range."""
    first = round_half_up(tmin_s * fs_hz, f"tmin_s={tmin_s} at fs_hz={fs_hz}")
    last = round_half_up(tmax_s * fs_hz, f"tmax_s={tmax_s} at fs_hz={fs_hz}")
    return LagSpec(tmin_s, tmax_s, fs_hz, range(first, last + 1))


def build_lagged_matrix(x: FeatureSeries, spec: LagSpec) -> DesignMatrix:
    """Expand a feature series into its lagged design matrix.

    Zero padding at the edges: a positive lag looks into the past, so the
    first `lag` rows of that column are zero; a negative lag looks into
    the future and zeros the tail.
    """
    if x.fs_hz != spec.fs_hz:
        raise PreconditionError(
            f"sampling rates differ: series {x.fs_hz} vs lag spec {spec.fs_hz}"
        )
    T, D = x.data.shape
    L = spec.n_lags
    out = np.zeros((T, D * L))
    cols = np.arange(D) * L
    for li, lag in enumerate(spec.lag_samples):
        if lag >= T or lag <= -T:
            continue  # shift leaves nothing inside the window
        if lag >= 0:
            out[lag:, cols + li] = x.data[: T - lag]
        else:
            out[: T + lag, cols + li] = x.data[-lag:]
    return DesignMatrix(data=out, lag_spec=spec, n_features=D)


def build_lagged_csr(x: FeatureSeries, spec: LagSpec) -> "scipy.sparse.csr_array":
    """The lagged design of build_lagged_matrix as a CSR array.

    Built from the non-zero samples alone: sample x[t, i] lands at row
    t + lag_samples[l], column i*L + l, for every lag that keeps the row
    inside the series. The stored entries are exactly the non-zero
    entries of the dense design, so `.toarray()` equals it.
    """
    if x.fs_hz != spec.fs_hz:
        raise PreconditionError(
            f"sampling rates differ: series {x.fs_hz} vs lag spec {spec.fs_hz}"
        )
    return build_windows_csr([x.data], spec)


def build_windows_csr(windows, spec: LagSpec) -> "scipy.sparse.csr_array":
    """Lagged CSR design of equal-length windows stacked in order, each zero-padded at its edges.

    Rows w*n to (w+1)*n, for windows of n samples, are build_lagged_csr of window w
    alone. Nothing is sorted: every lag column keeps its feature's non-zero rows in
    increasing order, so the columns are counted, filled into CSC arrays and
    converted once.
    """
    import scipy.sparse

    windows = [np.asarray(w, dtype=np.float64) for w in windows]
    if not windows or windows[0].ndim != 2 or any(w.shape != windows[0].shape for w in windows):
        raise PreconditionError("need one or more 2-D windows of one shape")
    n, D = windows[0].shape
    shape = (n * len(windows), D * spec.n_lags)
    return scipy.sparse.csc_array(_lagged_csc(windows, spec.lag_samples), shape=shape).tocsr()


def _lagged_csc(windows, lag_samples) -> tuple:
    """CSC (data, indices, indptr) of build_windows_csr; its scratch arrays die on return."""
    x, window = np.concatenate(windows), max(len(windows[0]), 1)
    lags = np.asarray(lag_samples)[:, None]
    # lag l keeps sample t of a window iff lo[l] <= t < hi[l], that is 0 <= t + lag < window
    lo, hi = np.clip(-lags, 0, window), np.clip(window - lags, 0, window)
    rows = [np.flatnonzero(column) for column in x.T]
    # before[k] counts a feature's non-zero samples at times t < k in their windows
    before = [np.bincount(r % window + 1, minlength=window + 1).cumsum() for r in rows]
    indptr = np.concatenate(([0], np.cumsum([b[hi] - b[lo] for b in before], dtype=np.int64)))
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int64)
    for i, r in enumerate(rows):
        t = r % window
        keep = (t >= lo) & (t < hi)  # (L, nnz), lag-major: the CSC order of this feature's columns
        block = slice(indptr[i * len(lags)], indptr[(i + 1) * len(lags)])
        indices[block] = (r + lags)[keep]
        data[block] = np.broadcast_to(x[r, i], keep.shape)[keep]
    return data, indices, indptr
