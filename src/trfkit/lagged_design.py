"""Time-lagged design matrices for deconvolution-style regression.

A lag window [tmin_s, tmax_s] maps to the contiguous integer lag range
round(tmin*fs) .. round(tmax*fs) inclusive. Column i*L + l of the design
matrix holds feature i delayed by lag_samples[l]: entry [t, i*L + l] is
x[t - lag_samples[l], i], with zeros where the shift runs off either end
of the series. Columns are feature-major so each feature owns one
contiguous block of L lag columns.

Word-feature impulse trains are mostly zero, so their designs are too: one
routine builds every design in CSR form from each window's (row, vector)
events, storing no zero or -0.0 component. build_windows_csr takes windows
as EventSeries or as dense arrays, which one pass over their rows turns into
events; build_lagged_csr is its one-window case, and build_lagged_matrix
that design made dense. A lag range may span at most MAX_LAGS lags.
"""

from dataclasses import dataclass

import numpy as np

from ._util import round_half_up
from .errors import PreconditionError
from .preprocess import EventSeries, FeatureSeries

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
    """Expand a feature series into its lagged design matrix: build_lagged_csr, made dense.

    Zero padding at the edges: a positive lag looks into the past, so the
    first `lag` rows of that column are zero; a negative lag looks into
    the future and zeros the tail.
    """
    return DesignMatrix(build_lagged_csr(x, spec).toarray(), lag_spec=spec, n_features=x.n_features)


def build_lagged_csr(x: FeatureSeries, spec: LagSpec) -> "scipy.sparse.csr_array":
    """The lagged design of a feature series as a CSR array.

    Sample x[t, i] lands at row t + lag_samples[l], column i*L + l, for every
    lag that keeps the row inside the series; the stored entries are exactly
    the non-zero ones.
    """
    _check_rate(x.fs_hz, spec)
    return build_windows_csr([x.data], spec)


def build_windows_csr(windows, spec: LagSpec) -> "scipy.sparse.csr_array":
    """Lagged CSR design of equal-length windows stacked in order, each zero-padded at its edges.

    A window is an EventSeries of n samples at the spec's rate, or a dense (n, D)
    array, which carries no rate. Rows w*n to (w+1)*n are build_lagged_csr of
    window w alone. Nothing is sorted: every lag column keeps its feature's
    non-zero rows in increasing order, so the columns are counted, filled into
    CSC arrays and converted once.
    """
    import scipy.sparse

    events = [_window_events(w, spec) for w in windows]
    if not events or len({(n, v.shape[1]) for n, _, v in events}) != 1:
        raise PreconditionError("need one or more 2-D windows of one shape")
    n, D = events[0][0], events[0][2].shape[1]
    shape = (n * len(events), D * spec.n_lags)
    return scipy.sparse.csc_array(_lagged_csc(events, spec.lag_samples), shape=shape).tocsr()


def _check_rate(fs_hz: float, spec: LagSpec, what: str = "series") -> None:
    if fs_hz != spec.fs_hz:
        raise PreconditionError(f"sampling rates differ: {what} {fs_hz} vs lag spec {spec.fs_hz}")


def _window_events(window, spec: LagSpec) -> tuple:
    """(n_samples, rows, vectors) of a window; a dense one keeps its rows that are not all zero."""
    if isinstance(window, EventSeries):
        _check_rate(window.fs_hz, spec)
        return window.n_samples, window.samples, window.rows
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 2:
        raise PreconditionError("need one or more 2-D windows of one shape")
    rows = np.flatnonzero(x.any(axis=1))
    return x.shape[0], rows, x[rows]


def _lagged_csc(events, lag_samples) -> tuple:
    """CSC (data, indices, indptr) of the windows' (n, rows, vectors); its scratch dies on return."""
    window = max(events[0][0], 1)
    stacked = np.concatenate([w * window + r for w, (_, r, _) in enumerate(events)])
    x = np.concatenate([v for _, _, v in events])
    lags = np.asarray(lag_samples)[:, None]
    # lag l keeps sample t of a window iff lo[l] <= t < hi[l], that is 0 <= t + lag < window
    lo, hi = np.clip(-lags, 0, window), np.clip(window - lags, 0, window)
    nonzero = [np.flatnonzero(column) for column in x.T]
    rows = [stacked[k] for k in nonzero]
    # before[k] counts a feature's non-zero samples at times t < k in their windows
    before = [np.bincount(r % window + 1, minlength=window + 1).cumsum() for r in rows]
    indptr = np.concatenate(([0], np.cumsum([b[hi] - b[lo] for b in before], dtype=np.int64)))
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int64)
    for i, (k, r) in enumerate(zip(nonzero, rows)):
        t = r % window
        keep = (t >= lo) & (t < hi)  # (L, nnz), lag-major: the CSC order of this feature's columns
        block = slice(indptr[i * len(lags)], indptr[(i + 1) * len(lags)])
        indices[block] = (r + lags)[keep]
        data[block] = np.broadcast_to(x[k, i], keep.shape)[keep]
    return data, indices, indptr
