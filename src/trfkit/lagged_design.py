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
]


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
        lags = list(self.lag_samples)
        if not lags:
            raise PreconditionError("lag_samples is empty")
        if lags != list(range(lags[0], lags[-1] + 1)):
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
    return LagSpec(tmin_s, tmax_s, fs_hz, list(range(first, last + 1)))


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
    import scipy.sparse

    if x.fs_hz != spec.fs_hz:
        raise PreconditionError(
            f"sampling rates differ: series {x.fs_hz} vs lag spec {spec.fs_hz}"
        )
    T, D = x.data.shape
    L = spec.n_lags
    t, i = np.nonzero(x.data)
    rows = t[:, None] + np.asarray(spec.lag_samples)
    cols = i[:, None] * L + np.arange(L)
    vals = np.broadcast_to(x.data[t, i][:, None], rows.shape)
    keep = (rows >= 0) & (rows < T)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((cols, rows))
    indptr = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=T), out=indptr[1:])
    return scipy.sparse.csr_array((vals[order], cols[order], indptr), shape=(T, D * L))
