"""Small internal helpers."""

import math

import numpy as np

from .errors import DegenerateDataError, NumericalError, PreconditionError


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves toward +infinity.

    Used for every seconds-to-samples conversion in the package so that
    all grids agree on the same convention. floor(x + 0.5) is exact for
    the half-integer boundary and locale/platform independent.
    """
    return math.floor(x + 0.5)


def scaled_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centred columns of a scaled to unit largest magnitude, and their sums of squares.

    An exact power-of-two prescale keeps the column means finite, and the
    scaling after centring keeps the sums of squares from overflowing or
    underflowing whatever the scale of the input. Fewer than 3 rows raise
    PreconditionError; a constant column raises DegenerateDataError.
    """
    if a.shape[0] < 3:
        raise PreconditionError(f"need at least 3 samples, got {a.shape[0]}")
    c = np.ldexp(a, -np.frexp(np.abs(a).max(axis=0))[1])
    c -= c.mean(axis=0)
    scale = np.abs(c).max(axis=0)
    if np.any(scale == 0.0):
        raise DegenerateDataError("correlation is undefined for a constant series")
    c /= scale
    return c, np.einsum("ij,ij->j", c, c)


def correlate(a_scaled, b_scaled) -> np.ndarray:
    """Pearson r of each column pair of two scaled_columns results.

    Non-finite input that makes r non-finite raises NumericalError.
    """
    (ac, saa), (bc, sbb) = a_scaled, b_scaled
    r = np.einsum("ij,ij->j", ac, bc) / np.sqrt(saa * sbb)
    if not np.all(np.isfinite(r)):
        raise NumericalError(
            f"correlation is not finite (r = {r[~np.isfinite(r)][0]}); "
            "the series hold non-finite values"
        )
    return np.clip(r, -1.0, 1.0)
