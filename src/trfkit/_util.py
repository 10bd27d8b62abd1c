"""Small internal helpers, and the one table of JSON kinds that config and BTSR readers share."""

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


def _finite_float(value):
    if type(value) not in (int, float):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return value if math.isfinite(value) else None


def _float_list(value):
    if type(value) is not list:
        return None
    floats = [_finite_float(v) for v in value]
    return None if None in floats else floats


def _float_rows(value):
    if type(value) is not list:
        return None
    rows = [_float_list(row) for row in value]
    return None if None in rows or len({len(row) for row in rows}) > 1 else rows


# One checker per kind: it returns the value the pipeline uses, or None when
# the JSON value has the wrong type. Booleans are not numbers here.
JSON_KINDS = {
    "int": ("an integer", lambda v: v if type(v) is int else None),
    "float": ("a finite number", _finite_float),
    "str": ("a string", lambda v: v if type(v) is str else None),
    "bool": ("a boolean", lambda v: v if type(v) is bool else None),
    "str list": (
        "a list of strings",
        lambda v: v if type(v) is list and all(type(s) is str for s in v) else None,
    ),
    "float list": ("a list of finite numbers", _float_list),
    "float rows": ("a list of equal-length lists of finite numbers", _float_rows),
}


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
