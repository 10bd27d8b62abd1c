"""Small internal helpers, and the one table of JSON kinds that config and BTSR readers share."""

import numpy as np

from .errors import DegenerateDataError, FormatError, NumericalError, PreconditionError


def decode_utf8(raw: bytes, path, offset: int = 0) -> str:
    """raw decoded as UTF-8; a bad byte raises FormatError naming path and its file offset.

    `offset` is the file position of raw's first byte.
    """
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 at byte offset {offset + e.start}") from None


def round_half_up(x, what):
    """Sample position x rounded half up, floor(x + 0.5): the one seconds-to-samples rule.

    A number gives an int, an array an int64 array. A value that is not
    finite, or of magnitude 2**63 or more, fits no sample index and raises
    PreconditionError naming `what`, for an array `what(i)` of its first such i.
    """
    a = np.asarray(x, dtype=np.float64)
    bad = np.flatnonzero(~(np.abs(a) < 2.0**63))
    if bad.size:
        name = what(bad[0]) if a.ndim else what
        raise PreconditionError(f"{name} is {a.flat[bad[0]]:g} samples, beyond any sample index")
    samples = np.floor(a + 0.5).astype(np.int64)
    return samples if a.ndim else int(samples)


def _finite_float(value):
    # 2**1024 - 2**970 is the least integer float() cannot convert (it rounds to 2**1024)
    if type(value) not in (int, float) or not abs(value) < 2**1024 - 2**970:
        return None
    return float(value)


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


def pow2_scaled(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """a scaled along axis by exact powers of two, each slice's largest magnitude in [0.5, 1).

    The scaling is exact unless a value lies more than 2**1021 below its
    slice's largest magnitude, so ratios such as z-scores keep their bits,
    and sums of squares over the result cannot overflow.
    """
    return np.ldexp(a, -np.frexp(np.abs(a).max(axis=axis, keepdims=True))[1])


def scaled_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centred columns of a scaled to unit largest magnitude, and their sums of squares.

    An exact power-of-two prescale keeps the column means finite, and the
    scaling after centring keeps the sums of squares from overflowing or
    underflowing whatever the scale of the input. Fewer than 3 rows raise
    PreconditionError; a constant column raises DegenerateDataError.
    """
    if a.shape[0] < 3:
        raise PreconditionError(f"need at least 3 samples, got {a.shape[0]}")
    c = pow2_scaled(a)
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
