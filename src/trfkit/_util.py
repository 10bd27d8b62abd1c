"""Small internal helpers, and the one table of JSON kinds that config and BTSR readers share."""

from contextlib import contextmanager

import numpy as np

from .errors import DegenerateDataError, FormatError, NumericalError, PreconditionError, TrfkitError


@contextmanager
def naming(prefix: str):
    """Prefix a trfkit error raised in the block by what it concerns, once.

    The error is raised again as the same type. One whose message already
    starts with prefix, as from a nested block of the same name, passes as it is.
    """
    try:
        yield
    except TrfkitError as e:
        if str(e).startswith(prefix):
            raise
        raise type(e)(prefix + str(e)) from None


def decode_utf8(raw: bytes, offset: int = 0) -> str:
    """raw decoded as UTF-8; a bad byte raises FormatError naming its file offset.

    `offset` is the file position of raw's first byte.
    """
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"not UTF-8 at byte offset {offset + e.start}") from None


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
    """scale_columns_in_place on an exact copy of a, in the float dtype np.ldexp gives a."""
    return scale_columns_in_place(np.ldexp(a, 0))


def scale_columns_in_place(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centred columns of a scaled to unit largest magnitude, and their sums of squares.

    a is a float array the caller gives up: it is overwritten and returned,
    and beside it only per-column arrays are made. An exact power-of-two
    prescale keeps the column means finite, and the scaling after centring
    keeps the sums of squares from overflowing or underflowing whatever the
    scale of the input. Fewer than 3 rows raise PreconditionError; a
    constant column raises DegenerateDataError.
    """
    if a.shape[0] < 3:
        raise PreconditionError(f"need at least 3 samples, got {a.shape[0]}")
    np.ldexp(a, -np.frexp(_largest_magnitudes(a))[1], out=a)
    a -= a.mean(axis=0)
    scale = _largest_magnitudes(a)
    if np.any(scale == 0.0):
        raise DegenerateDataError("correlation is undefined for a constant series")
    a /= scale
    return a, np.einsum("ij,ij->j", a, a)


def _largest_magnitudes(a: np.ndarray) -> np.ndarray:
    """np.abs(a).max(axis=0), NaN included, without the np.abs temporary."""
    return np.maximum(a.max(axis=0), -a.min(axis=0))


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
