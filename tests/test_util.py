import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trfkit._util import naming, pow2_scaled, round_half_up, scale_columns_in_place, scaled_columns
from trfkit.errors import DegenerateDataError, FormatError, PreconditionError, TrfkitError

# finite values whose rounding any int64 sample index holds, with margin
held = st.floats(min_value=-(2.0**62), max_value=2.0**62)
# values no sample index can hold: not finite, or of magnitude 2**63 or more
unheld = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(min_value=2.0**63, allow_infinity=False),
    st.floats(max_value=-(2.0**63), allow_infinity=False),
)


@given(held)
def test_rule_is_floor_of_x_plus_a_half(x):
    got = round_half_up(x, "x")
    assert type(got) is int and got == math.floor(x + 0.5)


@given(st.lists(held, max_size=20))
def test_array_form_equals_scalar_form_element_by_element(xs):
    got = round_half_up(np.array(xs, dtype=np.float64), lambda i: f"x[{i}]")
    assert got.dtype == np.int64 and got.shape == (len(xs),)
    assert got.tolist() == [round_half_up(x, "x") for x in xs]


@given(unheld, st.lists(held, max_size=5), st.lists(unheld, max_size=3))
def test_values_no_sample_index_can_hold_are_refused_by_name(bad, before, after):
    with pytest.raises(PreconditionError, match=r"^window_s is \S+ samples"):
        round_half_up(bad, "window_s")
    xs = np.array(before + [bad] + after, dtype=np.float64)
    with pytest.raises(PreconditionError, match=rf"^event {len(before)} is"):
        round_half_up(xs, lambda i: f"event {i}")


def test_halves_round_toward_positive_infinity():
    assert [round_half_up(x, "x") for x in (-2.5, -0.5, 0.5, 2.5)] == [-2, 0, 1, 3]


def _scaling(fn, a):
    """The bits of fn(a), or the type and message of the error it raises."""
    try:
        c, sums = fn(a)
    except TrfkitError as e:
        return type(e), str(e)
    return c.tobytes(), sums.tobytes()


def _reference_scaling(a):
    """The scaling spelt out with a fresh array at each step: the bits both forms must give."""
    if a.shape[0] < 3:
        raise PreconditionError(f"need at least 3 samples, got {a.shape[0]}")
    c = pow2_scaled(a)
    c -= c.mean(axis=0)
    scale = np.abs(c).max(axis=0)
    if np.any(scale == 0.0):
        raise DegenerateDataError("correlation is undefined for a constant series")
    c /= scale
    return c, np.einsum("ij,ij->j", c, c)


# columns spread over the whole finite range, and columns that are constant
_columns = arrays(
    np.float64,
    st.tuples(st.integers(0, 12), st.integers(1, 5)),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@given(_columns, st.sampled_from("CF"), st.lists(st.tuples(st.integers(0, 4), st.floats(-1e9, 1e9))))
@example(np.arange(6.0).reshape(2, 3), "C", [])  # fewer than 3 rows
@example(np.arange(12.0).reshape(4, 3), "F", [(1, 3.0)])  # a constant column
@example(np.array([[1.7e308], [1.6e308], [-1e308]]), "C", [])  # a sum only the prescale keeps finite
def test_copying_and_in_place_scaling_give_the_reference_bits_and_errors(a, order, constants):
    a = np.array(a, order=order)
    for col, value in constants:
        a[:, col % a.shape[1]] = value
    given_bits = a.tobytes()
    expected = _scaling(_reference_scaling, a)
    assert _scaling(scaled_columns, a) == expected
    assert a.tobytes() == given_bits  # the copying form leaves its input alone
    assert _scaling(scale_columns_in_place, a) == expected  # a is overwritten from here on
    if type(expected[0]) is bytes:
        assert a.tobytes() == expected[0]  # the scaled columns are a itself


def test_scaling_refuses_short_and_constant_columns():
    for scale in (scaled_columns, scale_columns_in_place):
        with pytest.raises(PreconditionError, match="need at least 3 samples, got 2"):
            scale(np.ones((2, 3)))
        with pytest.raises(DegenerateDataError, match="constant series"):
            scale(np.array([[1.0, 3.0], [2.0, 3.0], [4.0, 3.0]]))


def test_copying_scaling_keeps_float32_and_scales_integers_as_float64():
    ints = np.array([[1, -4], [2, 7], [6, 5]])
    assert scaled_columns(ints[:, :1].astype(np.float32))[0].dtype == np.float32
    assert _scaling(scaled_columns, ints) == _scaling(scaled_columns, ints.astype(np.float64))


def test_naming_prefixes_a_trfkit_error_once_and_keeps_its_type():
    with pytest.raises(DegenerateDataError) as info:
        with naming("a.btsr: "), naming("a.btsr: "):  # nested blocks of one name
            raise DegenerateDataError("constant")
    assert str(info.value) == "a.btsr: constant"
    with pytest.raises(FormatError, match="^b.tsv: a.btsr: bad$"):
        with naming("b.tsv: "), naming("a.btsr: "):
            raise FormatError("bad")
    with pytest.raises(ValueError, match="^plain$"):  # only trfkit errors are named
        with naming("a.btsr: "):
            raise ValueError("plain")
