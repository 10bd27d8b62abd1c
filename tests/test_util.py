import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trfkit._util import round_half_up
from trfkit.errors import PreconditionError

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
