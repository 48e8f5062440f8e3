"""Points are exact nonnegative rationals with a dense order."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intlat.order import ZERO, above, midpoint, parse_point, point

rationals = st.fractions(min_value=0, max_value=100)


def test_point_accepts_ints_strings_and_pairs():
    assert point(3) == Fraction(3)
    assert point("5/2") == Fraction(5, 2)
    assert point(7, 2) == Fraction(7, 2)
    assert point(Fraction(1, 3)) == Fraction(1, 3)


def test_point_rejects_negatives_and_garbage():
    with pytest.raises(ValueError):
        point(-1)
    with pytest.raises(ValueError):
        point("-2/3")
    with pytest.raises(ValueError):
        point("one half")
    with pytest.raises(ValueError):
        point(1, 0)


@given(rationals)
def test_parse_format_round_trip(p):
    assert parse_point(str(p)) == p


def test_format_is_lowest_terms():
    assert str(point(4, 8)) == "1/2"
    assert str(point(6, 3)) == "2"


@given(rationals, rationals)
def test_midpoint_lies_strictly_between(a, b):
    if a == b:
        with pytest.raises(ValueError):
            midpoint(a, b)
        return
    lo, hi = min(a, b), max(a, b)
    m = midpoint(lo, hi)
    assert lo < m < hi


@given(rationals)
def test_above_is_strictly_above(p):
    assert above(p) > p


def test_zero_is_the_left_end():
    assert ZERO == 0
    assert midpoint(ZERO, point(1)) == Fraction(1, 2)
