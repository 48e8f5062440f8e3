"""Finite point sets: lattice laws, min/max, successor preimage, and parsing.

The lattice laws are checked generatively; the successor-preimage
operation gets hand-computed values since it is the one operation whose
meaning is easy to get subtly wrong.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intlat.finset import EMPTY_FS, FinSet, format_finset, parse_finset, zero_set
from intlat.oracle import enum_finsets
from intlat.semantics import widened

points = st.fractions(min_value=0, max_value=20)
finsets = st.frozensets(points, max_size=6).map(FinSet.of)


@given(finsets, finsets)
def test_union_intersect_commute(a, b):
    assert a.union(b) == b.union(a)
    assert a.intersect(b) == b.intersect(a)


@given(finsets, finsets, finsets)
def test_union_intersect_associate(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@given(finsets, finsets)
def test_absorption(a, b):
    assert a.union(a.intersect(b)) == a
    assert a.intersect(a.union(b)) == a


@given(finsets)
def test_empty_is_bottom(a):
    assert a.union(EMPTY_FS) == a
    assert a.intersect(EMPTY_FS) == EMPTY_FS


@given(finsets, finsets)
def test_subset_agrees_with_intersection(a, b):
    assert a.issubset(b) == (a.intersect(b) == a)


@given(finsets, finsets)
def test_difference_is_relative_complement(a, b):
    d = a.difference(b)
    assert d.intersect(b) == EMPTY_FS
    assert d.union(a.intersect(b)) == a


@given(finsets, points)
def test_membership_reads_the_elements(a, p):
    assert (p in a) == any(p == x for x in a.elements)
    assert all(x in a for x in a.elements)
    # ints and Fractions of one value are one point
    assert (int(p) in a) == (Fraction(int(p)) in a.elements)


def test_min_max_of_empty_are_empty():
    assert EMPTY_FS.min_set() == EMPTY_FS
    assert EMPTY_FS.max_set() == EMPTY_FS


@given(finsets)
def test_min_max_are_singletons_of_extremes(a):
    if not a:
        return
    lo, hi = min(a), max(a)
    assert a.min_set() == FinSet.of([lo])
    assert a.max_set() == FinSet.of([hi])


def test_ips_collects_points_whose_successor_lands_in_the_other_set():
    a = FinSet.of([0, 1, 2, 3])
    assert a.ips(FinSet.of([1, 3])) == FinSet.of([0, 2])
    assert a.ips(FinSet.of([0])) == EMPTY_FS  # 0 is nobody's successor here
    assert a.ips(a) == FinSet.of([0, 1, 2])
    assert EMPTY_FS.ips(a) == EMPTY_FS


def test_ips_only_counts_successors_inside_the_left_set():
    # 5 is in the right set but is not the successor of 2 within {0, 2}
    a = FinSet.of([0, 2])
    assert a.ips(FinSet.of([5])) == EMPTY_FS


# five points as plain ints and as rationals
SMALL_POOLS = [FinSet((0, 1, 2, 3, 4)), FinSet.of([0, Fraction(1, 3), Fraction(1, 2), Fraction(7, 4), 3])]


@pytest.mark.parametrize("pool", SMALL_POOLS, ids=["ints", "rationals"])
def test_operations_agree_with_membership(pool):
    # every pair of subsets of the pool, each result read at every point,
    # every midpoint between two and one point above
    pts = widened(pool.elements).elements
    sets = list(enum_finsets(pool))
    assert len(sets) == 32
    for a in sets:
        inside = [p in a for p in pts]
        # ips keeps p when p lies in a and its successor inside a lies in b
        succ = [min((q for q in a.elements if q > p), default=None) for p in pts]
        assert [p in a.min_set() for p in pts] == [p == min(a.elements, default=None) for p in pts], a
        assert [p in a.max_set() for p in pts] == [p == max(a.elements, default=None) for p in pts], a
        for b in sets:
            there = [p in b for p in pts]
            assert [p in a.union(b) for p in pts] == [x or y for x, y in zip(inside, there)], (a, b)
            assert [p in a.intersect(b) for p in pts] == [x and y for x, y in zip(inside, there)], (a, b)
            assert [p in a.difference(b) for p in pts] == [x and not y for x, y in zip(inside, there)], (a, b)
            assert a.issubset(b) == all(y for x, y in zip(inside, there) if x), (a, b)
            want = [x and s is not None and s in b for x, s in zip(inside, succ)]
            assert [p in a.ips(b) for p in pts] == want, (a, b)


def test_zero_set_is_the_singleton_origin():
    assert zero_set() == FinSet.of([0])


def test_parse_round_trip():
    for text in ["{}", "{0}", "{1/2, 2, 7/3}", "{0, 1, 2}"]:
        assert format_finset(parse_finset(text)) == format_finset(
            parse_finset(format_finset(parse_finset(text)))
        )
    assert parse_finset("{2, 1, 1}") == FinSet.of([1, 2])
    assert format_finset(parse_finset("{ 1/2 , 0 }")) == "{0, 1/2}"


def test_parse_rejects_malformed_input():
    for bad in ["", "{", "1, 2", "{1; 2}", "{-1}"]:
        with pytest.raises(ValueError):
            parse_finset(bad)


@given(finsets)
def test_format_parse_round_trip(a):
    assert parse_finset(format_finset(a)) == a


def test_sets_are_hashable_and_usable_as_keys():
    a = FinSet.of([1, Fraction(1, 2)])
    b = FinSet.of([Fraction(2, 4), 1])
    assert hash(a) == hash(b) and a == b
    assert {a: "x"}[b] == "x"
