"""Enumeration oracles and random generators.

The enumerators are what every exhaustive suite trusts, so they get
checked against closed-form counts and against each other.
"""

import random
from fractions import Fraction

import pytest

from helpers import count_fcis, random_finset
from intlat.cells import fci_masks, subset_masks
from intlat.fci import FciSet
from intlat.finset import FinSet
from intlat.oracle import enum_fcis, enum_finsets, random_fciset, random_points

fs = FinSet.of


def test_enum_finsets_yields_the_full_powerset():
    pool = fs([0, 1, Fraction(5, 2)])
    got = list(enum_finsets(pool))
    assert len(got) == 8
    assert len(set(got)) == 8
    assert all(s.issubset(pool) for s in got)


def test_enum_fcis_matches_the_closed_form_count():
    for n, k, ray in [(0, 2, True), (1, 1, False), (2, 2, True), (3, 2, True), (3, 3, False), (4, 3, True)]:
        pool = fs(range(n))
        got = list(enum_fcis(pool, k, ray))
        assert len(got) == count_fcis(n, k, ray), (n, k, ray)
        assert len(set(got)) == len(got), "enumeration repeated a value"


def test_enum_fcis_golden_count():
    # 3 points, up to 2 segments, ray allowed: counted by hand via
    # sum over k of C(3+k, 2k) + C(3+k, 2k+1) = (1+3) + (6+4) + (5+1) = 20
    assert count_fcis(3, 2, True) == 20
    assert len(list(enum_fcis(fs([0, 1, 2]), 2, True))) == 20


def test_enum_fcis_order_is_pinned():
    # the used points in binary counting order, then the readings: the
    # solver's search order rides on it
    got = [str(u) for u in enum_fcis(fs([0, 1]), 2, True)]
    assert got == ["empty", "{0}", "[0,*)", "{1}", "[1,*)", "{0} + {1}", "{0} + [1,*)", "[0,1]"]
    # the same unions as cell masks over ranks 0 and 2: a ray is negative
    assert fci_masks([0, 2], 2, True) == [0, 1, -1, 16, -16, 17, 1 | -16, 31]
    assert subset_masks([0, 2]) == [0, 1, 16, 17]


def test_enum_fcis_respects_segment_and_ray_limits():
    pool = fs([0, 1, 2, 3])
    for a in enum_fcis(pool, 2, False):
        assert len(a.segments) <= 2
        assert a.ray_lo is None
    assert any(a.ray_lo is not None for a in enum_fcis(pool, 2, True))


def test_enum_fcis_endpoints_stay_in_the_pool():
    pool = fs([0, Fraction(1, 2), 3])
    for a in enum_fcis(pool, 3, True):
        assert a.boundary().issubset(pool)


def test_random_points_are_distinct_sorted_and_reproducible():
    a = random_points(random.Random(11), 6)
    b = random_points(random.Random(11), 6)
    assert a == b
    assert len(set(a)) == 6
    assert list(a) == sorted(a)
    assert all(p >= 0 for p in a)


def test_random_points_refuse_more_points_than_their_bounds_allow():
    assert len(random_points(random.Random(5), 126)) == 126
    with pytest.raises(ValueError):
        random_points(random.Random(5), 127)


def test_random_fciset_draws_quickly_on_a_large_pool():
    rng = random.Random(9)
    pts = random_points(rng, 126)
    for _ in range(50):
        u = random_fciset(rng, pts)
        assert u.boundary().issubset(fs(pts))
        assert len(u.segments) <= 3


def test_random_values_land_in_their_universes():
    rng = random.Random(3)
    pts = random_points(rng, 5)
    for _ in range(50):
        s = random_finset(rng, pts)
        assert s.issubset(fs(pts))
        u = random_fciset(rng, pts)
        assert isinstance(u, FciSet)
        assert u.boundary().issubset(fs(pts))
        assert len(u.segments) <= 3
