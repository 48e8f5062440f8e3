"""Finite unions of closed intervals: normal form, lattice operations,
endpoint maps, and the reconstruction of a union from its endpoint sets.
"""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intlat import cells
from intlat.fci import (
    EMPTY_FCI,
    FciSet,
    Segment,
    build_from_endpoints,
    difference_closed,
    embed_finset,
    embed_point,
    endpoint_condition,
    format_fci,
    normalize,
    parse_fci,
    witness_d,
    zero_fci,
)
from intlat.finset import FinSet
from intlat.oracle import enum_fcis, enum_finsets
from intlat.semantics import widened

F = Fraction
fs = FinSet.of


def seg_pairs():
    pair = st.tuples(
        st.fractions(min_value=0, max_value=12),
        st.fractions(min_value=0, max_value=12),
    ).map(lambda ab: (min(ab), max(ab)))
    return st.lists(pair, max_size=4)


fcis = st.tuples(
    seg_pairs(), st.none() | st.fractions(min_value=0, max_value=12)
).map(lambda t: normalize(t[0], rays=[] if t[1] is None else [t[1]]))


def _twin(p: Fraction) -> Fraction:
    """A new Fraction equal to ``p``, reduced from thrice its terms."""
    return Fraction(3 * p.numerator, 3 * p.denominator)


@given(fcis, st.frozensets(st.fractions(min_value=0, max_value=12), max_size=6))
def test_equal_sets_hash_equal(a, points):
    # the hash reads the points' exact keys, so equal sets of new Fractions,
    # made by the constructor, by cells.build or by an operation, agree
    s = fs(points)
    twins = tuple(map(_twin, s.elements))
    sets = [s, FinSet(twins), cells.build(FinSet, elements=twins), s.union(s)]
    segments = [(_twin(x.lo), _twin(x.hi)) for x in a.segments]
    ray = None if a.ray_lo is None else _twin(a.ray_lo)
    unions = [
        a,
        FciSet(tuple(Segment(lo, hi) for lo, hi in segments), ray),
        cells.build(FciSet, segments=tuple(cells.build(Segment, lo=lo, hi=hi) for lo, hi in segments), ray_lo=ray),
        a.union(a),
    ]
    for same in (sets, unions):
        assert all(v == same[0] for v in same)
        assert len({hash(v) for v in same}) == 1


def test_segment_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Segment(F(2), F(1))


def test_normalize_rejects_negative_points():
    for segments, rays in [([(F(-1), F(0))], []), ([], [F(-1)]), ([(F(0), F(1))], [F(2), F(-1, 2)])]:
        with pytest.raises(ValueError, match="nonnegative"):
            normalize(segments, rays)


def test_normalize_merges_touching_and_overlapping_parts():
    got = normalize([(F(0), F(1)), (F(1), F(2)), (F(4), F(5))], rays=[F(7)])
    assert format_fci(got) == "[0,2] + [4,5] + [7,*)"


def test_normalize_lets_the_ray_swallow_later_segments():
    got = normalize([(F(0), F(1)), (F(6), F(8))], rays=[F(5)])
    assert format_fci(got) == "[0,1] + [5,*)"


def test_normalize_keeps_lowest_ray():
    got = normalize([], rays=[F(3), F(1)])
    assert format_fci(got) == "[1,*)"


@given(fcis, fcis)
def test_union_intersect_commute(a, b):
    assert a.union(b) == b.union(a)
    assert a.intersect(b) == b.intersect(a)


@given(fcis, fcis)
def test_absorption(a, b):
    assert a.union(a.intersect(b)) == a
    assert a.intersect(a.union(b)) == a


@given(fcis, fcis)
def test_subset_agrees_with_intersection(a, b):
    assert a.issubset(b) == (a.intersect(b) == a)


def test_intersect_hand_values():
    a = parse_fci("[0,2] + [5,*)")
    assert format_fci(a.intersect(parse_fci("[1,6]"))) == "[1,2] + [5,6]"
    assert format_fci(a.intersect(parse_fci("[3,4]"))) == "empty"
    assert format_fci(a.intersect(parse_fci("[6,*)"))) == "[6,*)"


def test_min_max_pick_extreme_points():
    a = parse_fci("[1,2] + [4,*)")
    assert a.min_set() == embed_point(F(1))
    assert a.max_set() == EMPTY_FCI  # unbounded: no greatest point
    assert parse_fci("[1,2]").max_set() == embed_point(F(2))
    assert EMPTY_FCI.min_set() == EMPTY_FCI


def test_endpoint_maps():
    a = parse_fci("[0,1] + {2} + [5,*)")
    assert a.left_endpoints() == fs([0, 2, 5])
    assert a.right_endpoints() == fs([0 + 1, 2])  # the ray has no right end
    assert a.boundary() == fs([0, 1, 2, 5])


def test_membership_and_finiteness():
    a = parse_fci("[0,1] + {3}")
    assert a.contains(F(1, 2)) and a.contains(F(3)) and not a.contains(F(2))
    assert not a.is_finite_set()
    b = embed_finset(fs([1, 2]))
    assert b.is_finite_set()
    assert zero_fci() == embed_point(F(0))


@given(fcis)
def test_boundary_holds_every_end_point(a):
    ends = {p for s in a.segments for p in (s.lo, s.hi)} | ({a.ray_lo} - {None})
    assert a.boundary() == fs(ends)


def test_endpoint_condition_requires_alternation_from_the_left():
    assert endpoint_condition(fs([0, 3]), fs([1]))
    assert endpoint_condition(fs([0]), fs([0]))  # the single point {0}
    assert not endpoint_condition(fs([1]), fs([0]))  # would close before opening
    assert not endpoint_condition(fs([0, 1]), fs([0, 1, 2]))
    # the empty pair names no nonempty set; callers special-case it
    assert not endpoint_condition(FinSet(), FinSet())


def test_build_from_endpoints_hand_values():
    assert format_fci(build_from_endpoints(fs([0, 3]), fs([1]))) == "[0,1] + [3,*)"
    assert format_fci(build_from_endpoints(fs([0]), fs([2]))) == "[0,2]"
    with pytest.raises(ValueError):
        build_from_endpoints(fs([1]), fs([0]))
    with pytest.raises(ValueError):
        build_from_endpoints(FinSet(), FinSet())


@given(fcis)
def test_a_union_is_determined_by_its_endpoint_sets(a):
    if not a:
        return
    b, c = a.left_endpoints(), a.right_endpoints()
    assert endpoint_condition(b, c)
    assert build_from_endpoints(b, c) == a


def test_endpoint_reconstruction_exhaustively_on_a_small_pool():
    pool = fs([0, 1, 2])
    for a in enum_fcis(pool, 3, True):
        if a:
            assert build_from_endpoints(a.left_endpoints(), a.right_endpoints()) == a


def test_witness_d_hand_value():
    d = witness_d(fs([1, 2, 5]), fs([2, 5]), fs([1, 2]))
    assert format_fci(d) == "[0,1] + {2} + [5,*)"
    assert d.right_endpoints() == fs([1, 2])
    assert not d.max_set()


def test_difference_closed_returns_none_when_the_difference_is_not_closed():
    a = parse_fci("[0,2]")
    assert difference_closed(a, parse_fci("{1}")) is None
    assert difference_closed(a, parse_fci("[0,1]")) is None
    assert difference_closed(a, parse_fci("[1,3]")) is None


def test_difference_closed_hand_values():
    a = parse_fci("[0,1] + {2}")
    assert difference_closed(a, parse_fci("{2}")) == parse_fci("[0,1]")
    assert difference_closed(a, parse_fci("[4,5]")) == a
    assert difference_closed(a, a) == EMPTY_FCI
    assert difference_closed(parse_fci("[0,*)"), EMPTY_FCI) == parse_fci("[0,*)")


@given(fcis, fcis)
def test_difference_closed_is_the_set_difference_when_defined(a, b):
    d = difference_closed(a, b)
    if d is None:
        return
    assert d.intersect(b) == EMPTY_FCI
    assert d.union(a.intersect(b)) == a
    assert d.issubset(a)


# -- the cell constructions against pointwise membership ---------------------------

# four points as plain ints (the solver's ranks) and as rationals
SMALL_POOLS = [FinSet((0, 1, 2, 3)), fs([0, F(1, 3), F(1, 2), F(7, 4)])]


def probes(pool):
    """Every point and midpoint of the widened pool, and one point above:
    each cell over the pool's points holds one of them."""
    return widened(widened(pool.elements)).elements


@pytest.mark.parametrize("pool", SMALL_POOLS, ids=["ints", "rationals"])
def test_intersect_and_difference_agree_with_membership(pool):
    # and union, containment and the normal form of both operands' parts
    unions = list(enum_fcis(pool, len(pool), True))
    assert len(unions) == 55
    pts, ends = probes(pool), set(pool.elements)
    undefined = 0
    for a in unions:
        for b in unions:
            inside = [a.contains(p) and b.contains(p) for p in pts]
            assert [a.intersect(b).contains(p) for p in pts] == inside, (a, b)
            either = [a.contains(p) or b.contains(p) for p in pts]
            assert [a.union(b).contains(p) for p in pts] == either, (a, b)
            merged = normalize(a.segments + b.segments, [r for r in (a.ray_lo, b.ray_lo) if r is not None])
            assert [merged.contains(p) for p in pts] == either, (a, b)
            assert a.issubset(b) == (inside == [a.contains(p) for p in pts]), (a, b)
            outside = [a.contains(p) and not b.contains(p) for p in pts]
            d = difference_closed(a, b)
            # a - b is closed unless a point of the pool it misses is next
            # to a probe it holds
            closed = all(
                outside[i] or not (i and outside[i - 1] or outside[i + 1])
                for i, p in enumerate(pts)
                if p in ends
            )
            if d is None:
                undefined += 1
                assert not closed, (a, b)
            else:
                assert closed and [d.contains(p) for p in pts] == outside, (a, b)
    assert 0 < undefined < len(unions) ** 2


@pytest.mark.parametrize("pool", SMALL_POOLS, ids=["ints", "rationals"])
def test_extremes_and_endpoint_maps_agree_with_membership(pool):
    # a union's extremes and endpoints are points of the pool, so the
    # probes next to a probe stand for every point between them
    pts = probes(pool)
    for a in enum_fcis(pool, len(pool), True):
        inside = [a.contains(p) for p in pts]
        held = [p for p, here in zip(pts, inside) if here]
        least = held[0] if held else None
        greatest = held[-1] if held and not inside[-1] else None  # none for a ray
        assert [a.min_set().contains(p) for p in pts] == [p == least for p in pts], a
        assert [a.max_set().contains(p) for p in pts] == [p == greatest for p in pts], a
        starts = [here and not (i and inside[i - 1]) for i, here in enumerate(inside)]
        ends = [here and i + 1 < len(pts) and not inside[i + 1] for i, here in enumerate(inside)]
        assert [p in a.left_endpoints() for p in pts] == starts, a
        assert [p in a.right_endpoints() for p in pts] == ends, a


@pytest.mark.parametrize("pool", SMALL_POOLS, ids=["ints", "rationals"])
def test_normalize_agrees_with_membership(pool):
    # every list of at most two raw parts on the pool, overlapping,
    # touching, nested or apart, with or without a ray
    pts = probes(pool)
    raw = [(lo, hi) for lo in pool for hi in pool if lo <= hi]
    for k in range(3):
        for parts in itertools.product(raw, repeat=k):
            for rays in [[]] + [[p] for p in pool]:
                got = normalize(parts, rays)
                want = [any(lo <= p <= hi for lo, hi in parts) or any(p >= r for r in rays) for p in pts]
                assert [got.contains(p) for p in pts] == want, (parts, rays)
                assert normalize(got.segments, rays if got.ray_lo is None else [got.ray_lo]) == got


@pytest.mark.parametrize("pool", SMALL_POOLS, ids=["ints", "rationals"])
def test_build_from_endpoints_agrees_with_membership(pool):
    # a point lies in the set when it is an endpoint or the greatest
    # endpoint below it opens a segment or the ray
    pts = probes(pool)
    built = 0
    for b in enum_finsets(pool):
        for c in enum_finsets(pool):
            if not endpoint_condition(b, c):
                with pytest.raises(ValueError):
                    build_from_endpoints(b, c)
                continue
            bd, opens = b.union(c).elements, set(b.difference(c).elements)
            want = [p in bd or max((q for q in bd if q < p), default=None) in opens for p in pts]
            assert [build_from_endpoints(b, c).contains(p) for p in pts] == want, (b, c)
            built += 1
    assert built == 54  # every nonempty union over the pool


# the printed stream over five points, for every segment cap and both ray
# settings; the solver's search-order pins rest on this order
ENUM_FCIS_DIGEST = (888, "e675d25f76f127cb39d7963f7e4112a64a712cf35a7ad886aa7fe7b4a481b3c7")


def test_enum_fcis_order_is_pinned():
    lines = [
        f"{u}\n"
        for cap in range(6)
        for ray in (False, True)
        for u in enum_fcis(fs(range(5)), cap, ray)
    ]
    assert (len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()) == ENUM_FCIS_DIGEST


def test_parse_accepts_both_spaced_and_compact_forms():
    assert parse_fci("[0,1]+{2}+[5,*)") == parse_fci("[0,1] + {2} + [5,*)")
    assert parse_fci("empty") == EMPTY_FCI
    assert parse_fci("{1/2}") == embed_point(F(1, 2))


def test_parse_rejects_malformed_input():
    for bad in ["", "[1,0]", "[0,1)", "[0,1] + ", "(0,1]", "[*,1]"]:
        with pytest.raises(ValueError):
            parse_fci(bad)


@given(fcis)
def test_format_parse_round_trip(a):
    assert parse_fci(format_fci(a)) == a
