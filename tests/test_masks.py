"""Cell masks: every mask operation against point membership.

The kernels and the one evaluator of terms (``semantics._Term``, behind
``eval_term``, ``eval_qf`` and the solver alike) all compute on cell
masks with the one set of operations in ``intlat.cells``.  So each
operation is checked here against the point semantics, which is written
on rationals apart from the masks: ``FciSet.contains`` and ``in`` on a
``FinSet``.  A mask is read cell by cell at one probe inside each cell
(its point, the midpoint of the gap above it, or a point above the last
one) and compared with what the operation means on the operands'
membership at the same probes: exhaustively over every interval union on
4 points and every finite set on 5, and by hypothesis on up to 8
rational points.  The encoder is checked the same way, and the pools'
spaces, universes and endpoint pairs against the enumerators through the
ranks.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlat import cells
from intlat.cells import OPS, difference_closed, encode, from_endpoints
from intlat.fci import normalize
from intlat.finset import FinSet
from intlat.oracle import enum_fcis, enum_finsets
from intlat.semantics import (
    WitnessPool,
    _endpoint_pairs,
    _in_universe,
    _masks,
    _pool_ranks,
    _ranks,
    universe,
)
from intlat.syntax import SIG_L, SIG_W

F = Fraction


def op(name: str, *args: int) -> int:
    return OPS[name][1](*args)


def probes(points: list) -> list:
    """One point inside each cell over the sorted points, in cell order."""
    out = []
    for p, q in zip(points, points[1:] + [points[-1] + 2]):
        out += [p, (p + q) / 2]
    return out


def member(v, at: list) -> list[bool]:
    """Which probes the FciSet or FinSet ``v`` holds."""
    return [v.contains(p) if hasattr(v, "contains") else p in v for p in at]


def reading(x: int, n: int) -> list[bool]:
    """The cells the mask ``x`` holds over n points; None when its sign
    disagrees with its top cell, the gap above the last point, which a
    ray alone holds."""
    cells = [bool(x >> k & 1) for k in range(2 * n)]
    return cells if (x < 0) == cells[-1] else None


# what each operation means on the cells a value holds, read at the probes


def first(u: list) -> list:
    return [i == u.index(True) for i in range(len(u))] if any(u) else u


def last(u: list) -> list:
    # a ray has no greatest point
    return first(u[::-1])[::-1] if not u[-1] else [False] * len(u)


def starts(u: list) -> list:
    return [here and not (i and u[i - 1]) for i, here in enumerate(u)]


def ends(u: list) -> list:
    # the top cell reaches up forever: it ends nothing
    return [here and i + 1 < len(u) and not u[i + 1] for i, here in enumerate(u)]


def closed(u: list) -> bool:
    """Each held gap holds the point below it and the point above it, if any."""
    return all(u[i - 1] and (i + 1 == len(u) or u[i + 1]) for i in range(1, len(u), 2) if u[i])


def successor_in(u: list, v: list) -> list:
    """The held points of u whose next held point of u is held in v."""
    out = []
    for i, here in enumerate(u):
        nxt = next((j for j in range(i + 1, len(u)) if u[j]), None)
        out.append(here and nxt is not None and v[nxt])
    return out


def candidate(b: list, c: list) -> list:
    """The endpoint lemma's one candidate: every endpoint, and every cell
    whose greatest endpoint at or below it is a left endpoint only."""
    out, opens = [], False
    for i in range(len(b)):
        if b[i] or c[i]:
            opens = b[i] and not c[i]
            out.append(True)
        else:
            out.append(opens)
    return out


def check_unions(points: list, a, b) -> None:
    """Every interval-side mask operation on a and b against membership."""
    rank = {p: i for i, p in enumerate(points)}
    n, at = len(points), probes(points)
    u, v = member(a, at), member(b, at)
    x, y = encode(a, rank.__getitem__), encode(b, rank.__getitem__)
    nothing = [False] * 2 * n
    assert reading(op("bot"), n) == nothing
    assert reading(op("cz"), n) == [k == 0 for k in range(2 * n)]
    assert reading(op("cup", x, y), n) == [p or q for p, q in zip(u, v)], (a, b)
    assert reading(op("cap", x, y), n) == [p and q for p, q in zip(u, v)], (a, b)
    assert reading(op("min", x), n) == first(u), a
    assert reading(op("max", x), n) == last(u), a
    assert reading(op("l", x), n) == starts(u), a
    assert reading(op("r", x), n) == ends(u), a
    d = [p and not q for p, q in zip(u, v)]
    got = difference_closed(x, y)
    assert (reading(got, n) == d) if closed(d) else got is None, (a, b)
    # only two finite sets can be endpoint sets: a union with a segment or
    # a ray on either side has no candidate
    if not (a.is_finite_set() and b.is_finite_set()):
        assert from_endpoints(x, y) is None, (a, b)


def check_sets(points: list, s: FinSet, t: FinSet) -> None:
    """Every finite-set mask operation on s and t, and the endpoint lemma
    on the pair (s, t), against membership."""
    rank = {p: i for i, p in enumerate(points)}
    n, at = len(points), probes(points)
    u, v = member(s, at), member(t, at)
    x, y = encode(s, rank.__getitem__), encode(t, rank.__getitem__)
    assert reading(op("cup", x, y), n) == [p or q for p, q in zip(u, v)], (s, t)
    assert reading(op("cap", x, y), n) == [p and q for p, q in zip(u, v)], (s, t)
    assert reading(op("diff", x, y), n) == [p and not q for p, q in zip(u, v)], (s, t)
    assert reading(op("min", x), n) == first(u), s
    assert reading(op("max", x), n) == last(u), s
    assert reading(op("ips", x, y), n) == successor_in(u, v), (s, t)
    # (s, t) is the endpoint pair of the candidate exactly when the
    # candidate's endpoints are (s, t); two empty sets give the empty union
    w = candidate(u, v)
    got = from_endpoints(x, y)
    if not s and not t:
        assert got == 0
    elif starts(w) == u and ends(w) == v:
        assert reading(got, n) == w, (s, t)
    else:
        assert got is None, (s, t)


def check_cells(points: list, a) -> None:
    """The cells ``encode`` writes for ``a`` over ``points``, which hold
    its end points, against membership: bit 2i is p_i, bit 2i+1 the gap
    above it, and the mask is negative exactly when ``a`` has a ray."""
    x = encode(a, {p: i for i, p in enumerate(points)}.__getitem__)
    assert reading(x, len(points)) == member(a, probes(points)), a
    assert (x < 0) == (a.ray_lo is not None), a


UNION_GRID = FinSet(tuple(map(F, range(4))))
UNIONS = list(enum_fcis(UNION_GRID, 4, True))
SET_GRID = FinSet(tuple(map(F, range(5))))
SETS = list(enum_finsets(SET_GRID))


def test_cells_agree_with_membership_on_a_small_grid():
    for a in UNIONS:
        check_cells(list(UNION_GRID), a)
    for s in SETS:
        assert reading(encode(s, {p: i for i, p in enumerate(SET_GRID)}.__getitem__), 5) == member(s, probes(list(SET_GRID)))


def test_mask_operations_agree_with_membership_on_small_grids():
    assert len(UNIONS) == 55 and len(SETS) == 32
    for a in UNIONS:
        for b in UNIONS:
            check_unions(list(UNION_GRID), a, b)
    for s in SETS:
        for t in SETS:
            check_sets(list(SET_GRID), s, t)
    # the subsets of the first four points pair up as the endpoints of
    # every nonempty union on them
    rank = {p: i for i, p in enumerate(SET_GRID)}
    pairs = [(s, t) for s in SETS[:16] for t in SETS[:16] if s and from_endpoints(encode(s, rank.__getitem__), encode(t, rank.__getitem__))]
    assert len(pairs) == len(UNIONS) - 1


def _pools(grid: FinSet):
    """Every pool on a subset of the grid holding 0, each segment cap, and
    both ray settings; pair points are the pool's points or its first two."""
    for points in enum_finsets(grid):
        if F(0) not in points:
            continue
        for k in range(len(points) + 1):
            for ray in (True, False):
                yield WitnessPool(points, k, ray)
        yield WitnessPool(points, len(points), True, FinSet(points.elements[:2]))


def test_universes_agree_with_the_kernels_through_the_ranks():
    # the ranks are those of the whole grid, so the pool's ranks have holes
    checked = 0
    for grid, values, sig in ((UNION_GRID, UNIONS, SIG_L), (SET_GRID, SETS, SIG_W)):
        w = sig.finite_sets
        for pool in _pools(grid):
            ranks = _ranks(pool, grid)
            space = ranks.spaces[w]

            def m(v):
                return encode(v, ranks.rank)

            inside = set(universe(pool, sig))
            for v in values:
                assert _in_universe(m(v), space) == (v in inside), (pool, v)
                checked += 1
            assert list(_masks(space)) == [m(u) for u in universe(pool, sig)], pool
            pairs = pool.points if pool.pair_points is None else pool.pair_points
            want = [(m(u.left_endpoints()), m(u.right_endpoints())) for u in enum_fcis(pairs, len(pairs), True)]
            assert list(_endpoint_pairs(space)) == want, pool
    assert checked == 64 * 55 + 144 * 32


def test_a_pool_ranks_its_own_points_in_order():
    points = [F(n, 3) for n in range(10)]
    random.Random(5).shuffle(points)
    pool = WitnessPool(FinSet.of(points), 3, True, FinSet.of([F(0), *points[:3]]))
    ranks = _pool_ranks(pool)
    assert [ranks.rank(p) for p in pool.points.elements] == list(range(10))
    # the same ranks and spaces as ranking the pool among its points afresh
    again = _ranks(pool, cells.apply(lambda: None, extra=points)[0])
    assert [again.rank(p) for p in points] == [ranks.rank(p) for p in points]
    assert ranks.spaces == again.spaces
    # and neither ranks a point off the pool
    for rank in (ranks.rank, again.rank):
        with pytest.raises(KeyError):
            rank(F(1, 7))


spots = st.fractions(min_value=0, max_value=12, max_denominator=4)


@st.composite
def rational_cases(draw):
    """Up to 8 rational points with 0, two interval unions and two finite
    sets on them, and a pool of some of them."""
    points = sorted({F(0)} | draw(st.frozensets(spots, max_size=7)))
    near = st.sampled_from(points)
    unions = [
        normalize(draw(st.lists(st.tuples(near, near).map(sorted), max_size=3)), draw(st.lists(near, max_size=1)))
        for _ in range(2)
    ]
    sets = [FinSet.of(draw(st.frozensets(near, max_size=5))) for _ in range(2)]
    chosen = FinSet.of({F(0)} | draw(st.frozensets(near, max_size=5)))
    pool = WitnessPool(chosen, draw(st.integers(0, 4)), draw(st.booleans()))
    return points, unions, sets, pool


@settings(deadline=None)
@given(rational_cases())
def test_mask_operations_agree_with_membership_on_rational_points(case):
    points, (a, b), (s, t), pool = case
    check_unions(points, a, b)
    check_sets(points, s, t)
    check_cells(points, a)
    check_cells(points, b)
    # the endpoint lemma also on the endpoints of a union
    ranks = _ranks(pool, points)
    ends_of_a = [encode(e, ranks.rank) for e in (a.left_endpoints(), a.right_endpoints())]
    assert from_endpoints(*ends_of_a) == encode(a, ranks.rank)
    for v, sig in ((a, SIG_L), (b, SIG_L), (s, SIG_W), (t, SIG_W)):
        assert _in_universe(encode(v, ranks.rank), ranks.spaces[sig.finite_sets]) == (v in universe(pool, sig)), v
