"""Cell masks: the solver's values agree with the kernels.

Inside ``eval_bounded`` every value is one int over the ranked points
(see ``intlat.semantics``).  Each mask operation is checked against the
``FinSet``/``FciSet`` kernel it stands for: exhaustively over every
interval union on at most 4 points and every finite set on at most 5, and
by hypothesis on up to 8 rational points, each time through the ranks.
The kernels and the solver share one encoder, ``fci._held``, so it is
checked on its own against membership.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from intlat.fci import (
    EMPTY_FCI,
    _held,
    build_from_endpoints,
    difference_closed,
    embed_finset,
    endpoint_condition,
    normalize,
)
from intlat.finset import FinSet
from intlat.oracle import enum_fcis, enum_finsets
from intlat.semantics import (
    _MASK_OPS,
    WitnessPool,
    _difference_closed,
    _endpoint_pairs,
    _from_endpoints,
    _in_universe,
    _mask,
    _masks,
    _pool_ranks,
    _ranks,
    universe,
)
from intlat.syntax import SIG_L, SIG_W

F = Fraction


def op(name: str, *args: int) -> int:
    return _MASK_OPS[name][1](list(args), None)


def check_unions(rank: dict, a, b) -> None:
    """Every interval-side mask operation on a and b against the kernels."""

    def m(v):
        return _mask(v, rank)

    ma, mb = m(a), m(b)
    assert op("bot") == m(EMPTY_FCI)
    assert op("cz") == m(embed_finset(FinSet((F(0),))))
    assert op("cup", ma, mb) == m(a.union(b)), (a, b)
    assert op("cap", ma, mb) == m(a.intersect(b)), (a, b)
    assert op("min", ma) == m(a.min_set()), a
    assert op("max", ma) == m(a.max_set()), a
    assert op("l", ma) == m(embed_finset(a.left_endpoints())), a
    assert op("r", ma) == m(embed_finset(a.right_endpoints())), a
    d = difference_closed(a, b)
    assert _difference_closed(ma, mb) == (None if d is None else m(d)), (a, b)


def check_sets(rank: dict, a: FinSet, b: FinSet) -> None:
    """Every finite-set mask operation on a and b, and the endpoint lemma
    on the pair (a, b), against the kernels."""

    def m(v):
        return _mask(v, rank)

    ma, mb = m(a), m(b)
    assert op("bot") == m(FinSet())
    assert op("cz") == m(FinSet((F(0),)))
    assert op("cup", ma, mb) == m(a.union(b)), (a, b)
    assert op("cap", ma, mb) == m(a.intersect(b)), (a, b)
    assert op("min", ma) == m(a.min_set()), a
    assert op("max", ma) == m(a.max_set()), a
    assert op("ips", ma, mb) == m(a.ips(b)), (a, b)
    assert op("diff", ma, mb) == m(a.difference(b)), (a, b)
    if endpoint_condition(a, b):
        want = m(build_from_endpoints(a, b))
    else:
        want = 0 if not a and not b else None
    assert _from_endpoints(ma, mb) == want, (a, b)


def check_cells(points: list, a) -> None:
    """The cells ``_held`` writes for ``a`` over ``points``, which hold its
    end points, against membership: bit 2i is p_i, bit 2i+1 the gap above
    it (its midpoint to the next point, or the last point plus 1), and the
    mask is negative exactly when ``a`` has a ray."""
    x = _held({p: i for i, p in enumerate(points)}, a.segments, a.ray_lo)
    inside = [(p + q) / 2 for p, q in zip(points, points[1:])] + [points[-1] + 1]
    for i, (p, gap) in enumerate(zip(points, inside)):
        assert x >> 2 * i & 1 == a.contains(p), (a, p)
        assert x >> 2 * i + 1 & 1 == a.contains(gap), (a, gap)
    assert (x < 0) == (a.ray_lo is not None), a


UNION_GRID = FinSet(tuple(map(F, range(4))))
UNIONS = list(enum_fcis(UNION_GRID, 4, True))
SET_GRID = FinSet(tuple(map(F, range(5))))
SETS = list(enum_finsets(SET_GRID))


def test_cells_agree_with_membership_on_a_small_grid():
    for a in UNIONS:
        check_cells(list(UNION_GRID), a)


def test_mask_operations_agree_with_the_kernels_on_small_grids():
    assert len(UNIONS) == 55 and len(SETS) == 32
    rank = {p: i for i, p in enumerate(UNION_GRID)}
    for a in UNIONS:
        for b in UNIONS:
            check_unions(rank, a, b)
    rank = {p: i for i, p in enumerate(SET_GRID)}
    for a in SETS:
        for b in SETS:
            check_sets(rank, a, b)


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
                return _mask(v, ranks.rank)

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
    assert [ranks.rank[p] for p in pool.points.elements] == list(range(10))
    # the same ranks and spaces as ranking the pool among its points afresh
    again = _ranks(pool, points)
    assert (ranks.rank, ranks.spaces) == (again.rank, again.spaces)


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
    return FinSet(tuple(points)), unions, sets, pool


@settings(deadline=None)
@given(rational_cases())
def test_mask_operations_agree_with_the_kernels_on_rational_points(case):
    points, (a, b), (s, t), pool = case
    ranks = _ranks(pool, points)
    check_unions(ranks.rank, a, b)
    check_sets(ranks.rank, s, t)
    check_cells(list(points), a)
    check_cells(list(points), b)
    # the endpoint lemma also on the endpoints of a union
    assert _from_endpoints(_mask(a.left_endpoints(), ranks.rank), _mask(a.right_endpoints(), ranks.rank)) == _mask(a, ranks.rank)
    for v, sig in ((a, SIG_L), (b, SIG_L), (s, SIG_W), (t, SIG_W)):
        assert _in_universe(_mask(v, ranks.rank), ranks.spaces[sig.finite_sets]) == (v in universe(pool, sig)), v
