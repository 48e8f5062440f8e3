"""Cell masks: the one encoding both lattices compute on.

By the endpoint lemma, a set whose end points lie among sorted points
p0 < ... < pn-1, a *grid*, is fixed by its cells: which of those points
and which open gaps between them it holds, the gap above pn-1 reaching
up forever.  A mask writes them as one int: bit 2i is pi, bit 2i+1 the
gap above it, and a ray every bit from its start up, a negative int.  A
finite set holds point bits only; an interval union is a closed mask,
whose held gaps hold the points on both sides (below only, for the ray).
Only this module shifts by a rank, and only it makes a point's exact key,
its numerator and denominator in lowest terms, by which grids are ranked
(``apply``, ``ranking``) and both set types hashed (``digest``), so neither
hashes or compares a ``Fraction``.

Each operation of both lattices is written here once, on masks (``OPS``,
``within``, ``difference_closed``, ``from_endpoints``).  The kernels call
them through ``apply``.  The one evaluator of terms, ``semantics._Term``,
behind ``eval_term``, ``eval_qf`` and the solver alike, binds each ``OPS``
entry once, and no other code reads ``OPS``.  The witness universes are
listed here as masks (``subset_masks``, ``fci_masks``).  No operation
creates a point, and each depends only on the order of the points and
on 0, rank 0 on every grid holding it, so the result on the grid is the
result on the rationals.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from operator import and_, or_
from typing import Callable, Optional, Sequence, TypeVar

from .order import Point

T = TypeVar("T")


def point(r: int) -> int:
    """The cell of the point of rank ``r``."""
    return 1 << 2 * r


# -- encoding and decoding ----------------------------------------------------------


def ends(value) -> Sequence[Point]:
    """A ``FinSet``'s points, or the end points of an ``FciSet``'s parts."""
    if not hasattr(value, "segments"):
        return value.elements
    out = [p for s in value.segments for p in (s.lo, s.hi)]
    return out if value.ray_lo is None else out + [value.ray_lo]


def encode(value, rank: Callable[[Point], int]) -> int:
    """The cells ``value`` holds over the points that ``rank`` ranks, which
    include its ``ends``."""
    if not hasattr(value, "segments"):
        return sum(1 << 2 * rank(p) for p in value.elements)
    mask = 0 if value.ray_lo is None else -1 << 2 * rank(value.ray_lo)
    for s in value.segments:
        mask |= (2 << 2 * rank(s.hi)) - (1 << 2 * rank(s.lo))
    return mask


def apply(fn: Callable[..., T], *values, extra: Sequence[Point] = ()) -> tuple[list[Point], T]:
    """The grid of the values' ends and ``extra``, their distinct points in
    order, and ``fn`` of the values' cells on it.  No ``Fraction`` is
    hashed or compared: a lone operand's ends are in order already, with
    any repeat beside its twin, so its grid keeps the first of each exact
    key (see ``ranking``); otherwise each point is scaled to the common
    denominator and the grid sorts those integers."""
    if len(values) == 1 and not extra:
        (value,) = values
        grid = list({p.as_integer_ratio(): p for p in ends(value)}.values())
        return grid, fn(encode(value, ranking(grid)))
    every = [*extra, *chain.from_iterable(map(ends, values))]
    scale = lcm(*[p.denominator for p in every])
    at = {p.numerator * (scale // p.denominator): p for p in every}
    order = sorted(at)
    rank = dict(zip(order, range(len(order))))
    masks = [encode(v, lambda p: rank[p.numerator * (scale // p.denominator)]) for v in values]
    return list(map(at.__getitem__, order)), fn(*masks)


def ranking(grid: Sequence[Point]) -> Callable[[Point], int]:
    """The rank of each point of ``grid``, distinct points in order, as a
    function: its index, looked up by the point's exact key, its numerator
    and denominator in lowest terms, so no ``Fraction`` is hashed.  A point
    off the grid raises KeyError."""
    rank = {p.as_integer_ratio(): i for i, p in enumerate(grid)}
    return lambda p: rank[p.as_integer_ratio()]


def digest(value) -> int:
    """The hash of a ``FinSet`` or ``FciSet``: of its ``ends`` by their
    exact keys.  A ``Fraction`` is always in lowest terms, so equal values
    hash equal, and no ``Fraction`` is hashed (each of its hashes costs a
    modular inverse)."""
    return hash(tuple([p.as_integer_ratio() for p in ends(value)]))


def points(pts: Sequence[Point], mask: int) -> tuple[Point, ...]:
    """The points of ``pts`` whose cells ``mask`` holds."""
    return tuple(p for i, p in enumerate(pts) if mask >> 2 * i & 1)


def parts(pts: Sequence[Point], mask: int) -> tuple[list[tuple[Point, Point]], Optional[Point]]:
    """The segments, as (lo, hi) pairs, and the ray start of the union
    holding exactly the cells of the closed ``mask`` over ``pts``."""
    segments = []
    lo = None
    for p in pts:
        if mask & 1:
            if lo is None:
                lo = p
            if not mask & 2:
                segments.append((lo, p))
                lo = None
        mask >>= 2
    return segments, lo


def build(cls: type, **fields):
    """A ``cls`` holding ``fields``, without the checks of its
    ``__post_init__``: for values valid by construction.  It fills the
    instance ``__dict__``, which ``FinSet``, ``Segment`` and ``FciSet``
    keep (their hash caches live there), so they must not take slots."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


# -- the enumerators ----------------------------------------------------------------

# subsets explode as 2^n and interval unions faster still, so pools beyond
# these raise instead of hanging
FINSET_POOL_CAP = 12
FCI_POOL_CAP = 10


def subset_masks(ranks: Sequence[int]) -> list[int]:
    """Every set of the ranked points, in binary counting order on the
    ranks, as cell masks."""
    if len(ranks) > FINSET_POOL_CAP:
        raise ValueError(f"refusing to enumerate 2^{len(ranks)} subsets (cap is {FINSET_POOL_CAP} points)")
    out = [0]
    for r in ranks:
        bit = 1 << 2 * r
        out += [m | bit for m in out]
    return out


def fci_masks(ranks: Sequence[int], max_segments: int, allow_ray: bool) -> list[int]:
    """All normalized interval unions with endpoints among the ranked
    points, as cell masks.

    Ordered by the subset of endpoints actually used (binary counting
    order), then by the reading of that subset.  A reading of m used
    points holds all of them and a set of the open gaps above them, no
    two adjacent; bit m-1-j holds the gap above the j-th point, so the
    first point varies slowest and bit 0 is the ray.  Each held gap joins
    two points into a segment or makes the last one the ray, so a reading
    has m - popcount segments.  Distinct readings give distinct sets, so
    the list is duplicate-free.
    """
    n = len(ranks)
    if n > FCI_POOL_CAP:
        raise ValueError(f"refusing to enumerate interval unions over {n} points (cap is {FCI_POOL_CAP})")
    # m -> the held gaps of each reading of m used points, in order
    readings: dict[int, list[list[int]]] = {}
    out = []
    for used_mask in range(1 << n):
        used = [ranks[i] for i in range(n) if used_mask >> i & 1]
        m = len(used)
        held = readings.get(m)
        if held is None:
            held = readings[m] = [
                [j for j in range(m) if reading >> m - 1 - j & 1]
                for reading in range(0, 1 << m, 1 if allow_ray else 2)
                if not reading & reading >> 1 and m - reading.bit_count() <= max_segments
            ]
        points = sum(1 << 2 * r for r in used)
        # the cells of each gap: up to and with the next used point, or the ray
        gaps = [(2 << 2 * hi) - (1 << 2 * lo) for lo, hi in zip(used, used[1:])]
        gaps += [-1 << 2 * r for r in used[-1:]]
        for js in held:
            x = points
            for j in js:
                x |= gaps[j]
            out.append(x)
    return out


# -- the operations -----------------------------------------------------------------


def left(x: int) -> int:
    """``l``: every held cell whose cell below is not held."""
    return x & ~(x << 1)


def right(x: int) -> int:
    """``r``: every held cell whose cell above is not held; a ray has none."""
    return x & ~(x >> 1)


def least(x: int) -> int:
    """``min``: the lowest held cell."""
    return x & -x


def top(x: int) -> int:
    """``max``: the highest held cell, none for a ray."""
    return 1 << x.bit_length() - 1 if x > 0 else 0


def minus(x: int, y: int) -> int:
    """``diff``: the cells of ``x`` that ``y`` does not hold."""
    return x & ~y


def ips(a: int, b: int) -> int:
    """The points of ``a`` whose successor inside ``a`` is a point of ``b``."""
    out = 0
    while a:
        low = a & -a
        a ^= low
        if a & -a & b:
            out |= low
    return out


# op -> (the structure it belongs to, True finite sets and False interval
# unions, None both; its mask from the masks of its arguments)
OPS: dict[str, tuple[Optional[bool], Callable[..., int]]] = {
    "bot": (None, lambda: 0),
    "cz": (None, lambda: 1),
    "cup": (None, or_),
    "cap": (None, and_),
    "min": (None, least),
    "max": (None, top),
    "ips": (True, ips),
    "diff": (True, minus),
    "l": (False, left),
    "r": (False, right),
}


def within(x: int, y: int) -> bool:
    """Containment: ``y`` holds every cell ``x`` holds."""
    return not x & ~y


def finite(x: int) -> bool:
    """Whether the closed mask ``x`` holds no gap: no two cells in a row."""
    return not x & x >> 1


def difference_closed(x: int, y: int) -> Optional[int]:
    """``x`` minus ``y`` when it is closed, else None: no run of its cells
    starts or ends at a gap, an odd bit."""
    d = x & ~y
    bounds = left(d) | right(d)
    odd = ((4 ** ((bounds.bit_length() + 1) // 2) - 1) // 3) << 1
    return None if bounds & odd else d


def from_endpoints(b: int, c: int) -> Optional[int]:
    """The union whose left and right endpoints are ``b`` and ``c``, or
    None (the endpoint lemma; the empty union for two empty sets).  The
    only candidate holds every point of ``b`` and ``c`` and, from each
    point of b - c, every cell up to the next of those points, or up
    forever."""
    if not (finite(b) and finite(c)):
        return None  # a ray or a segment is no set of end points
    both = x = b | c
    opens = b & ~c
    while opens:
        p = opens & -opens
        opens ^= p
        above = both & -(p << 1)
        x |= (above & -above) - p if above else -p
    return x if left(x) == b and right(x) == c else None
