"""Exhaustive enumerators and random generators.

The enumerators stream every structure element built from a small point
pool, in a fixed order, so lemma-level checks can be exhaustive;
``subset_masks`` and ``fci_masks`` list the same elements, in the same
order, as the solver's cell masks.  All are capped: subsets explode as
2^n and interval unions faster still, so pools beyond the cap raise
instead of hanging.  The generators draw seeded points, finite sets and
interval unions for the checks too large to enumerate.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .fci import FciSet, Segment, _from_cells
from .finset import FinSet
from .order import Point

FINSET_POOL_CAP = 12
FCI_POOL_CAP = 10


def enum_finsets(pool: FinSet) -> Iterator[FinSet]:
    """All subsets of the pool, in binary counting order on sorted elements."""
    elements = pool.elements
    for mask in subset_masks(range(len(elements))):
        yield FinSet(tuple(p for i, p in enumerate(elements) if mask >> 2 * i & 1))


def subset_masks(ranks: Sequence[int]) -> list[int]:
    """What ``enum_finsets`` yields, as cell masks over ranked points:
    the point of rank r is bit 2r."""
    if len(ranks) > FINSET_POOL_CAP:
        raise ValueError(f"refusing to enumerate 2^{len(ranks)} subsets (cap is {FINSET_POOL_CAP} points)")
    out = [0]
    for r in ranks:
        bit = 1 << 2 * r
        out += [m | bit for m in out]
    return out


def enum_fcis(pool: FinSet, max_segments: int, allow_ray: bool) -> Iterator[FciSet]:
    """All normalized interval unions with endpoints in the pool, in the
    order of ``fci_masks``."""
    elements = pool.elements
    for mask in fci_masks(range(len(elements)), max_segments, allow_ray):
        yield _from_cells(elements, mask)


def fci_masks(ranks: Sequence[int], max_segments: int, allow_ray: bool) -> list[int]:
    """All normalized interval unions with endpoints among the ranked
    points, as cell masks: the point of rank r is bit 2r, the open gap
    above it bit 2r+1, and a ray holds every bit from its start up, so
    it is a negative int.

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


def count_fcis(n_points: int, max_segments: int, allow_ray: bool) -> int:
    """Closed-form count of what enum_fcis yields for a pool of the given size.

    With k segments the used endpoints form a multiset counted by
    C(n+k, 2k); appending a ray start gives C(n+k, 2k+1).
    """
    total = 0
    for k in range(max_segments + 1):
        total += math.comb(n_points + k, 2 * k)
        if allow_ray:
            total += math.comb(n_points + k, 2 * k + 1)
    return total


# -- random generation -----------------------------------------------------------


def random_points(rng: random.Random, count: int, max_numerator: int = 24, max_denominator: int = 8) -> tuple[Point, ...]:
    """Distinct sorted nonnegative rationals."""
    values = {Fraction(n, d) for n in range(max_numerator + 1) for d in range(1, max_denominator + 1)}
    if count > len(values):
        raise ValueError(f"cannot draw {count} distinct points: the bounds allow {len(values)}")
    found: set[Point] = set()
    while len(found) < count:
        found.add(Fraction(rng.randint(0, max_numerator), rng.randint(1, max_denominator)))
    return tuple(sorted(found))


def random_finset(rng: random.Random, points: Iterable[Point]) -> FinSet:
    return FinSet.of(p for p in points if rng.random() < 0.5)


def random_fciset(
    rng: random.Random,
    points: Iterable[Point],
    max_segments: int = 3,
    allow_ray: bool = True,
) -> FciSet:
    """A random normalized set with endpoints among the given points.  A
    draw uses each point with probability 0.4, or with less on a large pool:
    ``2 * max_segments + 1`` points on average, so it is often accepted."""
    pool = tuple(sorted(set(points)))
    keep = min(0.4, (2 * max_segments + 1) / max(len(pool), 1))
    while True:
        used = tuple(p for p in pool if rng.random() < keep)
        segments: list[Segment] = []
        ray_lo: Optional[Point] = None
        i = 0
        while i < len(used):
            if allow_ray and i == len(used) - 1 and rng.random() < 0.25:
                ray_lo = used[i]
                i += 1
            elif i + 1 < len(used) and rng.random() < 0.5:
                segments.append(Segment(used[i], used[i + 1]))
                i += 2
            else:
                segments.append(Segment(used[i], used[i]))
                i += 1
        if len(segments) <= max_segments:
            return FciSet(tuple(segments), ray_lo)
