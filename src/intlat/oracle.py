"""Exhaustive enumerators and random generators.

The enumerators stream every structure element built from a small point
pool, in a fixed order, so lemma-level checks can be exhaustive: they
read back over the pool the cell masks that ``cells.subset_masks`` and
``cells.fci_masks`` list, so they share those lists' order and their
caps on the pool size.  The generators draw seeded points and interval
unions for the checks too large to enumerate.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .cells import fci_masks, subset_masks
from .fci import FciSet, Segment, _decode_fci
from .finset import FinSet, _decode_finset
from .order import Point


def enum_finsets(pool: FinSet) -> Iterator[FinSet]:
    """All subsets of the pool, in binary counting order on sorted elements."""
    for mask in subset_masks(range(len(pool))):
        yield _decode_finset(pool.elements, mask)


def enum_fcis(pool: FinSet, max_segments: int, allow_ray: bool) -> Iterator[FciSet]:
    """All normalized interval unions with endpoints in the pool, in the
    order of ``fci_masks``."""
    for mask in fci_masks(range(len(pool)), max_segments, allow_ray):
        yield _decode_fci(pool.elements, mask)


# -- random generation -----------------------------------------------------------


# the bounds of a drawn point's numerator and denominator, and of a drawn
# union's segment count
MAX_NUMERATOR = 24
MAX_DENOMINATOR = 8
MAX_SEGMENTS = 3


def random_points(rng: random.Random, count: int) -> tuple[Point, ...]:
    """Distinct sorted nonnegative rationals."""
    values = {Fraction(n, d) for n in range(MAX_NUMERATOR + 1) for d in range(1, MAX_DENOMINATOR + 1)}
    if count > len(values):
        raise ValueError(f"cannot draw {count} distinct points: the bounds allow {len(values)}")
    found: set[Point] = set()
    while len(found) < count:
        found.add(Fraction(rng.randint(0, MAX_NUMERATOR), rng.randint(1, MAX_DENOMINATOR)))
    return tuple(sorted(found))


def random_fciset(rng: random.Random, points: Iterable[Point]) -> FciSet:
    """A random normalized set of at most ``MAX_SEGMENTS`` segments and
    maybe a ray, with endpoints among the given points.  A draw uses each
    point with probability 0.4, or with less on a large pool:
    ``2 * MAX_SEGMENTS + 1`` points on average, so it is often accepted."""
    pool = tuple(sorted(set(points)))
    keep = min(0.4, (2 * MAX_SEGMENTS + 1) / max(len(pool), 1))
    while True:
        used = tuple(p for p in pool if rng.random() < keep)
        segments: list[Segment] = []
        ray_lo: Optional[Point] = None
        i = 0
        while i < len(used):
            if i == len(used) - 1 and rng.random() < 0.25:
                ray_lo = used[i]
                i += 1
            elif i + 1 < len(used) and rng.random() < 0.5:
                segments.append(Segment(used[i], used[i + 1]))
                i += 2
            else:
                segments.append(Segment(used[i], used[i]))
                i += 1
        if len(segments) <= MAX_SEGMENTS:
            return FciSet(tuple(segments), ray_lo)
