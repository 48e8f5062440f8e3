"""Helpers that only the tests use: a closed-form count of the interval
unions ``enum_fcis`` yields, and a seeded random finite set."""

import math
import random
from typing import Iterable

from intlat.finset import FinSet
from intlat.order import Point


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


def random_finset(rng: random.Random, points: Iterable[Point]) -> FinSet:
    return FinSet.of(p for p in points if rng.random() < 0.5)
