"""Exhaustive enumerators, random generators, and the equivalence harness.

The enumerators stream every structure element built from a small point
pool, in a fixed order, so lemma-level checks can be exhaustive.  Both are
capped: subsets explode as 2^n and interval unions faster still, so pools
beyond the cap raise instead of hanging.

``check_equiv`` runs a Python-level predicate against a formula over a
stream of assignments and reports every disagreement; it is the harness
behind each lemma suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from .fci import FciSet, Segment
from .finset import FinSet
from .order import Point
from .syntax import Formula, Signature

FINSET_POOL_CAP = 12
FCI_POOL_CAP = 8


def enum_finsets(pool: FinSet) -> Iterator[FinSet]:
    """All subsets of the pool, in binary counting order on sorted elements."""
    n = len(pool)
    if n > FINSET_POOL_CAP:
        raise ValueError(f"refusing to enumerate 2^{n} subsets (cap is {FINSET_POOL_CAP} points)")
    elements = pool.elements
    for mask in range(1 << n):
        yield FinSet(tuple(elements[i] for i in range(n) if mask >> i & 1))


def _parses(
    points: tuple[Point, ...], segments_left: int, allow_ray: bool
) -> Iterator[tuple[tuple[Segment, ...], Optional[Point]]]:
    """All ways to read the sorted points as segments and an optional final ray.

    Each point is consumed either as a degenerate segment, as the left end
    of a segment closed by the next point, or (if it is the last one) as
    the start of the ray.
    """
    if not points:
        yield (), None
        return
    head, rest = points[0], points[1:]
    if segments_left > 0:
        for segs, ray in _parses(rest, segments_left - 1, allow_ray):
            yield (Segment(head, head),) + segs, ray
        if rest:
            for segs, ray in _parses(rest[1:], segments_left - 1, allow_ray):
                yield (Segment(head, rest[0]),) + segs, ray
    if allow_ray and not rest:
        yield (), head


def enum_fcis(pool: FinSet, max_segments: int, allow_ray: bool) -> Iterator[FciSet]:
    """All normalized interval unions with endpoints in the pool.

    Ordered by the subset of endpoints actually used (binary counting
    order), then by the reading of that subset.  Distinct readings give
    distinct normalized sets, so the stream is duplicate-free.
    """
    n = len(pool)
    if n > FCI_POOL_CAP:
        raise ValueError(f"refusing to enumerate interval unions over {n} points (cap is {FCI_POOL_CAP})")
    elements = pool.elements
    for mask in range(1 << n):
        used = tuple(elements[i] for i in range(n) if mask >> i & 1)
        for segs, ray in _parses(used, max_segments, allow_ray):
            yield FciSet(segs, ray)


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
    """A random normalized set with endpoints among the given points."""
    pool = tuple(sorted(set(points)))
    while True:
        used = tuple(p for p in pool if rng.random() < 0.4)
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


# -- equivalence harness -----------------------------------------------------------


@dataclass
class EquivReport:
    """Outcome of comparing a predicate with a formula over many assignments."""

    checked: int = 0
    failures: list[tuple[dict, bool, bool]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return f"checked={self.checked} failures={len(self.failures)}"


def check_equiv(
    predicate: Callable[[dict], bool],
    formula: Formula,
    assignments: Iterable[dict],
    sig: Signature,
    pool=None,
    cache=None,
) -> EquivReport:
    """Compare a Python predicate with bounded evaluation of a formula.

    ``pool`` may be a fixed WitnessPool, a callable from assignment to
    pool, or None for default_pool per assignment.  Evaluation errors are
    re-raised with the offending assignment attached.
    """
    from .semantics import EvalCache, default_pool, eval_bounded

    if cache is None:
        cache = EvalCache()
    report = EquivReport()
    for a in assignments:
        if pool is None:
            p = default_pool(a)
        elif callable(pool):
            p = pool(a)
        else:
            p = pool
        try:
            lhs = bool(predicate(a))
            rhs = eval_bounded(formula, a, p, sig, cache=cache)
        except Exception as exc:
            raise RuntimeError(f"evaluation failed at assignment {a!r}: {exc}") from exc
        report.checked += 1
        if lhs != rhs:
            report.failures.append((dict(a), lhs, rhs))
    return report
