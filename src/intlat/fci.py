"""Finite unions of closed intervals on the nonnegative half line.

An ``FciSet`` is a finite union of closed segments ``[lo, hi]`` plus at
most one closed ray ``[lo, *)``.  The constructor ``normalize`` merges
touching or overlapping parts, so every set of this shape has exactly one
representation: segments strictly separated (each leaves a real gap to the
next) and the ray, if present, strictly beyond the last segment.  Because
the order is dense, two closed parts can be merged exactly when they share
a point.

Every operation computes on the cell masks of its operands (see
``cells``): ``normalize`` reads back the cells of its raw parts, and
``issubset`` is ``cells.within``.  Membership, ``contains``, reads the
parts directly.

Besides the lattice operations the module provides the endpoint maps
(``left_endpoints``/``right_endpoints``), the embedding of finite point
sets as unions of degenerate segments, reconstruction of a set from its
two endpoint sets, and the complement-of-open-gaps construction
``witness_d`` used to certify successor-preimage computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterable, Optional, Sequence

from . import cells
from .finset import FinSet, _decode_finset
from .order import ZERO, Point, parse_point, point


@dataclass(frozen=True)
class Segment:
    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if self.lo < 0:
            raise ValueError(f"points must be nonnegative, got {self.lo}")
        if self.hi < self.lo:
            raise ValueError(f"segment needs lo <= hi, got [{self.lo}, {self.hi}]")

    def __str__(self) -> str:
        if self.lo == self.hi:
            return "{" + str(self.lo) + "}"
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class FciSet:
    segments: tuple[Segment, ...] = ()
    ray_lo: Optional[Point] = None

    def __post_init__(self) -> None:
        for a, b in zip(self.segments, self.segments[1:]):
            if not a.hi < b.lo:
                raise ValueError(f"segments must be strictly separated, got {a} then {b}")
        if self.ray_lo is not None:
            if self.ray_lo < 0:
                raise ValueError(f"points must be nonnegative, got {self.ray_lo}")
            if self.segments and not self.segments[-1].hi < self.ray_lo:
                raise ValueError("ray must start strictly after the last segment")

    def __hash__(self) -> int:
        # kept and made as FinSet's is: of the points' exact keys
        h = self.__dict__.get("_hash")
        if h is None:
            h = cells.digest(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.segments) or self.ray_lo is not None

    def __str__(self) -> str:
        return format_fci(self)

    # -- lattice operations -------------------------------------------------

    def union(self, other: "FciSet") -> "FciSet":
        return _decode_fci(*cells.apply(or_, self, other))

    def intersect(self, other: "FciSet") -> "FciSet":
        return _decode_fci(*cells.apply(and_, self, other))

    def min_set(self) -> "FciSet":
        """Singleton of the least point; empty set is a fixed point."""
        return _decode_fci(*cells.apply(cells.least, self))

    def max_set(self) -> "FciSet":
        """Singleton of the greatest point; empty for the empty set and for rays."""
        return _decode_fci(*cells.apply(cells.top, self))

    # -- endpoint structure --------------------------------------------------

    def left_endpoints(self) -> FinSet:
        """Every point that begins a maximal part; the ray contributes its start."""
        return _decode_finset(*cells.apply(cells.left, self))

    def right_endpoints(self) -> FinSet:
        """Every point that ends a maximal part; the ray has no right endpoint."""
        return _decode_finset(*cells.apply(cells.right, self))

    def boundary(self) -> FinSet:
        """Every endpoint of a maximal part, left or right."""
        return _decode_finset(*cells.apply(lambda x: cells.left(x) | cells.right(x), self))

    # -- membership ----------------------------------------------------------

    def contains(self, p: Point) -> bool:
        for s in self.segments:
            if s.lo <= p <= s.hi:
                return True
        return self.ray_lo is not None and p >= self.ray_lo

    def issubset(self, other: "FciSet") -> bool:
        """Whether ``other`` holds every cell this set holds."""
        return cells.apply(cells.within, self, other)[1]

    # -- finite sets inside the structure -------------------------------------

    def is_finite_set(self) -> bool:
        """True when the set is a finite union of degenerate segments."""
        return self.ray_lo is None and all(s.lo == s.hi for s in self.segments)


EMPTY_FCI = FciSet()


def embed_point(p: Point) -> FciSet:
    return FciSet((Segment(p, p),), None)


def embed_finset(s: FinSet) -> FciSet:
    """A finite point set as a union of degenerate segments."""
    return FciSet(tuple(Segment(p, p) for p in s.elements), None)


def zero_fci() -> FciSet:
    return embed_point(ZERO)


def normalize(segments: Iterable[Segment | tuple[Point, Point]] = (), rays: Iterable[Point] = ()) -> FciSet:
    """Merge raw closed parts into the unique normal form.

    Touching counts as overlapping: ``[1,2]`` and ``[2,3]`` merge, while a
    gap of any positive length keeps parts separate.
    """
    parts = [FciSet((s if isinstance(s, Segment) else Segment(*s),)) for s in segments]
    parts += [FciSet((), r) for r in map(point, rays)]
    return _decode_fci(*cells.apply(lambda *masks: reduce(or_, masks, 0), *parts))


def _decode_fci(pts: Sequence[Point], mask: int) -> FciSet:
    """The union holding exactly the cells of the closed ``mask`` over ``pts``."""
    segments, ray_lo = cells.parts(pts, mask)
    return cells.build(
        FciSet, segments=tuple(cells.build(Segment, lo=lo, hi=hi) for lo, hi in segments), ray_lo=ray_lo
    )


# -- endpoint pairing ---------------------------------------------------------


def endpoint_condition(b: FinSet, c: FinSet) -> bool:
    """Whether (b, c) is the (left, right) endpoint pair of some nonempty
    set (``cells.from_endpoints``; 0 is the empty union of two empty sets)."""
    return bool(cells.apply(cells.from_endpoints, b, c)[1])


def build_from_endpoints(b: FinSet, c: FinSet) -> FciSet:
    """Reconstruct the unique set whose endpoint pair is (b, c).

    Raises ValueError when there is none, that is unless
    ``endpoint_condition(b, c)``.
    """
    pts, x = cells.apply(cells.from_endpoints, b, c)
    if not x:
        raise ValueError(f"no interval union has left endpoints {b} and right endpoints {c}")
    return _decode_fci(pts, x)


def witness_d(a: FinSet, b: FinSet, c: FinSet) -> FciSet:
    """The complement of the open gaps that certify ``a.ips(b) == c``.

    Requires nonempty ``b`` with ``b <= a`` and ``a.ips(b) == c``.  Every
    element of ``c`` opens a gap up to its successor inside ``a``; the
    returned set is the whole half line minus those open gaps, so it keeps
    all gap endpoints and ends in a ray.
    """
    if not b or not b.issubset(a):
        raise ValueError(f"need a nonempty subset, got b={b} inside a={a}")
    if a.ips(b) != c:
        raise ValueError(f"ips({a}, {b}) is {a.ips(b)}, not {c}")
    # every cell from 0 up on the points of a, but the open gaps above c
    return _decode_fci(*cells.apply(lambda mc: ~(mc << 1), c, extra=(ZERO, *a.elements)))


# -- representable set difference ---------------------------------------------


def difference_closed(a: FciSet, b: FciSet) -> Optional[FciSet]:
    """The set difference ``a - b`` when it is again a closed-interval union.

    Removing a closed part from a closed part exposes open ends, so the
    difference is representable only when every exposed end is degenerate.
    Returns None otherwise.
    """
    pts, d = cells.apply(cells.difference_closed, a, b)
    return None if d is None else _decode_fci(pts, d)


# -- text form ---------------------------------------------------------------


def parse_fci(text: str) -> FciSet:
    """Parse ``empty`` or ``+``-joined parts ``[a,b]``, ``{p}``, ``[a,*)``."""
    s = text.strip()
    if s == "empty":
        return EMPTY_FCI
    segments: list[Segment] = []
    rays: list[Point] = []
    for raw in s.split("+"):
        part = raw.strip()
        if part.startswith("{") and part.endswith("}"):
            p = parse_point(part[1:-1])
            segments.append(Segment(p, p))
        elif part.startswith("[") and part.endswith(")"):
            lo_text, comma, star = part[1:-1].partition(",")
            if not comma or star.strip() != "*":
                raise ValueError(f"a ray must read [a,*), got {part!r}")
            rays.append(parse_point(lo_text))
        elif part.startswith("[") and part.endswith("]"):
            lo_text, comma, hi_text = part[1:-1].partition(",")
            if not comma:
                raise ValueError(f"a segment must read [a,b], got {part!r}")
            segments.append(Segment(parse_point(lo_text), parse_point(hi_text)))
        else:
            raise ValueError(f"unrecognized interval part {part!r}")
    return normalize(segments, rays)


def format_fci(s: FciSet) -> str:
    parts = [str(seg) for seg in s.segments]
    if s.ray_lo is not None:
        parts.append(f"[{s.ray_lo},*)")
    return " + ".join(parts) if parts else "empty"
