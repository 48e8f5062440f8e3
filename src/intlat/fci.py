"""Finite unions of closed intervals on the nonnegative half line.

An ``FciSet`` is a finite union of closed segments ``[lo, hi]`` plus at
most one closed ray ``[lo, *)``.  The constructor ``normalize`` merges
touching or overlapping parts, so every set of this shape has exactly one
representation: segments strictly separated (each leaves a real gap to the
next) and the ray, if present, strictly beyond the last segment.  Because
the order is dense, two closed parts can be merged exactly when they share
a point.

By the endpoint lemma, a set whose boundary points lie among sorted
points p0 < ... < pn-1 is fixed by its cells: which of those points, and
which open gaps between them, it holds, the gap above pn-1 being the
ray.  ``_held`` writes the cells of raw parts as a mask, bit 2i for pi,
bit 2i+1 for the gap above it and a ray every bit from its start up (a
negative int), for the kernels and the solver; ``_from_cells`` reads it.
A mask is a set exactly when it is closed: each held gap holds the points
on both sides (below only, for the ray).  Every set-valued operation goes
through the cells.  ``normalize`` is the OR of its raw parts' masks.  On
the boundary points of both operands, ``union`` is ``|``, ``intersect``
``&``, ``difference_closed`` ``& ~`` and ``issubset`` an empty ``& ~``.
The endpoint builder and ``witness_d`` write their masks directly.

Besides the lattice operations the module provides the endpoint maps
(``left_endpoints``/``right_endpoints``), the embedding of finite point
sets as unions of degenerate segments, reconstruction of a set from its
two endpoint sets, and the complement-of-open-gaps construction
``witness_d`` used to certify successor-preimage computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .finset import FinSet, zero_set
from .order import Point, parse_point


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
        # same caching trick as FinSet: these land in evaluator cache keys
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.segments, self.ray_lo))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.segments) or self.ray_lo is not None

    def __str__(self) -> str:
        return format_fci(self)

    # -- lattice operations -------------------------------------------------

    def union(self, other: "FciSet") -> "FciSet":
        pts, a, b = _cells(self, other)
        return _from_cells(pts, a | b)

    def intersect(self, other: "FciSet") -> "FciSet":
        pts, a, b = _cells(self, other)
        return _from_cells(pts, a & b)

    def min_set(self) -> "FciSet":
        """Singleton of the least point; empty set is a fixed point."""
        if self.segments:
            return embed_point(self.segments[0].lo)
        if self.ray_lo is not None:
            return embed_point(self.ray_lo)
        return EMPTY_FCI

    def max_set(self) -> "FciSet":
        """Singleton of the greatest point; empty for the empty set and for rays."""
        if self.ray_lo is not None:
            return EMPTY_FCI
        if self.segments:
            return embed_point(self.segments[-1].hi)
        return EMPTY_FCI

    # -- endpoint structure --------------------------------------------------

    def left_endpoints(self) -> FinSet:
        """Every point that begins a maximal part; the ray contributes its start."""
        pts = [s.lo for s in self.segments]
        if self.ray_lo is not None:
            pts.append(self.ray_lo)
        return FinSet(tuple(pts))

    def right_endpoints(self) -> FinSet:
        """Every point that ends a maximal part; the ray has no right endpoint."""
        return FinSet(tuple(s.hi for s in self.segments))

    def boundary(self) -> FinSet:
        got = self.__dict__.get("_boundary")
        if got is None:
            got = self.left_endpoints().union(self.right_endpoints())
            object.__setattr__(self, "_boundary", got)
        return got

    # -- membership ----------------------------------------------------------

    def contains(self, p: Point) -> bool:
        for s in self.segments:
            if s.lo <= p <= s.hi:
                return True
        return self.ray_lo is not None and p >= self.ray_lo

    def issubset(self, other: "FciSet") -> bool:
        """Whether ``other`` holds every cell this set holds."""
        _, a, b = _cells(self, other)
        return not a & ~b

    # -- finite sets inside the structure -------------------------------------

    def is_finite_set(self) -> bool:
        """True when the set is a finite union of degenerate segments."""
        return self.ray_lo is None and all(s.lo == s.hi for s in self.segments)

    def as_finset(self) -> FinSet:
        if not self.is_finite_set():
            raise ValueError(f"not a finite point set: {self}")
        return FinSet(tuple(s.lo for s in self.segments))


EMPTY_FCI = FciSet()


def embed_point(p: Point) -> FciSet:
    return FciSet((Segment(p, p),), None)


def embed_finset(s: FinSet) -> FciSet:
    """A finite point set as a union of degenerate segments."""
    return FciSet(tuple(Segment(p, p) for p in s.elements), None)


def zero_fci() -> FciSet:
    return embed_point(Fraction(0))


def normalize(segments: Iterable[Segment | tuple[Point, Point]] = (), rays: Iterable[Point] = ()) -> FciSet:
    """Merge raw closed parts into the unique normal form.

    Touching counts as overlapping: ``[1,2]`` and ``[2,3]`` merge, while a
    gap of any positive length keeps parts separate.
    """
    segs = [s if isinstance(s, Segment) else Segment(*s) for s in segments]
    ray_lo = min(rays, default=None)
    pts, rank = _grid(segs, (ray_lo,))
    return _from_cells(pts, _held(rank, segs, ray_lo))


# -- cells ---------------------------------------------------------------------


def _grid(segments: Iterable[Segment], rays: Iterable[Optional[Point]]) -> tuple[list[Point], dict]:
    """The sorted end points of the parts (None for no ray) and their ranks."""
    pts = {r for r in rays if r is not None}
    for s in segments:
        pts.add(s.lo)
        pts.add(s.hi)
    ordered = sorted(pts)
    return ordered, {p: i for i, p in enumerate(ordered)}


def _held(rank: dict, segments: Iterable[Segment], ray_lo: Optional[Point]) -> int:
    """The cells the parts hold over the points ``rank`` ranks, which
    include their end points."""
    mask = 0 if ray_lo is None else -1 << 2 * rank[ray_lo]
    for s in segments:
        mask |= (2 << 2 * rank[s.hi]) - (1 << 2 * rank[s.lo])
    return mask


def _cells(a: FciSet, b: FciSet) -> tuple[list[Point], int, int]:
    """The sorted boundary points of ``a`` and ``b``, and the cells each holds."""
    pts, rank = _grid(a.segments + b.segments, (a.ray_lo, b.ray_lo))
    return pts, _held(rank, a.segments, a.ray_lo), _held(rank, b.segments, b.ray_lo)


def _from_cells(pts: Sequence[Point], mask: int) -> Optional[FciSet]:
    """The set holding exactly the cells in ``mask``, or None when they
    are not closed: a held gap lacks the point below it, or the point
    above it short of the last point."""
    segments: list[Segment] = []
    lo: Optional[Point] = None
    for p in pts:
        if mask & 1:
            if lo is None:
                lo = p
            if not mask & 2:
                segments.append(Segment(lo, p))
                lo = None
        elif mask & 2 or lo is not None:
            return None
        mask >>= 2
    return FciSet(tuple(segments), lo)


# -- endpoint pairing ---------------------------------------------------------


def _from_endpoints(b: FinSet, c: FinSet) -> Optional[FciSet]:
    """The set whose (left, right) endpoint pair is (b, c), or None.

    The only candidate holds every point of b | c and the open gap above
    each point of b - c, the gap above the last point being the ray.
    (b, c) is a pair exactly when b is nonempty and the candidate's
    endpoints are exactly (b, c).
    """
    opens = set(b.elements).difference(c.elements)
    pts = b.union(c).elements
    x = _from_cells(pts, sum((3 if p in opens else 1) << 2 * i for i, p in enumerate(pts)))
    return x if b and x.left_endpoints() == b and x.right_endpoints() == c else None


def endpoint_condition(b: FinSet, c: FinSet) -> bool:
    """Whether (b, c) is the (left, right) endpoint pair of some nonempty set."""
    return _from_endpoints(b, c) is not None


def build_from_endpoints(b: FinSet, c: FinSet) -> FciSet:
    """Reconstruct the unique set whose endpoint pair is (b, c).

    Raises ValueError when there is none, that is unless
    ``endpoint_condition(b, c)``.
    """
    x = _from_endpoints(b, c)
    if x is None:
        raise ValueError(f"no interval union has left endpoints {b} and right endpoints {c}")
    return x


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
    # every point of a and 0 is held, and every gap but those above c
    pts = a.union(zero_set()).elements
    closes = set(c.elements)
    return _from_cells(pts, sum((1 if p in closes else 3) << 2 * i for i, p in enumerate(pts)))


# -- representable set difference ---------------------------------------------


def difference_closed(a: FciSet, b: FciSet) -> Optional[FciSet]:
    """The set difference ``a - b`` when it is again a closed-interval union.

    Removing a closed part from a closed part exposes open ends, so the
    difference is representable only when every exposed end is degenerate.
    Returns None otherwise.
    """
    pts, x, y = _cells(a, b)
    return _from_cells(pts, x & ~y)


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
