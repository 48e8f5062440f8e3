"""Finite unions of closed intervals on the nonnegative half line.

An ``FciSet`` is a finite union of closed segments ``[lo, hi]`` plus at
most one closed ray ``[lo, *)``.  The constructor ``normalize`` merges
touching or overlapping parts, so every set of this shape has exactly one
representation: segments strictly separated (each leaves a real gap to the
next) and the ray, if present, strictly beyond the last segment.  Because
the order is dense, two closed parts can be merged exactly when they share
a point.

Besides the lattice operations the module provides the endpoint maps
(``left_endpoints``/``right_endpoints``), the embedding of finite point
sets as unions of degenerate segments, reconstruction of a set from its
two endpoint sets, and the complement-of-open-gaps construction
``witness_d`` used to certify successor-preimage computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .finset import FinSet
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
        rays = [r for r in (self.ray_lo, other.ray_lo) if r is not None]
        return normalize(self.segments + other.segments, rays)

    def intersect(self, other: "FciSet") -> "FciSet":
        parts: list[Segment] = []
        for s in self.segments:
            for t in other.segments:
                lo, hi = max(s.lo, t.lo), min(s.hi, t.hi)
                if lo <= hi:
                    parts.append(Segment(lo, hi))
        if other.ray_lo is not None:
            for s in self.segments:
                if s.hi >= other.ray_lo:
                    parts.append(Segment(max(s.lo, other.ray_lo), s.hi))
        if self.ray_lo is not None:
            for t in other.segments:
                if t.hi >= self.ray_lo:
                    parts.append(Segment(max(t.lo, self.ray_lo), t.hi))
        rays = []
        if self.ray_lo is not None and other.ray_lo is not None:
            rays.append(max(self.ray_lo, other.ray_lo))
        return normalize(parts, rays)

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
        """Each maximal part must fit inside a single maximal part of ``other``."""
        for s in self.segments:
            if not any(t.lo <= s.lo and s.hi <= t.hi for t in other.segments):
                if other.ray_lo is None or s.lo < other.ray_lo:
                    return False
        if self.ray_lo is not None:
            if other.ray_lo is None or self.ray_lo < other.ray_lo:
                return False
        return True

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
    segs = sorted(
        (s if isinstance(s, Segment) else Segment(*s) for s in segments),
        key=lambda s: (s.lo, s.hi),
    )
    ray_list = list(rays)
    ray_lo = min(ray_list) if ray_list else None

    merged: list[Segment] = []
    for s in segs:
        if merged and s.lo <= merged[-1].hi:
            last = merged[-1]
            merged[-1] = Segment(last.lo, max(last.hi, s.hi))
        else:
            merged.append(s)

    if ray_lo is not None:
        kept: list[Segment] = []
        for s in reversed(merged):
            if s.hi >= ray_lo:
                ray_lo = min(ray_lo, s.lo)
            else:
                kept.append(s)
        merged = list(reversed(kept))

    return FciSet(tuple(merged), ray_lo)


# -- endpoint pairing ---------------------------------------------------------


def endpoint_condition(b: FinSet, c: FinSet) -> bool:
    """Whether (b, c) is the (left, right) endpoint pair of some nonempty set.

    Proper left endpoints must pair off with the next boundary point as a
    proper right endpoint; a set is unbounded exactly when its greatest
    boundary point is a proper left endpoint, which the second branch allows.
    """
    if not b:
        return False
    bd = b.union(c)
    if not bd.min_set().issubset(b):
        return False
    c_only = c.difference(b)
    b_only = b.difference(c)
    paired = bd.ips(c_only)
    if bd.max_set().issubset(c):
        return paired == b_only
    if bd.max_set().issubset(b_only):
        return paired.union(bd.max_set()) == b_only
    return False


def build_from_endpoints(b: FinSet, c: FinSet) -> FciSet:
    """Reconstruct the unique set whose endpoint pair is (b, c).

    Requires ``endpoint_condition(b, c)``.  Points in both sets are
    degenerate segments; a proper left endpoint pairs with the next
    boundary point, or starts the ray when it is the last one.
    """
    if not endpoint_condition(b, c):
        raise ValueError(f"no interval union has left endpoints {b} and right endpoints {c}")
    b_pts = set(b.elements)
    c_pts = set(c.elements)
    bd = sorted(b_pts | c_pts)
    segments: list[Segment] = []
    ray_lo: Optional[Point] = None
    i = 0
    while i < len(bd):
        p = bd[i]
        if p in b_pts and p in c_pts:
            segments.append(Segment(p, p))
            i += 1
        elif p in b_pts:
            if i + 1 < len(bd):
                segments.append(Segment(p, bd[i + 1]))
                i += 2
            else:
                ray_lo = p
                i += 1
        else:
            raise ValueError(f"unpaired right endpoint {p} in ({b}, {c})")
    return FciSet(tuple(segments), ray_lo)


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
    gaps = [(i, a.successor(i)) for i in c.elements]
    segments: list[Segment] = []
    cursor = Fraction(0)
    for lo, hi in gaps:
        segments.append(Segment(cursor, lo))
        assert hi is not None
        cursor = hi
    return FciSet(tuple(segments), cursor)


# -- representable set difference ---------------------------------------------


def difference_closed(a: FciSet, b: FciSet) -> Optional[FciSet]:
    """The set difference ``a - b`` when it is again a closed-interval union.

    Removing a closed part from a closed part exposes open ends, so the
    difference is representable only when every exposed end is degenerate.
    Returns None otherwise.
    """
    def nonempty(lo: Point, lo_strict: bool, hi: Optional[Point], hi_strict: bool) -> bool:
        if hi is None:
            return True
        if lo < hi:
            return True
        return lo == hi and not lo_strict and not hi_strict

    def b_complement() -> list[tuple[Point, bool, Optional[Point], bool]]:
        # flagged intervals (lo, lo_strict, hi, hi_strict), hi None = unbounded
        pieces: list[tuple[Point, bool, Optional[Point], bool]] = []
        cursor = Fraction(0)
        strict = False
        for s in b.segments:
            pieces.append((cursor, strict, s.lo, True))
            cursor, strict = s.hi, True
        if b.ray_lo is not None:
            pieces.append((cursor, strict, b.ray_lo, True))
        else:
            pieces.append((cursor, strict, None, False))
        return [p for p in pieces if nonempty(*p)]

    a_parts: list[tuple[Point, Optional[Point]]] = [(s.lo, s.hi) for s in a.segments]
    if a.ray_lo is not None:
        a_parts.append((a.ray_lo, None))

    segments: list[Segment] = []
    rays: list[Point] = []
    for plo, plo_strict, phi, phi_strict in b_complement():
        for lo, hi in a_parts:
            # intersect [lo, hi] (closed, hi None = unbounded) with the flagged piece
            if plo > lo or (plo == lo and plo_strict):
                ilo, ilo_strict = plo, plo_strict
            else:
                ilo, ilo_strict = lo, False
            if phi is None:
                ihi, ihi_strict = hi, False
            elif hi is None or phi < hi or (phi == hi and phi_strict):
                ihi, ihi_strict = phi, phi_strict
            else:
                ihi, ihi_strict = hi, False
            if not nonempty(ilo, ilo_strict, ihi, ihi_strict):
                continue
            if ilo_strict or (ihi is not None and ihi_strict):
                return None
            if ihi is None:
                rays.append(ilo)
            else:
                segments.append(Segment(ilo, ihi))
    return normalize(segments, rays)


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
            body = part[1:-1]
            lo_text, star = body.split(",", 1)
            if star.strip() != "*":
                raise ValueError(f"a ray must end with '*', got {part!r}")
            rays.append(parse_point(lo_text))
        elif part.startswith("[") and part.endswith("]"):
            lo_text, hi_text = part[1:-1].split(",", 1)
            segments.append(Segment(parse_point(lo_text), parse_point(hi_text)))
        else:
            raise ValueError(f"unrecognized interval part {part!r}")
    return normalize(segments, rays)


def format_fci(s: FciSet) -> str:
    parts = [str(seg) for seg in s.segments]
    if s.ray_lo is not None:
        parts.append(f"[{s.ray_lo},*)")
    return " + ".join(parts) if parts else "empty"
