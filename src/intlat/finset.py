"""Finite sets of points with lattice operations and a successor-preimage map.

A ``FinSet`` stores its points as a strictly increasing tuple, so equality
and hashing are structural and every set has exactly one representation.
``ips(A, B)`` collects the elements of ``A`` whose successor inside ``A``
lands in ``B``; it is the only operation here that looks at the ordering
of ``A`` rather than at membership alone.  Operations compute on cell
masks (see ``cells``); membership, ``in``, reads the elements directly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from . import cells
from .order import Point, point


@dataclass(frozen=True)
class FinSet:
    elements: tuple[Point, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.elements, self.elements[1:]):
            if not a < b:
                raise ValueError(f"elements must be strictly increasing, got {a} then {b}")
        if self.elements and self.elements[0] < 0:
            raise ValueError(f"points must be nonnegative, got {self.elements[0]}")

    def __hash__(self) -> int:
        # sets key caches (a pool holds one), so the hash is kept; it hashes
        # the points' exact keys, as a Fraction's own hash is costly
        h = self.__dict__.get("_hash")
        if h is None:
            h = cells.digest(self)
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def of(cls, points: Iterable[Point | int | str]) -> "FinSet":
        return cls(tuple(sorted({point(p) for p in points})))

    def __iter__(self) -> Iterator[Point]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __contains__(self, p: Point) -> bool:
        i = bisect_left(self.elements, p)
        return i < len(self.elements) and self.elements[i] == p

    def __str__(self) -> str:
        return format_finset(self)

    def union(self, other: "FinSet") -> "FinSet":
        return _decode_finset(*cells.apply(or_, self, other))

    def intersect(self, other: "FinSet") -> "FinSet":
        return _decode_finset(*cells.apply(and_, self, other))

    def difference(self, other: "FinSet") -> "FinSet":
        """Relative complement: the unique C with (A & B) | C = A and B & C empty."""
        return _decode_finset(*cells.apply(cells.minus, self, other))

    def min_set(self) -> "FinSet":
        """Singleton of the least element; empty set is a fixed point."""
        return _decode_finset(*cells.apply(cells.least, self))

    def max_set(self) -> "FinSet":
        """Singleton of the greatest element; empty set is a fixed point."""
        return _decode_finset(*cells.apply(cells.top, self))

    def ips(self, other: "FinSet") -> "FinSet":
        """Elements of A whose successor inside A belongs to B."""
        return _decode_finset(*cells.apply(cells.ips, self, other))

    def issubset(self, other: "FinSet") -> bool:
        return cells.apply(cells.within, self, other)[1]


def _decode_finset(pts: Sequence[Point], mask: int) -> FinSet:
    """The set of the points of ``pts`` whose cells ``mask`` holds."""
    return cells.build(FinSet, elements=cells.points(pts, mask))


EMPTY_FS = FinSet()


def zero_set() -> FinSet:
    """The distinguished singleton {0}."""
    return FinSet((Fraction(0),))


def parse_finset(text: str) -> FinSet:
    """Parse ``{}`` or ``{p1, p2, ...}``."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"finite set must be brace delimited, got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return EMPTY_FS
    return FinSet.of(part.strip() for part in body.split(","))


def format_finset(s: FinSet) -> str:
    return "{" + ", ".join(str(p) for p in s.elements) + "}"
