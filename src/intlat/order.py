"""Exact nonnegative rational points on the half line.

Points are plain ``fractions.Fraction`` values restricted to be >= 0, so
equality, ordering, and hashing come for free and stay exact.  The half
line is dense and has a left end at 0; ``midpoint`` witnesses density and
``above`` produces a point strictly beyond any given one.
"""

from __future__ import annotations

from fractions import Fraction

Point = Fraction

ZERO = Fraction(0)


def point(numerator: int | str | Fraction, denominator: int | None = None) -> Point:
    """Build a nonnegative rational point, reduced to lowest terms."""
    try:
        value = Fraction(numerator, denominator) if denominator is not None else Fraction(numerator)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational point: {numerator!r}" + (f"/{denominator!r}" if denominator is not None else "")) from exc
    if value < 0:
        raise ValueError(f"points must be nonnegative, got {value}")
    return value


def parse_point(text: str) -> Point:
    """Parse ``p`` or ``p/q`` into a point. Rejects negatives."""
    return point(text.strip())


def midpoint(a: Point, b: Point) -> Point:
    """The arithmetic mean of two points; requires ``a < b``."""
    if not a < b:
        raise ValueError(f"midpoint needs a < b, got {a} and {b}")
    return (a + b) / 2


def above(a: Point) -> Point:
    """A point strictly above ``a``."""
    return a + 1
