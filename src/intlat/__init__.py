"""Interval lattices over the nonnegative rationals.

Two structures built from exact rational points:

* ``FinSet`` -- finite sets of points with union, intersection, min/max,
  and a successor-preimage operation.
* ``FciSet`` -- finite unions of closed intervals (segments plus at most
  one unbounded ray) with union, intersection, min/max, and endpoint maps.

On top of them: a small first-order formula language for each signature,
bounded evaluation of quantified formulas over finite witness pools,
constructive translations between the two signatures, and exhaustive
checking suites for all the algebraic identities the translations rely on.
"""

from .order import Point, point, parse_point, midpoint, above
from .finset import FinSet, parse_finset
from .fci import FciSet, Segment, normalize, parse_fci, embed_finset
from .syntax import SIG_W, SIG_L, parse, format_formula, classify
from .semantics import WitnessPool, default_pool, eval_term, eval_qf, eval_bounded
from .transforms import (
    FragmentError,
    to_positive_existential,
    translate_W_to_L,
    translate_L_to_W,
    pipeline,
)
from .suites import SUITES

__version__ = "0.1.0"

__all__ = [
    "Point",
    "point",
    "parse_point",
    "midpoint",
    "above",
    "FinSet",
    "parse_finset",
    "FciSet",
    "Segment",
    "normalize",
    "parse_fci",
    "embed_finset",
    "SIG_W",
    "SIG_L",
    "parse",
    "format_formula",
    "classify",
    "WitnessPool",
    "default_pool",
    "eval_term",
    "eval_qf",
    "eval_bounded",
    "FragmentError",
    "to_positive_existential",
    "translate_W_to_L",
    "translate_L_to_W",
    "pipeline",
    "SUITES",
    "__version__",
]
