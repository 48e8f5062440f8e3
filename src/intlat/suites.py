"""Named check suites: each one runs a lemma or translation over an
exhaustive (or seeded-random) family and reports every disagreement.

These back both the ``check`` command and the acceptance tests.  Each
case pairs an assignment with its expected verdict, computed directly on
the value level from the value the suite enumerated (kernel set
operations, or the input formula itself where a rewrite is checked); the
other side evaluates the formula under test, so a bug in either layer
shows up as a failure.  ``EquivReport.add`` counts every comparison, and
``check_equiv`` feeds it one formula's cases.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import cells
from .fci import (
    EMPTY_FCI,
    FciSet,
    _decode_fci,
    build_from_endpoints,
    embed_finset,
    endpoint_condition,
    witness_d,
    zero_fci,
)
from .finset import FinSet, _decode_finset, zero_set
from .oracle import enum_fcis, enum_finsets, random_fciset, random_points
from .semantics import Assignment, EvalCache, WitnessPool, default_pool, eval_bounded, widened
from .syntax import SIG_L, SIG_W, Formula, Signature, Var, classify, delta_domain, free_vars, parse
from .transforms import (
    CoordinatePair,
    FragmentError,
    _l2w,
    notbot,
    phi_in,
    phi_ips,
    phi_subseteq,
    pipeline,
    to_positive_existential,
    translate_W_to_L,
)


@dataclass
class EquivReport:
    """Every comparison a suite made, and the ones whose sides differ."""

    checked: int = 0
    failures: list[tuple[dict, object, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return f"checked={self.checked} failures={len(self.failures)}"

    def add(self, note: dict, lhs, rhs) -> None:
        """Count one comparison, and keep it with its note if the sides differ."""
        self.checked += 1
        if lhs != rhs:
            self.failures.append((note, lhs, rhs))


def check_equiv(
    report: EquivReport,
    text: str,
    formula: Formula,
    cases: Iterable[tuple[Assignment, bool]],
    sig: Signature,
    pool: Optional[WitnessPool] = None,
) -> None:
    """Add to ``report`` one comparison per ``(assignment, expected)``
    case: the expected verdict against bounded evaluation of ``formula``,
    a failure noted with the assignment and ``text``.

    ``pool`` may be a fixed WitnessPool, or None for default_pool per
    assignment.  Evaluation errors are re-raised with the offending
    assignment attached.
    """
    cache = EvalCache()
    for a, expected in cases:
        p = default_pool(a) if pool is None else pool
        try:
            got = eval_bounded(formula, a, p, sig, cache=cache)
        except Exception as exc:
            raise RuntimeError(f"evaluation failed at assignment {a!r}: {exc}") from exc
        report.add({**a, "formula": text}, expected, got)


def _ints(n: int) -> FinSet:
    return FinSet.of(range(n))


def _assignments(names: Sequence[str], family: Iterable) -> Iterator[dict]:
    """Every assignment of family members to the names, first name outermost."""
    return (dict(zip(names, values)) for values in itertools.product(family, repeat=len(names)))


# -- nonemptiness without negation ---------------------------------------------------


def suite_notbot(pool_size: Optional[int] = None) -> EquivReport:
    """A is nonempty iff A = cz or cz sub ips(A cup cz, A), over all subsets."""
    if pool_size is None:
        points = FinSet.of([0, 1, 2, Fraction(5, 2), 4])
    else:
        points = _ints(pool_size)
    pool = WitnessPool(points=points, max_segments=len(points))
    report = EquivReport()
    cases = (({"A": s}, bool(s)) for s in enum_finsets(points))
    check_equiv(report, "notbot(A)", notbot(Var("A")), cases, SIG_W, pool=pool)
    return report


# -- the interval characterization of ips --------------------------------------------


def _ips_clause(a: int, b: int, c: int, d: int) -> bool:
    """Value-level reading of the characterizing clause, including the
    unboundedness of the witness, on the cell masks of finite sets ``a``,
    ``b``, ``c`` and of the interval union ``d`` over one grid whose least
    point is 0: d has left endpoints b less the least point of a, with 0
    adjoined, and right endpoints c, holds a, and has no greatest point."""
    return (
        cells.left(d) == cells.minus(b, cells.least(a)) | cells.point(0)
        and cells.right(d) == c
        and cells.within(c, a)
        and cells.within(a, d)
        and not cells.top(d)
    )


def suite_ipschar(pool_size: Optional[int] = None) -> EquivReport:
    """Both directions of the characterization of ips(A, B) = C by an
    unbounded interval witness, plus the formula version over all triples."""
    points = _ints(4 if pool_size is None else pool_size)
    report = EquivReport()
    dpoints = widened(points)
    # every set (the empty one first) as cells over the witnesses' points
    rank = cells.ranking(dpoints.elements)
    sets = list(enum_finsets(points))
    mask = {s: cells.encode(s, rank) for s in sets}

    # forward: the constructed witness satisfies a clause whenever ips(A,B)=C
    for a in sets[1:]:
        for b in itertools.islice(enum_finsets(a), 1, None):
            c = a.ips(b)
            d = witness_d(a, b, c)
            found = _ips_clause(mask[a], mask[b], mask[c], cells.encode(d, rank))
            report.add({"A": a, "B": b, "C": c, "D": d}, True, found)

    # converse: over all candidate witnesses, some D fits exactly when
    # ips(A,B)=C; the clause puts every end of D among the points
    by_right: dict[int, list[int]] = {}
    for d in cells.fci_masks([rank(p) for p in points], len(points), True):
        by_right.setdefault(cells.right(d), []).append(d)
    for a in sets[1:]:
        for b in itertools.islice(enum_finsets(a), 1, None):
            for c in sets:
                found = any(_ips_clause(mask[a], mask[b], mask[c], d) for d in by_right.get(mask[c], ()))
                report.add({"A": a, "B": b, "C": c}, cells.ips(mask[a], mask[b]) == mask[c], found)

    # the same statement as an interval formula, on every triple
    pool = WitnessPool(points=dpoints, max_segments=len(dpoints))
    embedded = {s: embed_finset(s) for s in sets}
    cases = (
        ({"X": embedded[a], "Y": embedded[b], "Z": embedded[c]}, cells.ips(mask[a], mask[b]) == mask[c])
        for a, b, c in itertools.product(sets, repeat=3)
    )
    check_equiv(report, "phi_ips", phi_ips(), cases, SIG_L, pool=pool)
    return report


# -- endpoint pairs ------------------------------------------------------------------


def suite_endpoints(pool_size: Optional[int] = None) -> EquivReport:
    """The endpoint condition characterizes coordinate pairs: every set
    satisfies it and rebuilds from its own endpoints, and every pair
    satisfying it is realized (others make the builder balk)."""
    points = _ints(5 if pool_size is None else pool_size)
    report = EquivReport()
    dom = delta_domain()
    pool = WitnessPool(points=points, max_segments=len(points))
    cache = EvalCache()

    def domain(b: FinSet, c: FinSet) -> bool:
        return eval_bounded(dom, {"B": b, "C": c}, pool, SIG_W, cache=cache)

    for x in enum_fcis(points, 3, True):
        if not x:
            continue
        b, c = x.left_endpoints(), x.right_endpoints()
        holds = endpoint_condition(b, c) and domain(b, c)
        rebuilt = build_from_endpoints(b, c)
        report.add({"A": x}, True, holds and rebuilt == x)

    for b in enum_finsets(points):
        for c in enum_finsets(points):
            value = endpoint_condition(b, c)
            formula = domain(b, c)
            report.add({"B": b, "C": c, "side": "formula"}, value, formula)
            try:
                x = build_from_endpoints(b, c)
                realized = x.left_endpoints() == b and x.right_endpoints() == c
            except ValueError:
                realized = None
            report.add({"B": b, "C": c, "side": "builder"}, value, realized is not None and realized)
    return report


# -- membership and containment ------------------------------------------------------


def _member_family(pool_size: Optional[int]) -> tuple[list[tuple[int, FciSet, FinSet, FinSet]], list, WitnessPool]:
    """Each union on the pool as its cell mask, with the union and its left
    and right endpoints read back; the points to test them at; and a pool
    of those points."""
    points = _ints(5 if pool_size is None else pool_size).elements
    zs = list(widened(points))
    sets = [
        (u, _decode_fci(points, u), _decode_finset(points, cells.left(u)), _decode_finset(points, cells.right(u)))
        for u in cells.fci_masks(range(len(points)), 3, True)
    ]
    return sets, zs, WitnessPool(points=FinSet.of(zs), max_segments=len(zs))


def suite_member(pool_size: Optional[int] = None) -> EquivReport:
    """phi_in on coordinates agrees with pointwise membership."""
    sets, zs, pool = _member_family(pool_size)
    report = EquivReport()
    cases = (({"Xl": xl, "Xr": xr, "Z": FinSet((z,))}, x.contains(z)) for _, x, xl, xr in sets for z in zs)
    check_equiv(report, "phi_in", phi_in(), cases, SIG_W, pool=pool)
    return report


def suite_subset(pool_size: Optional[int] = None) -> EquivReport:
    """phi_subseteq on coordinates agrees with containment."""
    sets, _, pool = _member_family(pool_size)
    report = EquivReport()
    cases = (
        ({"Xl": xl, "Xr": xr, "Yl": yl, "Yr": yr}, cells.within(u, v))
        for (u, _, xl, xr), (v, _, yl, yr) in itertools.product(sets, repeat=2)
    )
    check_equiv(report, "phi_subseteq", phi_subseteq(), cases, SIG_W, pool=pool)
    return report


# -- quantifier-free negation elimination --------------------------------------------

POSEX_CORPUS = [
    "!(X = bot)",
    "!(X = Y) | X sub Y",
    "!(cup(X, cz) = X)",
    "cap(X, Y) = bot & !(X = bot)",
    "!(min(X) = max(X))",
    "ips(cup(X, cz), X) = bot",
    "!(ips(X, Y) = bot)",
    "!(X = bot) & !(Y = bot) & cap(X, Y) = bot",
    "cup(min(X), max(X)) = X | !(cap(X, cz) = bot)",
    "!(max(cup(X, Y)) = max(X))",
    "min(cap(X, Y)) = min(X) & !(X = Y)",
]


def suite_posex(pool_size: Optional[int] = None) -> EquivReport:
    """Negation elimination preserves meaning on quantifier-free formulas."""
    points = _ints(4 if pool_size is None else pool_size)
    pool = WitnessPool(points=points, max_segments=len(points))
    report = EquivReport()
    cache = EvalCache()
    for text in POSEX_CORPUS:
        f = parse(text, SIG_W)
        g = to_positive_existential(f)
        report.add({"formula": text, "side": "shape"}, "positive_existential", classify(g))
        assignments = _assignments(sorted(free_vars(f)), enum_finsets(points))
        cases = ((a, eval_bounded(f, a, pool, SIG_W, cache=cache)) for a in assignments)
        check_equiv(report, text, g, cases, SIG_W, pool=pool)
    return report


# -- finite-set formulas over embedded finite sets -----------------------------------

W2L_CORPUS = [
    "cz sub ips(cup(X, cz), X)",
    "E Y. (Y = cz | cz sub ips(cup(Y, cz), Y)) & cap(Y, X) = Y",
    "ips(X, Y) = Z",
    "ips(X, max(X)) = Y",
    "min(X) = max(X)",
    "cup(min(X), max(Y)) = Z",
    "cap(X, Y) = bot",
    "X = bot | E Y. min(X) = Y & cap(Y, cz) = bot",
    "E U. E V. cup(U, V) = X & cap(U, V) = bot & U = min(U)",
    "ips(cup(X, Y), cap(X, Y)) = Z",
    "cup(ips(X, Y), cz) = Z",
    "min(ips(X, X)) = Y",
]


def suite_w2l(pool_size: Optional[int] = None) -> EquivReport:
    """Each corpus formula agrees with its interval translation on all
    embedded finite sets over the pool."""
    points = _ints(4 if pool_size is None else pool_size)
    pool = WitnessPool(points=points, max_segments=len(points) + 1)
    embedded = {s: embed_finset(s) for s in enum_finsets(points)}
    report = EquivReport()
    for text in W2L_CORPUS:
        f = parse(text, SIG_W)
        wcache = EvalCache()
        cases = (
            ({v: embedded[s] for v, s in a.items()}, eval_bounded(f, a, pool, SIG_W, cache=wcache))
            for a in _assignments(sorted(free_vars(f)), embedded)
        )
        check_equiv(report, text, translate_W_to_L(f), cases, SIG_L, pool=pool)
    return report


# -- interval formulas over endpoint coordinates -------------------------------------

L2W_CORPUS: list[tuple[str, Callable[[dict], bool]]] = [
    ("l(X) = r(X)", lambda a: a["X"].is_finite_set()),
    ("X = bot", lambda a: a["X"] == EMPTY_FCI),
    ("max(X) = bot", lambda a: not a["X"].max_set()),
    ("min(X) = cz", lambda a: a["X"].min_set() == zero_fci()),
    ("X sub Y", lambda a: a["X"].issubset(a["Y"])),
    ("E W. cup(X, cz) = W & W = X", lambda a: zero_fci().issubset(a["X"])),
    (
        "E Y. l(Y) = r(Y) & cup(Y, cz) = Y & cap(Y, min(X)) = bot",
        lambda a: a["X"].min_set() != zero_fci(),
    ),
    ("min(X) = max(X)", lambda a: a["X"].min_set() == a["X"].max_set()),
    (
        "E Y. max(X) = Y & cap(Y, cz) = bot & l(Y) = r(Y)",
        lambda a: not a["X"].max_set().intersect(zero_fci()),
    ),
    ("r(X) = cz", lambda a: a["X"].right_endpoints() == zero_set()),
    ("E Y. min(X) = Y & min(Y) = Y", lambda a: True),
    ("A Y. (l(Y) = l(X) & r(Y) = r(X) -> Y = X)", lambda a: True),
]


def _coords(a: dict, pairs: dict[str, CoordinatePair], ends: dict) -> dict:
    """The assignment's unions as endpoint coordinates, named by their
    pairs; ``ends`` holds each union's left and right endpoints."""
    out = {}
    for v, x in a.items():
        out[pairs[v].left], out[pairs[v].right] = ends[x]
    return out


def suite_l2w(pool_size: Optional[int] = None) -> EquivReport:
    """Each corpus formula agrees with its coordinate translation, and
    with a directly computed predicate, over interval unions on the pool."""
    points = _ints(4 if pool_size is None else pool_size)
    dense = widened(points)
    # point witnesses need the in-between points to tell sets apart, but
    # the coordinate pairs of bound variables stay on the assignment grid,
    # which keeps the pair enumeration small
    pool = WitnessPool(points=dense, max_segments=len(dense), pair_points=points)
    family = list(enum_fcis(points, 2, True))
    ends = {x: (x.left_endpoints(), x.right_endpoints()) for x in family}
    report = EquivReport()
    for text, predicate in L2W_CORPUS:
        f = parse(text, SIG_L)
        g, pairs = _l2w(f)
        # the predicate is the reference; the interval reading must match it,
        # and so must the coordinate reading of the same unions
        cases = [(a, bool(predicate(a))) for a in _assignments(sorted(free_vars(f)), family)]
        check_equiv(report, text + " (interval)", f, cases, SIG_L, pool=pool)
        coordinates = ((_coords(a, pairs, ends), expected) for a, expected in cases)
        check_equiv(report, text + " (coordinates)", g, coordinates, SIG_W, pool=pool)
    return report


# -- the quantifier-shape pipeline ---------------------------------------------------

PIPELINE_CORPUS = [
    "X = bot",
    "l(X) = r(X)",
    "!(X = bot)",
    "l(X) = r(X) & !(X = bot)",
    "min(X) = cz | X = bot",
    "E Y. l(Y) = r(Y) & min(X) = Y",
    "E Y. E W. min(X) = Y & cup(Y, cz) = W & max(W) = Y",
    "max(X) = bot & !(X = bot)",
    "min(X) = max(X)",
    "E Y. E W. min(X) = Y & max(X) = W & cap(Y, W) = bot",
    "r(X) = cz | !(min(X) = bot)",
]

PIPELINE_REJECTS = [
    "A Y. (Y sub X -> Y = X)",
    "A Y. cup(Y, cz) = cz",
    "!(E Y. !(Y = X))",
]


def suite_pipeline(pool_size: Optional[int] = None, seed: Optional[int] = None) -> EquivReport:
    """The output of ``pipeline`` is existential and agrees with its input
    on seeded random assignments; inputs with a universal quantifier it
    cannot decide are rejected."""
    rng = random.Random(7 if seed is None else seed)
    n_points = 6 if pool_size is None else pool_size
    base = random_points(rng, n_points)
    report = EquivReport()
    for text in PIPELINE_CORPUS:
        f = parse(text, SIG_L)
        g = pipeline(f)
        shape = classify(g) in ("existential", "positive_existential", "quantifier_free")
        report.add({"formula": text, "side": "shape"}, True, shape)
        names = sorted(free_vars(f))
        fcache = EvalCache()
        draws = ({v: random_fciset(rng, base) for v in names} for _ in range(200))
        cases = ((a, eval_bounded(f, a, default_pool(a), SIG_L, cache=fcache)) for a in draws)
        check_equiv(report, text, g, cases, SIG_L)
    for text in PIPELINE_REJECTS:
        f = parse(text, SIG_L)
        try:
            pipeline(f)
            rejected = False
        except FragmentError:
            rejected = True
        report.add({"formula": text, "side": "reject"}, True, rejected)
    return report


SUITES: dict[str, Callable[..., EquivReport]] = {
    "notbot": suite_notbot,
    "ipschar": suite_ipschar,
    "endpoints": suite_endpoints,
    "posex": suite_posex,
    "member": suite_member,
    "subset": suite_subset,
    "w2l": suite_w2l,
    "l2w": suite_l2w,
    "pipeline": suite_pipeline,
}
