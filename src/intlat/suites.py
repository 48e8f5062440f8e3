"""Named check suites: each one runs a lemma or translation over an
exhaustive (or seeded-random) family and reports every disagreement.

These back both the ``check`` command and the acceptance tests.  The
left-hand side of every comparison is computed directly on the value
level (kernel set operations), the right-hand side by evaluating the
formula under test, so a bug in either layer shows up as a failure.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .fci import (
    EMPTY_FCI,
    FciSet,
    build_from_endpoints,
    embed_finset,
    endpoint_condition,
    witness_d,
    zero_fci,
)
from .finset import FinSet, zero_set
from .oracle import (
    EquivReport,
    check_equiv,
    enum_fcis,
    enum_finsets,
    random_fciset,
    random_points,
)
from .semantics import EvalCache, WitnessPool, default_pool, eval_bounded, eval_qf, widened
from .syntax import SIG_L, SIG_W, Formula, Var, classify, delta_domain, free_vars, parse
from .transforms import (
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


def _ints(n: int) -> FinSet:
    return FinSet.of(range(n))


def _assignments(names: Sequence[str], family: Iterable) -> Iterator[dict]:
    """Every assignment of family members to the names, first name outermost."""
    return (dict(zip(names, values)) for values in itertools.product(family, repeat=len(names)))


def _merge(total: EquivReport, part: EquivReport, tag: str) -> None:
    total.checked += part.checked
    for a, lhs, rhs in part.failures:
        noted = dict(a)
        noted["formula"] = tag
        total.failures.append((noted, lhs, rhs))


def _fail(report: EquivReport, note: dict, lhs, rhs) -> None:
    report.checked += 1
    if lhs != rhs:
        report.failures.append((note, lhs, rhs))


# -- nonemptiness without negation ---------------------------------------------------


def suite_notbot(pool_size: Optional[int] = None) -> EquivReport:
    """A is nonempty iff A = cz or cz sub ips(A cup cz, A), over all subsets."""
    if pool_size is None:
        points = FinSet.of([0, 1, 2, Fraction(5, 2), 4])
    else:
        points = _ints(pool_size)
    pool = WitnessPool(points=points, max_segments=len(points))
    formula = notbot(Var("A"))
    assignments = ({"A": s} for s in enum_finsets(points))
    return check_equiv(lambda a: bool(a["A"]), formula, assignments, SIG_W, pool=pool)


# -- the interval characterization of ips --------------------------------------------


def _ips_clause(a: FinSet, b: FinSet, c: FinSet, d: FciSet) -> bool:
    """Value-level reading of the two characterizing clauses, including
    the unboundedness of the witness."""
    if d.right_endpoints() != c:
        return False
    if not c.issubset(a) or not embed_finset(a).issubset(d):
        return False
    if d.max_set():
        return False
    la = d.left_endpoints()
    amin = a.min_set()
    if amin.issubset(b) and la == b.difference(b.min_set()).union(zero_set()):
        return True
    if not amin.intersect(b) and la == b.union(zero_set()):
        return True
    return False


def suite_ipschar(pool_size: Optional[int] = None) -> EquivReport:
    """Both directions of the characterization of ips(A, B) = C by an
    unbounded interval witness, plus the formula version over all triples."""
    points = _ints(4 if pool_size is None else pool_size)
    report = EquivReport()
    dpoints = widened(points)

    # forward: the constructed witness satisfies a clause whenever ips(A,B)=C
    for a in enum_finsets(points):
        if not a:
            continue
        for b in enum_finsets(a):
            if not b:
                continue
            c = a.ips(b)
            d = witness_d(a, b, c)
            _fail(report, {"A": a, "B": b, "C": c, "D": d}, True, _ips_clause(a, b, c, d))

    # converse: over all candidate witnesses, some D fits exactly when ips(A,B)=C
    by_right: dict[FinSet, list[FciSet]] = {}
    for d in enum_fcis(dpoints, 3, True):
        by_right.setdefault(d.right_endpoints(), []).append(d)
    for a in enum_finsets(points):
        if not a:
            continue
        for b in enum_finsets(a):
            if not b:
                continue
            for c in enum_finsets(points):
                found = any(_ips_clause(a, b, c, d) for d in by_right.get(c, ()))
                _fail(report, {"A": a, "B": b, "C": c}, a.ips(b) == c, found)

    # the same statement as an interval formula, on every triple
    pool = WitnessPool(points=dpoints, max_segments=len(dpoints))
    form = phi_ips()
    cache = EvalCache()
    for a in enum_finsets(points):
        for b in enum_finsets(points):
            for c in enum_finsets(points):
                env = {"X": embed_finset(a), "Y": embed_finset(b), "Z": embed_finset(c)}
                got = eval_bounded(form, env, pool, SIG_L, cache=cache)
                _fail(report, {"X": a, "Y": b, "Z": c}, a.ips(b) == c, got)
    return report


# -- endpoint pairs ------------------------------------------------------------------


def suite_endpoints(pool_size: Optional[int] = None) -> EquivReport:
    """The endpoint condition characterizes coordinate pairs: every set
    satisfies it and rebuilds from its own endpoints, and every pair
    satisfying it is realized (others make the builder balk)."""
    points = _ints(5 if pool_size is None else pool_size)
    report = EquivReport()
    dom = delta_domain()

    for x in enum_fcis(points, 3, True):
        if not x:
            continue
        b, c = x.left_endpoints(), x.right_endpoints()
        holds = endpoint_condition(b, c) and eval_qf(dom, {"B": b, "C": c}, SIG_W)
        rebuilt = build_from_endpoints(b, c)
        _fail(report, {"A": x}, True, holds and rebuilt == x)

    for b in enum_finsets(points):
        for c in enum_finsets(points):
            value = endpoint_condition(b, c)
            formula = eval_qf(dom, {"B": b, "C": c}, SIG_W)
            _fail(report, {"B": b, "C": c, "side": "formula"}, value, formula)
            try:
                x = build_from_endpoints(b, c)
                realized = x.left_endpoints() == b and x.right_endpoints() == c
            except ValueError:
                realized = None
            _fail(
                report,
                {"B": b, "C": c, "side": "builder"},
                value,
                realized is not None and realized,
            )
    return report


# -- membership and containment ------------------------------------------------------


def _member_family(pool_size: Optional[int]) -> tuple[FinSet, list[FciSet], list]:
    points = _ints(5 if pool_size is None else pool_size)
    sets = list(enum_fcis(points, 3, True))
    return points, sets, list(widened(points))


def _from_pair(b: FinSet, c: FinSet) -> FciSet:
    if not b and not c:
        return EMPTY_FCI
    return build_from_endpoints(b, c)


def suite_member(pool_size: Optional[int] = None) -> EquivReport:
    """phi_in on coordinates agrees with pointwise membership."""
    _, sets, zs = _member_family(pool_size)

    def stream():
        for x in sets:
            for z in zs:
                yield {
                    "Xl": x.left_endpoints(),
                    "Xr": x.right_endpoints(),
                    "Z": FinSet((z,)),
                }

    def contains(a: dict) -> bool:
        return _from_pair(a["Xl"], a["Xr"]).contains(a["Z"].elements[0])

    pool = WitnessPool(points=FinSet.of(zs), max_segments=len(zs))
    return check_equiv(contains, phi_in(), stream(), SIG_W, pool=pool)


def suite_subset(pool_size: Optional[int] = None) -> EquivReport:
    """phi_subseteq on coordinates agrees with containment."""
    _, sets, zs = _member_family(pool_size)

    stream = (
        {
            "Xl": a["X"].left_endpoints(),
            "Xr": a["X"].right_endpoints(),
            "Yl": a["Y"].left_endpoints(),
            "Yr": a["Y"].right_endpoints(),
        }
        for a in _assignments(("X", "Y"), sets)
    )

    def issub(a: dict) -> bool:
        return _from_pair(a["Xl"], a["Xr"]).issubset(_from_pair(a["Yl"], a["Yr"]))

    pool = WitnessPool(points=FinSet.of(zs), max_segments=len(zs))
    return check_equiv(issub, phi_subseteq(), stream, SIG_W, pool=pool)


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
    for text in POSEX_CORPUS:
        f = parse(text, SIG_W)
        g = to_positive_existential(f)
        _fail(report, {"formula": text, "side": "shape"}, "positive_existential", classify(g))
        stream = _assignments(sorted(free_vars(f)), enum_finsets(points))
        part = check_equiv(
            lambda a: eval_qf(f, a, SIG_W), g, stream, SIG_W, pool=pool, cache=EvalCache()
        )
        _merge(report, part, text)
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
    embedded = [embed_finset(s) for s in enum_finsets(points)]
    report = EquivReport()
    for text in W2L_CORPUS:
        f = parse(text, SIG_W)
        g = translate_W_to_L(f)
        wcache = EvalCache()
        lcache = EvalCache()

        def on_finite(a: dict) -> bool:
            finsets = {k: v.as_finset() for k, v in a.items()}
            return eval_bounded(f, finsets, pool, SIG_W, cache=wcache)

        stream = _assignments(sorted(free_vars(f)), embedded)
        part = check_equiv(on_finite, g, stream, SIG_L, pool=pool, cache=lcache)
        _merge(report, part, text)
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


def suite_l2w(pool_size: Optional[int] = None) -> EquivReport:
    """Each corpus formula agrees with its coordinate translation, and
    with a directly computed predicate, over interval unions on the pool."""
    points = _ints(4 if pool_size is None else pool_size)
    dense = widened(points)
    # point witnesses need the in-between points to tell sets apart, but
    # coordinate-pair witnesses (lub/glb tests) stay on the assignment grid
    pool = WitnessPool(points=dense, max_segments=len(dense), pair_points=points)
    family = list(enum_fcis(points, 2, True))
    report = EquivReport()
    for text, predicate in L2W_CORPUS:
        f = parse(text, SIG_L)
        g, pairs, _ = _l2w(f)
        names = sorted(free_vars(f))
        wcache = EvalCache()
        lcache = EvalCache()

        # the predicate is the reference; the interval reading must match it
        part = check_equiv(predicate, f, _assignments(names, family), SIG_L, pool=pool, cache=lcache)
        _merge(report, part, text + " (interval)")

        def coords(a: dict) -> dict:
            out = {}
            for v, x in a.items():
                out[pairs[v].left] = x.left_endpoints()
                out[pairs[v].right] = x.right_endpoints()
            return out

        def pred_on_coords(a: dict) -> bool:
            rebuilt = {v: _from_pair(a[p.left], a[p.right]) for v, p in pairs.items() if p.left in a}
            return predicate(rebuilt)

        part = check_equiv(
            pred_on_coords,
            g,
            (coords(a) for a in _assignments(names, family)),
            SIG_W,
            pool=pool,
            cache=wcache,
        )
        _merge(report, part, text + " (coordinates)")
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
    "cup(X, Y) = Y",
    "!(E Y. !(Y = X))",
]


def suite_pipeline(pool_size: Optional[int] = None, seed: Optional[int] = None) -> EquivReport:
    """The pipeline output is existential and agrees with its input on
    seeded random assignments; unsupported inputs are rejected."""
    rng = random.Random(7 if seed is None else seed)
    n_points = 6 if pool_size is None else pool_size
    base = random_points(rng, n_points)
    report = EquivReport()
    for text in PIPELINE_CORPUS:
        f = parse(text, SIG_L)
        g = pipeline(f)
        _fail(
            report,
            {"formula": text, "side": "shape"},
            True,
            classify(g) in ("existential", "positive_existential", "quantifier_free"),
        )
        names = sorted(free_vars(f))
        fcache = EvalCache()
        draws = ({v: random_fciset(rng, base, 3, True) for v in names} for _ in range(200))
        part = check_equiv(
            lambda a: eval_bounded(f, a, default_pool(a), SIG_L, cache=fcache),
            g,
            draws,
            SIG_L,
            cache=EvalCache(),
        )
        _merge(report, part, text)
    for text in PIPELINE_REJECTS:
        f = parse(text, SIG_L)
        try:
            pipeline(f)
            rejected = False
        except FragmentError:
            rejected = True
        _fail(report, {"formula": text, "side": "reject"}, True, rejected)
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
