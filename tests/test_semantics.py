"""Bounded evaluation: terms, quantifier-free formulas, and quantified
formulas over witness pools.

The quantified cases lean on the fact that bounded evaluation is exact
for the relativized semantics: a formula holds over the pool iff the
solver says so, which the hand-checked examples here pin down.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlat import semantics, suites
from intlat.fci import EMPTY_FCI, embed_finset, embed_point, normalize, parse_fci
from intlat.finset import EMPTY_FS, FinSet, parse_finset
from intlat.oracle import enum_fcis, enum_finsets
from intlat.semantics import (
    EvalCache,
    EvalError,
    WitnessPool,
    _guard,
    _rank_assignment,
    default_pool,
    eval_bounded,
    eval_qf,
    eval_term,
    universe,
    widened,
)
from intlat.syntax import SIG_L, SIG_W, And, Atomic, Exists, Implies, Not, Or, exists_all, parse, valid_pair
from intlat.transforms import pipeline, simplify, to_positive_existential, translate_L_to_W

F = Fraction
fs = FinSet.of


def term(text: str, sig):
    return parse("X = " + text, sig).rhs


def test_eval_term_finite_sets():
    a = {"X": fs([0, 1, 3]), "Y": fs([1, 2])}
    assert eval_term(term("cup(X, Y)", SIG_W), a, SIG_W) == fs([0, 1, 2, 3])
    assert eval_term(term("cap(X, Y)", SIG_W), a, SIG_W) == fs([1])
    assert eval_term(term("min(X)", SIG_W), a, SIG_W) == fs([0])
    assert eval_term(term("max(X)", SIG_W), a, SIG_W) == fs([3])
    assert eval_term(term("ips(X, Y)", SIG_W), a, SIG_W) == fs([0])
    assert eval_term(term("bot", SIG_W), a, SIG_W) == EMPTY_FS
    assert eval_term(term("cz", SIG_W), a, SIG_W) == fs([0])
    # the solver works on point ranks; terms keep their rational points
    assert [type(p) for p in eval_term(term("cup(X, cz)", SIG_W), a, SIG_W)] == [Fraction] * 3


def test_eval_term_interval_unions():
    a = {"X": parse_fci("[1,2] + [4,*)")}
    assert eval_term(term("min(X)", SIG_L), a, SIG_L) == parse_fci("{1}")
    assert eval_term(term("max(X)", SIG_L), a, SIG_L) == EMPTY_FCI
    assert eval_term(term("l(X)", SIG_L), a, SIG_L) == embed_finset(fs([1, 4]))
    assert eval_term(term("r(X)", SIG_L), a, SIG_L) == embed_finset(fs([2]))


def test_eval_term_rejects_unbound_variables():
    with pytest.raises(EvalError):
        eval_term(term("cup(X, Y)", SIG_W), {"X": EMPTY_FS}, SIG_W)


def test_eval_qf():
    a = {"X": fs([0, 2]), "Y": fs([2])}
    assert eval_qf(parse("cap(X, Y) = Y", SIG_W), a, SIG_W)
    assert eval_qf(parse("!X = bot", SIG_W), a, SIG_W)
    assert not eval_qf(parse("min(X) = max(X)", SIG_W), a, SIG_W)
    assert eval_qf(parse("X = bot | Y sub X", SIG_W), a, SIG_W)
    with pytest.raises(EvalError):
        eval_qf(parse("E Z. Z = X", SIG_W), a, SIG_W)


def test_default_pool_adds_midpoints_and_a_point_above():
    pool = default_pool({"X": parse_fci("[1,2]")})
    assert pool.points == fs([0, F(1, 2), 1, F(3, 2), 2, 3])
    assert pool.allow_ray
    pool0 = default_pool({})
    assert pool0.points == fs([0, 1])


def test_widened_needs_a_point():
    with pytest.raises(ValueError):
        widened([])


def test_witness_pool_validation():
    with pytest.raises(ValueError):
        WitnessPool(points=FinSet(), max_segments=1)
    with pytest.raises(ValueError):
        WitnessPool(points=fs([1]), max_segments=1)  # missing 0
    with pytest.raises(ValueError):
        WitnessPool(points=fs([0]), max_segments=-1)
    with pytest.raises(ValueError):
        WitnessPool(points=fs([0, 1]), max_segments=2, pair_points=fs([0, 2]))


def test_universe_sizes():
    pool = WitnessPool(points=fs([0, 1]), max_segments=2)
    assert len(universe(pool, SIG_W)) == 4
    # segments over 2 points: empty, {0}, {1}, [0,1], {0}+{1}, plus rays
    names = {str(u) for u in universe(pool, SIG_L)}
    assert "empty" in names and "[0,*)" in names


def test_exists_finds_a_witness_inside_the_pool():
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=3)
    a = {"X": fs([1, 2])}
    assert eval_bounded(parse("E Y. cup(Y, X) = X & !Y = bot & cap(Y, max(X)) = bot", SIG_W), a, pool)
    assert not eval_bounded(parse("E Y. cap(Y, X) = Y & min(Y) = cz", SIG_W), a, pool)


def test_forall_is_exact_over_the_pool():
    pool = WitnessPool(points=fs([0, 1]), max_segments=2)
    a = {"X": fs([0, 1])}
    # every subset of X is a subset of X: trivially true
    assert eval_bounded(parse("A Y. (cap(Y, X) = Y -> Y sub X)", SIG_W), a, pool)
    # every set is a subset of X: false, the pool holds sets beyond X
    smaller = {"X": fs([0])}
    assert not eval_bounded(parse("A Y. Y sub X", SIG_W), smaller, pool)


def test_nested_quantifiers_and_reused_names():
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=3)
    f = parse("E Y. !Y = bot & (A Z. (cap(Z, Y) = Z -> min(Z) = min(Y) | Z = bot))", SIG_W)
    # singletons work: their only nonempty subset is themselves
    assert eval_bounded(f, {}, pool, SIG_W)


def test_quantifiers_over_interval_unions():
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=3)
    a = {"X": parse_fci("[0,2]")}
    assert eval_bounded(parse("E Y. min(X) = Y & min(Y) = Y", SIG_L), a, pool)
    assert eval_bounded(parse("E Y. l(Y) = r(Y) & cap(Y, X) = Y & !Y = bot", SIG_L), a, pool)
    # [0,2] is bounded, so its max is a point, never bot
    assert not eval_bounded(parse("E Y. max(X) = Y & Y = bot & !X = bot", SIG_L), a, pool)


def test_bounded_agreement_with_direct_enumeration():
    # E Y. cup(X, Y) = X & min(Y) = cz  says: X has a sub-part containing 0,
    # which over any pool just means 0 is a member of X
    pool = WitnessPool(points=fs([0, 1]), max_segments=2)
    f = parse("E Y. cup(X, Y) = X & min(Y) = cz & !Y = bot", SIG_W)
    for x in enum_finsets(pool.points):
        direct = any(
            y.union(x) == x and y and min(y) == 0 for y in enum_finsets(pool.points)
        )
        assert eval_bounded(f, {"X": x}, pool) == direct


def test_shared_cache_is_consistent_across_assignments():
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=3)
    f = parse("E Y. cap(Y, X) = Y & max(Y) = max(X)", SIG_W)
    cache = EvalCache()
    fresh = [
        eval_bounded(f, {"X": x}, pool, SIG_W)
        for x in enum_finsets(pool.points)
    ]
    shared = [
        eval_bounded(f, {"X": x}, pool, SIG_W, cache=cache)
        for x in enum_finsets(pool.points)
    ]
    assert fresh == shared


def test_shared_cache_is_consistent_across_signatures():
    # a nonempty set without a maximum exists among interval unions (a ray)
    # but not among finite sets
    pool = WitnessPool(points=fs([0, 1]), max_segments=2)
    f = parse("E X. max(X) = bot & !(X = bot)", SIG_L)
    cache = EvalCache()
    assert eval_bounded(f, {}, pool, SIG_W, cache=cache) is False
    assert eval_bounded(f, {}, pool, SIG_L, cache=cache) is True


def test_shared_cache_keeps_term_values_apart_per_structure():
    # cz has no variables, so only the structure tells its two values apart
    pool = WitnessPool(points=fs([0, 1]), max_segments=1)
    cache = EvalCache()
    assert eval_bounded(parse("X = cz", SIG_W), {"X": fs([0])}, pool, SIG_W, cache=cache) is True
    assert eval_bounded(parse("X = cz", SIG_L), {"X": embed_point(0)}, pool, SIG_L, cache=cache) is True


def test_shared_cache_raises_the_same_error_every_time():
    pool = WitnessPool(points=fs([0, 1]), max_segments=1)
    cache = EvalCache()
    # min(X) is computed and kept before the unbound Y is reached
    t = term("cup(min(X), Y)", SIG_W)
    a = {"X": fs([1])}
    env, _ = _rank_assignment(a, pool, True)
    with pytest.raises(EvalError) as walk:
        eval_term(t, a, SIG_W)
    for _ in range(2):
        with pytest.raises(EvalError) as memo:
            cache.term(t).value(env, True)
        assert str(memo.value) == str(walk.value) == "unbound variable Y"
    # l is no operation of the finite-set structure, whatever its argument
    f = parse("l(min(X)) = X", SIG_L)
    for _ in range(2):
        with pytest.raises(EvalError, match="l is not an operation of the finite-set structure"):
            eval_bounded(f, {"X": fs([1])}, pool, SIG_W, cache=cache)
    assert eval_bounded(f, {"X": embed_point(1)}, pool, SIG_L, cache=cache) is True


def test_min_guard_respects_a_zero_segment_cap():
    # with no segments allowed the interval universe holds bot and rays
    # only, and no nonempty one of them is its own minimum
    pool = WitnessPool(points=fs([0, 1]), max_segments=0)
    f = parse("E Y. min(Y) = Y & !(Y = bot)", SIG_L)
    assert [str(u) for u in universe(pool, SIG_L)] == ["empty", "[0,*)", "[1,*)"]
    assert eval_bounded(f, {}, pool, SIG_L) is False
    assert eval_bounded(f, {}, pool, SIG_W) is True


def test_missing_assignment_and_wrong_sort_raise():
    pool = WitnessPool(points=fs([0]), max_segments=1)
    with pytest.raises(EvalError):
        eval_bounded(parse("X = bot", SIG_W), {}, pool, SIG_W)
    with pytest.raises(EvalError):
        eval_bounded(parse("X = bot", SIG_W), {"X": EMPTY_FCI}, pool, SIG_W)


def _naive(f, env, pool, sig):
    """Reference semantics: every quantifier ranges over the whole universe."""
    if isinstance(f, Atomic):
        return eval_term(f.lhs, env, sig) == eval_term(f.rhs, env, sig)
    if isinstance(f, Not):
        return not _naive(f.body, env, pool, sig)
    if isinstance(f, And):
        return _naive(f.lhs, env, pool, sig) and _naive(f.rhs, env, pool, sig)
    if isinstance(f, Or):
        return _naive(f.lhs, env, pool, sig) or _naive(f.rhs, env, pool, sig)
    if isinstance(f, Implies):
        return not _naive(f.lhs, env, pool, sig) or _naive(f.rhs, env, pool, sig)
    branches = (_naive(f.body, {**env, f.var: u}, pool, sig) for u in universe(pool, sig))
    return any(branches) if isinstance(f, Exists) else all(branches)


def _shadowing(disjunct: str, inner: str, rest: str):
    """E Y. (disjunct | E <inner>) & rest, built by hand: the parser renames
    bound variables apart, and here the hoisted name must clash."""

    def build(sig):
        return Exists(
            "Y", And(Or(parse(disjunct, sig), parse(inner, sig)), parse(rest, sig))
        )

    return pytest.param(build, id=f"E Y. ({disjunct} | {inner}) & {rest}")


def _parsed(text: str):
    return pytest.param(lambda sig: parse(text, sig), id=text)


def _interval_only(text: str):
    # None on the finite-set side: l and r are interval operations only
    return pytest.param(lambda sig: None if sig.finite_sets else parse(text, sig), id=text)


NAIVE_CASES = [
    _parsed("E Y. cap(Y, X) = Y & !(Y = X) & !(Y = bot)"),
    _parsed("A Y. cap(Y, X) = bot | cup(Y, X) = Y"),
    # the only pin sits in a disjunct
    _parsed("E Y. (Y = cz | Y = X) & cap(Y, X) = bot"),
    _parsed("A Y. (Y = cz | Y = X) -> min(Y) = min(X)"),
    # disjunctions nested under two quantifiers
    _parsed(
        "E Y. (Y = min(X) | Y = max(X)) & !(Y = bot) & "
        "(E Z. (Z = Y | (cup(Z, Y) = X | Z = cz)) & !(cap(Z, Y) = bot) & !(Z = X))"
    ),
    _parsed("E Y. (min(Y) = Y | Y = X) & (E Z. (Z = Y | cup(Z, cz) = Z) & !(cap(Z, X) = Z))"),
    # a disjunct hoists an existential over the block's Y, or over the free X
    _shadowing(
        "Y = X", "E Y. cap(Y, X) = Y & !(Y = bot) & !(Y = X)",
        "!(Y = bot) & cap(Y, X) = bot",
    ),
    _shadowing(
        "Y = cz", "E X. cup(X, Y) = X & !(X = Y) & min(X) = min(Y)",
        "cap(Y, X) = bot & !(Y = bot)",
    ),
    # the difference pair pins Y to X minus cz
    _parsed("E Y. cup(cap(X, cz), Y) = X & cap(cz, Y) = bot & !(Y = bot)"),
    # min(Y) = Y guards Y to the empty set or one point
    _parsed("E Y. min(Y) = Y & cap(Y, X) = bot & cup(Y, X) = X"),
    # a difference pair whose disjointness half names another term pins nothing
    _parsed("E Y. cup(cap(X, cz), Y) = X & cap(bot, Y) = bot & cap(Y, cz) = cz"),
    # both endpoint maps pin Y; l(Y) = r(Y) and cap(Y, X) = Y are guards
    _interval_only("E Y. l(Y) = l(X) & r(Y) = r(X) & !(Y = X)"),
    _interval_only("E Y. l(Y) = l(X) & r(Y) = r(X) & min(Y) = min(X)"),
    _interval_only("E Y. l(Y) = r(Y) & cap(Y, X) = Y & !(Y = bot)"),
    # min(Y) = Y binds Y before the disjunction splits; the first needs
    # every one-point candidate, the second the empty one
    _parsed("E Y. min(Y) = Y & (cap(Y, X) = Y | Y = cz) & !(cap(Y, X) = bot)"),
    _parsed("E Y. min(Y) = Y & (cap(Y, X) = bot | Y = cz) & cup(Y, X) = X"),
    # a negation or implication over each connective and quantifier, which
    # the block reads in negation normal form
    _parsed("E Y. !!(cap(Y, X) = Y) & !(Y = X) & !(Y = bot)"),
    _parsed("E Y. (Y = X -> Y = bot) & cap(Y, X) = Y & !(Y = bot)"),
    _parsed("E Y. !(Y = bot | Y = X) & cap(Y, X) = Y"),
    _parsed("E Y. !(cap(Y, X) = bot & !(Y = bot)) & cup(Y, X) = Y & !(Y = X)"),
    _parsed("E Y. !(cap(Y, X) = Y -> Y = X) & !(Y = bot)"),
    _parsed("E Y. !(A Z. cap(Z, Y) = Z -> Z = Y | Z = bot) & cap(Y, X) = Y"),
    _parsed("E Y. !(E Z. cap(Z, Y) = Z & !(Z = Y) & !(Z = bot)) & cap(Y, X) = Y & !(Y = bot)"),
]


@pytest.mark.parametrize("sig", [SIG_W, SIG_L], ids=["w", "l"])
@pytest.mark.parametrize("build", NAIVE_CASES)
def test_eval_bounded_agrees_with_naive_enumeration(build, sig):
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=3)
    f = build(sig)
    if f is None:
        pytest.skip("l and r are operations of the interval structure only")
    cache = EvalCache()
    for x in universe(pool, sig):
        a = {"X": x}
        assert eval_bounded(f, a, pool, sig, cache=cache) == _naive(f, a, pool, sig), x


def _stretch(p):
    # strictly increasing on the half line and fixing 0
    return 3 * p + p * p


def _stretched(v):
    if isinstance(v, FinSet):
        return FinSet(tuple(map(_stretch, v.elements)))
    return normalize(
        [(_stretch(s.lo), _stretch(s.hi)) for s in v.segments],
        [] if v.ray_lo is None else [_stretch(v.ray_lo)],
    )


@st.composite
def isomorphism_cases(draw):
    """A naive-enumeration formula, a pool of up to 5 points, and X, whose
    points may fall between the pool's points or above them all."""
    build = draw(st.sampled_from(NAIVE_CASES)).values[0]
    sig = draw(st.sampled_from([SIG_W, SIG_L]))
    f = build(sig)
    if f is None:
        sig = SIG_L
        f = build(sig)
    spots = st.fractions(min_value=0, max_value=5, max_denominator=2)
    points = FinSet.of({0} | draw(st.frozensets(spots, max_size=4)))
    pool = WitnessPool(points=points, max_segments=draw(st.integers(0, 2)), allow_ray=draw(st.booleans()))
    near = st.sampled_from(points.elements) | st.fractions(min_value=0, max_value=6, max_denominator=4)
    if sig.finite_sets:
        x = FinSet.of(draw(st.frozensets(near, max_size=3)))
    else:
        segments = draw(st.lists(st.tuples(near, near).map(sorted), max_size=2))
        x = normalize(segments, draw(st.lists(near, max_size=1)))
    return f, sig, pool, x


@settings(deadline=None)
@given(isomorphism_cases())
def test_eval_bounded_sees_points_only_up_to_order(case):
    f, sig, pool, x = case
    cache = EvalCache()
    got = eval_bounded(f, {"X": x}, pool, sig, cache=cache)
    # the naive reference quantifies over the pool alone, whatever X holds
    assert got == _naive(f, {"X": x}, pool, sig)
    image = WitnessPool(FinSet(tuple(map(_stretch, pool.points))), pool.max_segments, pool.allow_ray)
    assert eval_bounded(f, {"X": _stretched(x)}, image, sig, cache=cache) == got


def test_order_isomorphic_pools_share_the_cache(monkeypatch):
    calls = 0
    inner = semantics._assign

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(semantics, "_assign", counted)
    f = parse("E Y. cap(Y, X) = Y & !(Y = X) & !(Y = bot)", SIG_L)
    cache = EvalCache()
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=2)
    assert eval_bounded(f, {"X": parse_fci("[1,2]")}, pool, SIG_L, cache=cache) is True
    seen, verdicts = calls, len(cache._vals)
    assert seen > 0
    image = WitnessPool(points=fs([0, F(5, 2), 7]), max_segments=2)
    assert eval_bounded(f, {"X": parse_fci("[5/2,7]")}, image, SIG_L, cache=cache) is True
    assert (calls, len(cache._vals)) == (seen, verdicts)


@pytest.mark.parametrize("first", [SIG_L, SIG_W], ids=["l-first", "w-first"])
def test_one_cache_keeps_the_structures_apart(first):
    # a ray is nonempty and has no greatest point; a finite set has one
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=3)
    cache = EvalCache()
    for sig in (first, SIG_W if first is SIG_L else SIG_L):
        f = parse("E Y. max(Y) = bot & !(Y = bot)", sig)
        assert eval_bounded(f, {}, pool, sig, cache=cache) is (sig is SIG_L)


@pytest.mark.parametrize("coarse_first", [True, False], ids=["coarse-first", "fine-first"])
def test_one_cache_keeps_the_pair_points_apart(coarse_first):
    # the two pools differ only in their pair points: 1/2 is a left
    # endpoint of a pair over all the points, never of one over 0, 1, 2
    points = fs(["0", "1/2", "1", "3/2", "2", "3"])
    coarse = WitnessPool(points, len(points), True, fs([0, 1, 2]))
    fine = WitnessPool(points, len(points))
    f = exists_all(["Al", "Ar"], And(valid_pair("Al", "Ar"), parse("Z sub Al", SIG_W)))
    a = {"Z": fs(["1/2"])}
    cache = EvalCache()
    for pool in (coarse, fine) if coarse_first else (fine, coarse):
        assert eval_bounded(f, a, pool, SIG_W, cache=cache) is (pool is fine)


def test_pipeline_output_of_disjoint_extremes():
    # min(X) and max(X) meet exactly when X is a nonempty finite union
    # ending in a point; the rewrite nests disjunctions under both blocks
    g = pipeline(parse("E Y. E W. min(X) = Y & max(X) = W & cap(Y, W) = bot", SIG_L))
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=3)
    for text, want in [("empty", True), ("{1}", False), ("[1,*)", True)]:
        assert eval_bounded(g, {"X": parse_fci(text)}, pool, SIG_L) is want, text


@st.composite
def guard_cases(draw):
    """A signature, a pool of up to 6 points with a segment cap from 0 up,
    and a bound X whose points may fall outside the pool; on the interval
    side X is a finite set or has proper segments or a ray."""
    sig = draw(st.sampled_from([SIG_W, SIG_L]))
    points = fs({0} | draw(st.frozensets(st.integers(1, 10), max_size=5)))
    pool = WitnessPool(
        points=points,
        max_segments=draw(st.integers(0, len(points))),
        allow_ray=draw(st.booleans()),
    )
    spots = st.integers(0, 12)
    if sig.finite_sets:
        bound = fs(draw(st.frozensets(spots, max_size=6)))
    elif draw(st.booleans()):
        bound = embed_finset(fs(draw(st.frozensets(spots, max_size=6))))
    else:
        segments = draw(st.lists(st.tuples(spots, spots).map(sorted), max_size=3))
        rays = draw(st.lists(spots, max_size=1))
        bound = normalize(segments, rays)
    return sig, pool, bound


@given(guard_cases())
def test_guard_counts_its_candidates_before_building_them(case):
    # a count that differs from its candidates would reorder the search
    # while every verdict stayed right
    sig, pool, bound = case
    env, space = _rank_assignment({"X": bound}, pool, sig.finite_sets)

    def mask(u):
        # u lies in the pool, so the ranks stay those of the pool and X
        got, same = _rank_assignment({"X": bound, "Y": u}, pool, sig.finite_sets)
        assert same == space
        return got["Y"]

    texts = ["min(Y) = Y", "cap(Y, X) = Y"] + ([] if sig.finite_sets else ["l(Y) = r(Y)"])
    for text in texts:
        atom = parse(text, sig)
        rules = EvalCache().node(atom).rules
        (rule,) = [r for r in rules if r.kind in ("minself", "lreq", "capself")]
        count, build = _guard(rule, env, space)
        got = list(build())
        assert count == len(got), text
        # the guard keeps exactly the universe values satisfying it, in order
        want = [mask(u) for u in universe(pool, sig) if eval_qf(atom, {"X": bound, "Y": u}, sig)]
        assert got == want, text


@pytest.mark.parametrize(
    "sig, x, want, steps",
    [(SIG_L, "{1}", False, 5), (SIG_W, "[1,*)", True, 14)],
    ids=["l", "w"],
)
def test_solver_search_order_is_pinned(monkeypatch, sig, x, want, steps):
    # the solver's steps on the pipeline of the extremes formula (on
    # coordinates, its positive existential stage): a change to which
    # variable is bound next or which candidates it tries moves the count
    # even when every verdict stays right
    calls = 0
    inner = semantics._assign

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(semantics, "_assign", counted)
    f = parse("E Y. E W. min(X) = Y & max(X) = W & cap(Y, W) = bot", SIG_L)
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=3)
    x = parse_fci(x)
    if sig.finite_sets:
        g = simplify(to_positive_existential(simplify(translate_L_to_W(f))))
        a = {"Xl": x.left_endpoints(), "Xr": x.right_endpoints()}
    else:
        g, a = pipeline(f), {"X": x}
    assert eval_bounded(g, a, pool, sig) is want
    assert calls == steps


@pytest.mark.parametrize("suite, steps", [("pipeline", 368), ("posex", 6815), ("l2w", 153520)])
def test_suite_search_totals_are_pinned(monkeypatch, suite, steps):
    # every _assign call of a whole suite: a change to the search order
    # moves the total even when every verdict stays right
    calls = 0
    inner = semantics._assign

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(semantics, "_assign", counted)
    assert getattr(suites, f"suite_{suite}")().ok
    assert calls == steps


def test_ten_point_pools_range_over_interval_unions():
    # the default pool of X has 10 points; no guard bounds Y, so the solver
    # ranges over the 17,711 interval unions on them
    x = parse_fci("[1,2] + [3,4]")
    pool = default_pool({"X": x})
    assert len(pool.points) == 10
    f = parse("E Y. E W. r(l(cz)) = max(Y)", SIG_L)
    assert eval_bounded(f, {"X": x}, pool, SIG_L) is True
    assert len(universe(pool, SIG_L)) == 17711
