"""Bounded evaluation: terms, quantifier-free formulas, and quantified
formulas over witness pools.

The quantified cases lean on the fact that bounded evaluation is exact
for the relativized semantics: a formula holds over the pool iff the
solver says so, which the hand-checked examples here pin down.
"""

import copy
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from helpers import generated_formula, on_fresh_stack, random_finset
from hypothesis import given, settings
from hypothesis import strategies as st

from intlat import semantics, suites
from intlat.fci import EMPTY_FCI, embed_finset, embed_point, normalize, parse_fci
from intlat.finset import EMPTY_FS, FinSet
from intlat.oracle import enum_finsets, random_fciset, random_points
from intlat.semantics import (
    EvalCache,
    EvalError,
    WitnessPool,
    _atom_rules,
    _check,
    _eval,
    _guard,
    _masks,
    _pool_ranks,
    _rank_assignment,
    default_pool,
    eval_bounded,
    eval_qf,
    eval_term,
    universe,
    widened,
)
from intlat.syntax import (
    SIG_L,
    SIG_W,
    SIG_W_DIFF,
    And,
    App,
    Atomic,
    Exists,
    Not,
    Or,
    Var,
    and_all,
    bound_vars,
    delta_domain,
    exists_all,
    format_formula,
    free_vars,
    parse,
    valid_pair,
)
from intlat.transforms import (
    _lattice,
    phi_in,
    phi_subseteq,
    pipeline,
    simplify,
    to_positive_existential,
    translate_L_to_W,
)

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


def test_term_and_qf_evaluation_refuse_values_of_the_other_structure():
    # an interval union read as a finite set would lose its segments
    with pytest.raises(EvalError, match="X is bound to FciSet, expected FinSet"):
        eval_term(term("cup(X, cz)", SIG_W), {"X": parse_fci("[0,1]")}, SIG_W)
    with pytest.raises(EvalError, match="X is bound to FinSet, expected FciSet"):
        eval_qf(parse("X = bot", SIG_L), {"X": fs([1])}, SIG_L)


def test_eval_qf():
    a = {"X": fs([0, 2]), "Y": fs([2])}
    assert eval_qf(parse("cap(X, Y) = Y", SIG_W), a, SIG_W)
    assert eval_qf(parse("!X = bot", SIG_W), a, SIG_W)
    assert not eval_qf(parse("min(X) = max(X)", SIG_W), a, SIG_W)
    assert eval_qf(parse("X = bot | Y sub X", SIG_W), a, SIG_W)
    with pytest.raises(EvalError, match="^quantifier on Z in a quantifier-free evaluation$"):
        eval_qf(parse("E Z. Z = X", SIG_W), a, SIG_W)
    # refused up front, even where the formula is decided before the quantifier
    with pytest.raises(EvalError, match="^quantifier on Z in a quantifier-free evaluation$"):
        eval_qf(parse("X = bot & A Z. Z = X", SIG_W), a, SIG_W)


def test_eval_qf_agrees_with_the_solver_on_every_quantifier_free_corpus_formula():
    # random rational points: the solver ranks them on their own pool, and
    # off a one-point pool on the grid eval_qf puts them on
    rng = random.Random(34)
    one_point = WitnessPool(points=fs([0]), max_segments=0)
    corpora = ((suites.POSEX_CORPUS, SIG_W, random_finset), (suites.PIPELINE_CORPUS, SIG_L, random_fciset))
    formulas = 0
    for corpus, sig, draw in corpora:
        for text in corpus:
            f = parse(text, sig)
            if bound_vars(f):
                continue
            formulas += 1
            for _ in range(25):
                points = random_points(rng, 5)
                a = {v: draw(rng, points) for v in sorted(free_vars(f))}
                want = eval_qf(f, a, sig)
                assert eval_bounded(f, a, default_pool(a), sig) is want, (text, a)
                assert eval_bounded(f, a, one_point, sig) is want, (text, a)
    assert formulas == 19


def test_default_pool_adds_midpoints_and_a_point_above():
    pool = default_pool({"X": parse_fci("[1,2]")})
    assert pool.points == fs([0, F(1, 2), 1, F(3, 2), 2, 3])
    assert pool.allow_ray
    pool0 = default_pool({})
    assert pool0.points == fs([0, 1])


def test_widened_needs_a_point():
    with pytest.raises(ValueError):
        widened([])


def test_widened_interleaves_the_midpoints():
    got = widened([Fraction(3), Fraction(0), Fraction(1, 2), Fraction(3)])
    assert got == FinSet.of(["0", "1/4", "1/2", "7/4", "3", "4"])


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
    assert eval_bounded(parse("E Y. cup(Y, X) = X & !Y = bot & cap(Y, max(X)) = bot", SIG_W), a, pool, SIG_W)
    assert not eval_bounded(parse("E Y. cap(Y, X) = Y & min(Y) = cz", SIG_W), a, pool, SIG_W)


def test_forall_is_exact_over_the_pool():
    pool = WitnessPool(points=fs([0, 1]), max_segments=2)
    a = {"X": fs([0, 1])}
    # every subset of X is a subset of X: trivially true
    assert eval_bounded(parse("A Y. (cap(Y, X) = Y -> Y sub X)", SIG_W), a, pool, SIG_W)
    # every set is a subset of X: false, the pool holds sets beyond X
    smaller = {"X": fs([0])}
    assert not eval_bounded(parse("A Y. Y sub X", SIG_W), smaller, pool, SIG_W)


def test_nested_quantifiers_and_reused_names():
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=3)
    f = parse("E Y. !Y = bot & (A Z. (cap(Z, Y) = Z -> min(Z) = min(Y) | Z = bot))", SIG_W)
    # singletons work: their only nonempty subset is themselves
    assert eval_bounded(f, {}, pool, SIG_W)


def test_quantifiers_over_interval_unions():
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=3)
    a = {"X": parse_fci("[0,2]")}
    assert eval_bounded(parse("E Y. min(X) = Y & min(Y) = Y", SIG_L), a, pool, SIG_L)
    assert eval_bounded(parse("E Y. l(Y) = r(Y) & cap(Y, X) = Y & !Y = bot", SIG_L), a, pool, SIG_L)
    # [0,2] is bounded, so its max is a point, never bot
    assert not eval_bounded(parse("E Y. max(X) = Y & Y = bot & !X = bot", SIG_L), a, pool, SIG_L)


def test_endpoint_pins_refuse_sides_that_are_no_finite_sets():
    # the endpoint lemma pairs two finite sets; a ray or a segment on
    # either side of l(V) = t or r(V) = t pins V to nothing
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=3)
    f = parse("E V. l(V) = X & r(V) = Y", SIG_L)
    for x, y in (("[0,*)", "empty"), ("{0}", "[1,*)"), ("[0,1]", "{1}"), ("{0}", "[0,1]")):
        assert not eval_bounded(f, {"X": parse_fci(x), "Y": parse_fci(y)}, pool, SIG_L), (x, y)
    assert eval_bounded(f, {"X": parse_fci("{0}"), "Y": parse_fci("{1}")}, pool, SIG_L)
    assert eval_bounded(parse("E Y. E V. l(V) = Y & r(V) = cz", SIG_L), {}, pool, SIG_L)


def test_bounded_agreement_with_direct_enumeration():
    # E Y. cup(X, Y) = X & min(Y) = cz  says: X has a sub-part containing 0,
    # which over any pool just means 0 is a member of X
    pool = WitnessPool(points=fs([0, 1]), max_segments=2)
    f = parse("E Y. cup(X, Y) = X & min(Y) = cz & !Y = bot", SIG_W)
    for x in enum_finsets(pool.points):
        direct = any(
            y.union(x) == x and y and min(y) == 0 for y in enum_finsets(pool.points)
        )
        assert eval_bounded(f, {"X": x}, pool, SIG_W) == direct


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
    a = {"X": fs([1])}
    # min(X) is computed and kept before any call meets the unbound Y; each
    # entry point refuses Y before it evaluates anything
    assert eval_bounded(parse("min(X) = X", SIG_W), a, pool, SIG_W, cache=cache) is True
    t = term("cup(min(X), Y)", SIG_W)
    f = Atomic(t, Var("X"))
    calls = (
        lambda: eval_term(t, a, SIG_W),
        lambda: eval_qf(f, a, SIG_W),
        lambda: eval_bounded(f, a, pool, SIG_W, cache=cache),
    )
    for call in calls:
        for _ in range(2):
            with pytest.raises(EvalError, match=r"^assignment is missing \['Y'\]$"):
                call()


def test_shared_cache_checks_the_structure_of_an_operation_in_both_orders():
    # X's cells are the same in both structures, so only the structure in
    # the memo key keeps an interval value of l(min(X)) from a finite-set call
    pool = WitnessPool(points=fs([0, 1]), max_segments=1)
    f = parse("l(min(X)) = X", SIG_L)
    finite, interval = {"X": fs([1])}, {"X": embed_point(1)}
    for interval_first in (False, True):
        cache = EvalCache()
        if interval_first:
            assert eval_bounded(f, interval, pool, SIG_L, cache=cache) is True
        for _ in range(2):
            with pytest.raises(EvalError, match="^l is not an operation of the finite-set structure$"):
                eval_bounded(f, finite, pool, SIG_W, cache=cache)
        assert eval_bounded(f, interval, pool, SIG_L, cache=cache) is True


def test_an_unknown_operation_is_refused_on_every_call():
    pool = WitnessPool(points=fs([0, 1]), max_segments=1)
    cache = EvalCache()
    foo = App("foo", ())
    calls = (
        lambda: eval_term(foo, {}, SIG_W),
        lambda: eval_qf(Atomic(foo, Var("X")), {"X": EMPTY_FS}, SIG_W),
        lambda: eval_bounded(Atomic(foo, Var("X")), {"X": EMPTY_FS}, pool, SIG_W, cache=cache),
        lambda: cache.term(foo),
    )
    for call in calls:
        for _ in range(2):
            with pytest.raises(EvalError, match="^unknown operation foo$"):
                call()


@pytest.mark.parametrize(
    "part, message",
    [
        (Atomic(App("foo", (Var("X"),)), Var("X")), "^unknown operation foo$"),
        (parse("ips(X, X) = X", SIG_W), "^ips is not an operation of the interval structure$"),
    ],
    ids=["unknown", "foreign"],
)
def test_an_operation_is_refused_only_where_the_evaluation_reaches_it(part, message):
    # & and | decide on their left part first: with X empty neither formula
    # evaluates the part that cannot be evaluated, with X not empty both do
    pool = WitnessPool(points=fs([0, 1]), max_segments=1)
    empty, full = {"X": EMPTY_FCI}, {"X": parse_fci("[0,1]")}
    for f, decided in ((Or(parse("X = bot", SIG_L), part), True), (And(parse("!(X = bot)", SIG_L), part), False)):
        cache = EvalCache()
        for _ in range(2):
            assert eval_bounded(f, empty, pool, SIG_L, cache=cache) is decided
            assert eval_qf(f, empty, SIG_L) is decided
            with pytest.raises(EvalError, match=message):
                eval_bounded(f, full, pool, SIG_L, cache=cache)
            with pytest.raises(EvalError, match=message):
                eval_qf(f, full, SIG_L)


def test_an_equation_of_two_unknown_operations_is_refused_by_the_walk_s_message():
    # the search's rule for cup(cap(x, y), V) = y interns y = bar(X) before
    # the sides are interned, so the walk names bar, not foo
    foo, bar = App("foo", (Var("X"),)), App("bar", (Var("X"),))
    f = Atomic(App("cup", (App("cap", (foo, bar)), Var("V"))), bar)
    pool = WitnessPool(points=fs([0, 1]), max_segments=1)
    a = {"X": EMPTY_FCI, "V": EMPTY_FCI}
    calls = (
        lambda: eval_qf(f, a, SIG_L),
        lambda: eval_bounded(f, a, pool, SIG_L),
        lambda: eval_bounded(Or(parse("!(X = bot)", SIG_L), f), a, pool, SIG_L),
        lambda: eval_bounded(Exists("V", f), {"X": EMPTY_FCI}, pool, SIG_L),
    )
    for call in calls:
        with pytest.raises(EvalError, match="^unknown operation bar$"):
            call()


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


def _check_message(f, a, sig) -> str:
    with pytest.raises(EvalError) as refused:
        _check(free_vars(f), a, sig)
    return str(refused.value)


@pytest.mark.parametrize(
    "text, sig, a, message",
    [
        ("X = Y", SIG_W, {"X": EMPTY_FS}, r"assignment is missing ['Y']"),
        ("X = bot", SIG_W, {"X": EMPTY_FCI}, "X is bound to FciSet, expected FinSet"),
        ("X = bot", SIG_L, {"X": EMPTY_FS}, "X is bound to FinSet, expected FciSet"),
        # both at once: the missing name first
        ("X = Y", SIG_W, {"X": EMPTY_FCI}, r"assignment is missing ['Y']"),
        # the first value of the wrong sort in the assignment's order
        ("X = Y", SIG_W, {"Y": EMPTY_FCI, "X": parse_fci("[0,1]")}, "Y is bound to FciSet, expected FinSet"),
        # a point outside the pool, which puts the values on a grid of their own
        ("X = bot", SIG_W, {"X": parse_fci("[5,7]")}, "X is bound to FciSet, expected FinSet"),
        ("X = Y", SIG_W, {"X": fs([5]), "Y": parse_fci("[5,7]")}, "Y is bound to FciSet, expected FinSet"),
        ("X = Y", SIG_L, {"X": parse_fci("[5,7]"), "Y": fs([0])}, "Y is bound to FinSet, expected FciSet"),
    ],
    ids=["missing", "sort-w", "sort-l", "both", "first-sort", "outside", "outside-first", "outside-first-l"],
)
def test_eval_bounded_refuses_its_inputs_as_the_shared_check_does(text, sig, a, message):
    f = parse(text, sig)
    pool = WitnessPool(points=fs([0, 1]), max_segments=1)
    assert _check_message(f, a, sig) == message
    for cache in (None, EvalCache()):
        with pytest.raises(EvalError) as refused:
            eval_bounded(f, a, pool, sig, cache=cache)
        assert str(refused.value) == message


def test_a_value_the_pool_memoized_in_one_structure_is_refused_in_the_other():
    # the pool's value memo keeps X's cells from the interval-side call;
    # cells do not tell the structures apart, so the sort is checked first
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=2)
    x = parse_fci("[0,1]")
    assert eval_bounded(parse("X = X", SIG_L), {"X": x}, pool, SIG_L) is True
    assert id(x) in _pool_ranks(pool).values
    with pytest.raises(EvalError) as refused:
        eval_bounded(parse("X = X", SIG_W), {"X": x}, pool, SIG_W)
    assert str(refused.value) == _check_message(parse("X = X", SIG_W), {"X": x}, SIG_W)
    assert str(refused.value) == "X is bound to FciSet, expected FinSet"


def test_a_quantifier_free_formula_builds_no_solver_node():
    pool = WitnessPool(points=fs([0, 1]), max_segments=1)
    cache = EvalCache()
    for text in ("min(X) = X", "min(X) = X & !(X = bot) | X = cz"):
        assert eval_bounded(parse(text, SIG_W), {"X": fs([1])}, pool, SIG_W, cache=cache) is True
    assert cache._nodes == {}


def test_eval_bounded_takes_a_chain_of_990_conjuncts():
    pool = WitnessPool(points=fs([0]), max_segments=1)
    f = and_all([parse("X = X", SIG_W) for _ in range(990)])
    assert on_fresh_stack(lambda: eval_bounded(f, {"X": EMPTY_FS}, pool, SIG_W)) is True


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


@pytest.fixture
def assign_calls(monkeypatch):
    """The number of ``_assign`` calls made so far, read by calling it."""
    calls = 0
    inner = semantics._assign

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(semantics, "_assign", counted)
    return lambda: calls


def test_order_isomorphic_pools_share_the_cache(assign_calls):
    f = parse("E Y. cap(Y, X) = Y & !(Y = X) & !(Y = bot)", SIG_L)
    cache = EvalCache()
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=2)
    assert eval_bounded(f, {"X": parse_fci("[1,2]")}, pool, SIG_L, cache=cache) is True
    values = sum(len(t.vals) for t in cache._terms.values())
    assert (assign_calls(), values > 0) == (3, True)
    # the image pool ranks to the same space: every term value it needs is
    # already kept, while its search, which no verdict memo spares, runs again
    image = WitnessPool(points=fs([0, F(5, 2), 7]), max_segments=2)
    assert eval_bounded(f, {"X": parse_fci("[5/2,7]")}, image, SIG_L, cache=cache) is True
    assert (assign_calls(), sum(len(t.vals) for t in cache._terms.values())) == (6, values)


def test_a_pool_s_value_memo_stays_bounded():
    # each call ranks a fresh value object on one pool; the memo keys values
    # by identity, so without its cap it would keep all 20,000
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=2)
    f, cache = parse("X = cz", SIG_W), EvalCache()
    for _ in range(20_000):
        assert not eval_bounded(f, {"X": fs([1])}, pool, SIG_W, cache=cache)
    assert 0 < len(semantics._pool_ranks(pool).values) <= semantics._VALUE_MEMO_SIZE


def test_a_pool_is_ranked_and_hashed_once(monkeypatch):
    ranked, hashed = [], []
    shared, pool_hash = semantics._shared_ranks, WitnessPool.__hash__

    def counted_ranks(pool):
        ranked.append(pool)
        return shared(pool)

    def counted_hash(pool):
        hashed.append(pool)
        return pool_hash(pool)

    monkeypatch.setattr(semantics, "_shared_ranks", counted_ranks)
    monkeypatch.setattr(WitnessPool, "__hash__", counted_hash)
    pool = WitnessPool(points=fs([0, F(1, 13), F(2, 13)]), max_segments=2)
    f, x = parse("E Y. cap(Y, X) = Y & !(Y = bot)", SIG_L), parse_fci("[1/13,2/13]")
    for _ in range(2):
        assert eval_bounded(f, {"X": x}, pool, SIG_L) is True
        assert eval_bounded(parse("X = bot", SIG_L), {"X": x}, pool, SIG_L) is False
    assert [id(p) for p in ranked] == [id(pool)]
    assert len(hashed) == 1
    # an equal pool object is ranked through the shared table, to the same
    # ranking and value memo
    twin = WitnessPool(points=fs([0, F(1, 13), F(2, 13)]), max_segments=2)
    assert eval_bounded(f, {"X": x}, twin, SIG_L) is True
    assert _pool_ranks(twin) is _pool_ranks(pool)
    assert [id(p) for p in ranked] == [id(pool), id(twin)]


def test_a_used_pool_is_like_an_unused_equal_one():
    def make():
        return WitnessPool(points=fs([0, F(1, 11), 1]), max_segments=1, pair_points=fs([0, 1]))

    used, unused = make(), make()
    x = fs([F(1, 11)])
    assert eval_bounded(parse("E Y. cap(Y, X) = Y & !(Y = bot)", SIG_W), {"X": x}, used, SIG_W) is True
    assert "_ranks" in used.__dict__ and "_ranks" not in unused.__dict__
    assert used == unused and unused == used
    assert hash(used) == hash(unused)
    assert repr(used) == repr(unused) and str(used) == str(unused)
    # a copy ranks afresh: the value memo is keyed by object ids, which
    # mean nothing in another process
    for copied in (copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))):
        assert "_ranks" not in copied.__dict__
        assert copied == used and hash(copied) == hash(used)
        assert eval_bounded(parse("X = bot", SIG_W), {"X": x}, copied, SIG_W) is False
    assert "_ranks" in used.__dict__


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


def test_only_the_validity_guard_offers_a_pair_rule():
    # the pair rule assigns both coordinates at once, so it needs nothing
    cache = EvalCache()
    guard = valid_pair("Al", "Ar")
    rules = _atom_rules(guard, cache.term)
    assert [(r.kind, r.var, r.terms, r.need) for r in rules] == [("pair", "Al", (cache.term(Var("Ar")),), frozenset())]
    assert not _atom_rules(valid_pair("Al", "Al"), cache.term)
    # without min(b cup c) - b the equation admits (bot, {p}), no endpoint
    # pair, so enumerating only endpoint pairs there would be unsound
    near_miss = Atomic(guard.lhs.args[0], guard.rhs)
    assert eval_qf(near_miss, {"Al": EMPTY_FS, "Ar": fs([1])}, SIG_W_DIFF)
    assert not eval_qf(guard, {"Al": EMPTY_FS, "Ar": fs([1])}, SIG_W_DIFF)
    assert not any(r.kind == "pair" for r in _atom_rules(near_miss, cache.term))


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


# the extremes formula's rewrite, with the solver steps it takes, while
# simplify inlined no variable a term defines: its pipeline output and, on
# coordinates, its positive existential stage.  Both now come out
# quantifier-free (cap(min(X), max(X)) = bot), so the search order is
# pinned on these texts
_EXTREMES_SEARCHED = {
    "l": ("E Y. E W. min(X) = Y & max(X) = W & cap(l(Y), l(W)) = bot & cap(r(Y), r(W)) = bot", 3),
    "w": (
        "E Yl. E Yr. E Wl. E Wr. min(cup(Xl, Xr)) = Yl & min(cup(Xl, Xr)) = Yr"
        " & cap(max(cup(Xl, Xr)), Xr) = Wl & cap(max(cup(Xl, Xr)), Xr) = Wr"
        " & cap(Yl, Wl) = bot & cap(Yr, Wr) = bot",
        5,
    ),
}


@pytest.mark.parametrize("sig, x, want", [(SIG_L, "{1}", False), (SIG_W, "[1,*)", True)], ids=["l", "w"])
def test_solver_search_order_is_pinned(assign_calls, sig, x, want):
    # a change to which variable is bound next or which candidates it
    # tries moves the count even when every verdict stays right
    f = parse("E Y. E W. min(X) = Y & max(X) = W & cap(Y, W) = bot", SIG_L)
    pool = WitnessPool(points=fs([0, 1, 2]), max_segments=3)
    x = parse_fci(x)
    if sig.finite_sets:
        g = simplify(to_positive_existential(simplify(translate_L_to_W(f))))
        a = {"Xl": x.left_endpoints(), "Xr": x.right_endpoints()}
    else:
        g, a = pipeline(f), {"X": x}
    assert eval_bounded(g, a, pool, sig) is want
    assert (bound_vars(g), assign_calls()) == (frozenset(), 0)
    text, steps = _EXTREMES_SEARCHED[sig.name]
    assert eval_bounded(parse(text, sig), a, pool, sig) is want
    assert assign_calls() == steps


@pytest.mark.parametrize(
    "suite, steps",
    [("pipeline", 1600), ("posex", 4761), ("l2w", 14010), ("w2l", 45050), ("ipschar", 6052)],
)
def test_suite_search_totals_are_pinned(assign_calls, suite, steps):
    # every _assign call of a whole suite: a change to the search order
    # moves the total even when every verdict stays right.  The pipeline
    # suite took 204 and the l2w suite 146,723 while translate_L_to_W
    # folded only its input's terms, not its definitions, before unnest.
    # The l2w suite took 146,310 while a cup or cap over sets not known to
    # be finite cost a universal bound clause, and the posex suite 4,256
    # while its witness sat in a symmetric difference written with diff.
    # The pipeline suite took 150 and the posex suite 3,218 while a verdict
    # memo kept the decided connectives and quantifiers: a quantifier
    # repeated under many assignments was searched once per set of values
    assert getattr(suites, f"suite_{suite}")().ok
    assert assign_calls() == steps


def test_a_quantifier_is_searched_again_under_each_outer_value(assign_calls):
    # the search binds Z, then V, then Y, and only then is the universal,
    # which names Z and Y but not V, ready: its whole search runs again for
    # each value V takes, since no verdict is kept to spare it
    f = parse(
        "E Z. E Y. E V. min(Z) = Z & min(V) = V & cap(Y, X) = Y & !(cap(Z, Y) = Z)"
        " & (A W. (cap(W, Y) = W -> cup(W, Z) = Y))",
        SIG_L,
    )
    a = {"X": parse_fci("[0,1]")}
    assert eval_bounded(f, a, default_pool(a), SIG_L) is False
    assert assign_calls() == 626


def test_ten_point_pools_range_over_interval_unions():
    # the default pool of X has 10 points; no guard bounds Y, so the solver
    # ranges over the 17,711 interval unions on them
    x = parse_fci("[1,2] + [3,4]")
    pool = default_pool({"X": x})
    assert len(pool.points) == 10
    f = parse("E Y. E W. r(l(cz)) = max(Y)", SIG_L)
    assert eval_bounded(f, {"X": x}, pool, SIG_L) is True
    assert len(universe(pool, SIG_L)) == 17711


def test_the_solver_hashes_no_fraction(monkeypatch):
    # the solver works on ranks, found by exact keys: every pool and value
    # here is built afresh, so no hash kept on a set can hide a Fraction's
    def fresh(*texts):
        return FinSet(tuple(map(Fraction, texts)))

    pairs = exists_all(["Al", "Ar"], And(valid_pair("Al", "Ar"), parse("Z sub Al", SIG_W)))
    extremes = pipeline(parse("E Y. E W. min(X) = Y & max(X) = W & cap(Y, W) = bot", SIG_L))
    cases = []
    # a point outside the pool: 1/3 and 5/2 lie outside {0, 1, 2}
    inside = {sig: parse("E Y. cap(Y, X) = Y & !(Y = bot)", sig) for sig in (SIG_W, SIG_L)}
    for sig, x, want in [
        (SIG_W, fresh("1/3"), False),
        (SIG_W, fresh("1/3", "1", "5/2"), True),
        (SIG_L, parse_fci("{1/3}"), False),
        (SIG_L, parse_fci("[1/3,5/2]"), True),
    ]:
        cases.append((inside[sig], {"X": x}, WitnessPool(fresh("0", "1", "2"), 2), sig, want))
    for _ in range(2):
        points = ("0", "1/2", "1", "3/2", "2", "3")
        coarse = WitnessPool(fresh(*points), len(points), True, fresh("0", "1", "2"))
        fine = WitnessPool(fresh(*points), len(points))
        cases += [(pairs, {"Z": fresh("1/2")}, coarse, SIG_W, False), (pairs, {"Z": fresh("1/2")}, fine, SIG_W, True)]
        for text, want in [("empty", True), ("{1}", False), ("[1,*)", True)]:
            cases.append((extremes, {"X": parse_fci(text)}, WitnessPool(fresh("0", "1", "2"), 3), SIG_L, want))
    hashed = 0
    plain = Fraction.__hash__

    def counted(self):
        nonlocal hashed
        hashed += 1
        return plain(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    got = [eval_bounded(h, a, pool, sig) for h, a, pool, sig, _ in cases]
    monkeypatch.undo()
    assert got == [want for *_, want in cases]
    assert hashed == 0


def test_a_new_value_never_reads_an_old_values_mask():
    # a pool keeps each value object's mask by its id; were the object let
    # go, a new value could take its id and read its mask
    pool = WitnessPool(fs([0, 1, 2, 3]), 2)
    f = parse("min(X) = cz", SIG_L)
    for _ in range(50):
        for text, want in (("[0,1]", True), ("{2}", False), ("[0,*)", True), ("[1,3]", False)):
            assert eval_bounded(f, {"X": parse_fci(text)}, pool, SIG_L) is want, text


def _compiled_inputs() -> list:
    """Formulas the compiled entry must read as the walk does, each with
    the signature it is evaluated under."""
    out = []
    corpora = (
        (suites.POSEX_CORPUS, SIG_W),
        (suites.W2L_CORPUS, SIG_W),
        ([text for text, _ in suites.L2W_CORPUS], SIG_L),
        (suites.PIPELINE_CORPUS, SIG_L),
    )
    for corpus, sig in corpora:
        out += [(parse(text, sig), sig) for text in corpus]
    out += [(pipeline(parse(text, SIG_L)), SIG_L) for text in suites.PIPELINE_CORPUS]
    coords = [(Var(name + "l"), Var(name + "r")) for name in "UVW"]
    coordinate_forms = (phi_in(), phi_subseteq(), delta_domain(), _lattice("cup", *coords), _lattice("cap", *coords))
    out += [(g, SIG_W_DIFF) for g in coordinate_forms]
    out += [(simplify(translate_L_to_W(parse(text, SIG_L))), SIG_W_DIFF) for text, _ in suites.L2W_CORPUS]
    rng = random.Random("pipeline-generated")
    out += [(generated_formula(rng, 3, ("X",)), SIG_L) for _ in range(200)]
    return out


def test_the_compiled_entry_agrees_with_the_walk():
    # every interval union over 3 points, or every finite set on a 4-point
    # grid, for each variable; past 4,096 assignments, 4,096 seeded draws
    # of them.  The walk runs on a cache of its own
    rng = random.Random(48)
    compiled = walked = 0
    for f, sig in _compiled_inputs():
        w = sig.finite_sets
        run = EvalCache().compiled(f, w)
        if bound_vars(f):
            assert run is None, format_formula(f)
            continue
        n = 4 if w else 3
        space = _pool_ranks(WitnessPool(points=fs(range(n)), max_segments=n)).spaces[w]
        values, names = _masks(space), sorted(free_vars(f))
        if len(values) ** len(names) <= 4096:
            assignments = product(values, repeat=len(names))
        else:
            assignments = ([rng.choice(values) for _ in names] for _ in range(4096))
        walk = EvalCache()
        for masks in assignments:
            env = dict(zip(names, masks))
            assert run(env) is _eval(f, env, space, walk), (format_formula(f), env)
            walked += 1
        compiled += 1
    assert (compiled, walked) == (157, 43847)


def test_only_a_quantified_formula_is_walked(monkeypatch):
    walked = []

    def counted(f, *args):
        walked.append(f)
        return _eval(f, *args)

    monkeypatch.setattr(semantics, "_eval", counted)
    pool = WitnessPool(points=fs([0, 1]), max_segments=1)
    a = {"X": parse_fci("[0,1]")}
    assert eval_bounded(parse("min(X) = cz | X = bot", SIG_L), a, pool, SIG_L) is True
    assert walked == []
    f = parse("E Y. min(X) = Y & !(Y = bot)", SIG_L)
    assert eval_bounded(f, a, pool, SIG_L) is True
    assert walked[0] == f
