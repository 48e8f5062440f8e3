"""Formula transformations: negation elimination, the successor-preimage
characterization, the two translations, and the composed rewrite.

Heavy exhaustive agreement checks live in the named suites; these tests
pin down hand-checked instances and the contracts (classification of the
output, which inputs are rejected).
"""

import hashlib
import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from helpers import FINITE_SET_OPS, generated_formula
from hypothesis import given
from hypothesis import strategies as st

from intlat import cells, transforms
from intlat.fci import embed_finset, parse_fci
from intlat.finset import FinSet
from intlat.oracle import enum_fcis, enum_finsets
from intlat.semantics import EvalCache, WitnessPool, default_pool, eval_bounded, eval_qf, eval_term, widened
from intlat.suites import L2W_CORPUS, PIPELINE_CORPUS, PIPELINE_REJECTS, POSEX_CORPUS, SUITES, W2L_CORPUS
from intlat.syntax import (
    SIG_L,
    SIG_W,
    SIG_W_DIFF,
    And,
    App,
    Atomic,
    Exists,
    Forall,
    Not,
    Or,
    Term,
    all_names,
    and_all,
    bot,
    bound_vars,
    cap,
    classify,
    count_nodes,
    cup,
    cz,
    delta_domain,
    diff_t,
    format_formula,
    formula_symbols,
    free_vars,
    ips_t,
    l_t,
    min_t,
    nnf,
    operands,
    parse,
    r_t,
    rename_bound_apart,
    subformulas,
    substitute,
    term_symbols,
    term_vars,
    unnest,
    valid_pair,
)
from intlat.transforms import (
    _FINITE_VALUED,
    _LAWS,
    TRUE,
    FragmentError,
    _definition,
    _grow_finite,
    _l2w,
    _misses,
    _simp_term,
    notbot,
    phi_in,
    phi_ips,
    phi_subseteq,
    pipeline,
    simplify,
    to_positive_existential,
    translate_L_to_W,
    translate_W_to_L,
)
from intlat.syntax import Var

fs = FinSet.of


# -- negation elimination -------------------------------------------------------


def test_notbot_is_positive_and_means_nonempty():
    f = notbot(Var("A"))
    assert classify(f) == "positive_existential"
    pool = fs([0, 1, 2])
    for a in enum_finsets(pool):
        got = eval_bounded(f, {"A": a}, default_pool({"A": a}), SIG_W)
        assert got == bool(a), a


def test_to_positive_existential_requires_existential_input():
    with pytest.raises(FragmentError):
        to_positive_existential(parse("A Y. Y = X", SIG_W))


def test_to_positive_existential_output_shape():
    for text in ["!X = bot", "!(min(X) = cz)", "E Y. !(cap(Y, X) = Y)"]:
        g = to_positive_existential(parse(text, SIG_W))
        assert classify(g) == "positive_existential", text


def test_to_positive_existential_preserves_meaning():
    pool = fs([0, 1, 2])
    texts = ["!X = bot", "!(min(X) = max(X))", "X = bot | !(cup(X, cz) = X)"]
    for text in texts:
        f = parse(text, SIG_W)
        g = to_positive_existential(f)
        for x in enum_finsets(pool):
            a = {"X": x}
            assert eval_qf(f, a, SIG_W) == eval_bounded(g, a, default_pool(a), SIG_W), (text, x)


def test_posex_outputs_write_no_diff():
    # the witness of a negated equation lies in the union of its sides and
    # misses their meet, so posex stays in the finite-set signature, on the
    # corpora and on the finite-set draws
    rng = random.Random("posex-no-diff")
    inputs = [parse(text, SIG_W) for text in _W_TEXTS]
    inputs += [generated_formula(rng, 3, ("X",), FINITE_SET_OPS) for _ in range(200)]
    taken = 0
    for f in inputs:
        try:
            g = to_positive_existential(f)
        except FragmentError:
            continue
        taken += 1
        assert "diff" not in formula_symbols(g), format_formula(f)
    assert taken > len(_W_TEXTS)


def test_posex_takes_only_finite_set_formulas():
    with pytest.raises(FragmentError, match=r"^not a finite-set formula: uses \['diff'\]$"):
        to_positive_existential(Not(Atomic(diff_t(Var("X"), Var("Y")), Var("Z"))))


# -- the successor-preimage characterization --------------------------------------


def test_phi_ips_frozen_instances():
    f = phi_ips()
    assert classify(f) == "positive_existential"  # one block, no case split

    def holds(x, y, z):
        a = {"X": embed_finset(fs(x)), "Y": embed_finset(fs(y)), "Z": embed_finset(fs(z))}
        return eval_bounded(f, a, default_pool(a), SIG_L)

    assert holds([1, 2, 5], [2, 5], [1, 2])
    assert holds([], [1], [])
    assert holds([1, 2, 3], [2], [1])
    assert holds([0, 1], [1], [0])
    # a bounded witness set would wrongly accept these two
    assert not holds([1], [1], [1])
    assert not holds([1, 2, 3], [2], [1, 3])
    # an empty B takes the ray [0,*) as its witness, which forces Z empty
    assert holds([1, 2], [], [])
    assert not holds([1, 2], [], [1])


def test_phi_ips_agrees_with_the_operation_on_a_small_grid():
    f = phi_ips()
    pool = fs([0, 1, 2])
    for x in enum_finsets(pool):
        for y in enum_finsets(pool):
            want = x.ips(y)
            a = {
                "X": embed_finset(x),
                "Y": embed_finset(y),
                "Z": embed_finset(want),
            }
            assert eval_bounded(f, a, default_pool(a), SIG_L), (x, y)


# -- finite sets into intervals ----------------------------------------------------


def test_w2l_rejects_a_universal_input():
    with pytest.raises(FragmentError):
        translate_W_to_L(parse("A Y. Y = X", SIG_W))


def _w2l_agrees_on_every_triple(text: str) -> None:
    f = parse(text, SIG_W)
    g = translate_W_to_L(f)
    pool = fs([0, 1, 2])
    for x in enum_finsets(pool):
        for y in enum_finsets(pool):
            for z in enum_finsets(pool):
                direct = eval_qf(f, {"X": x, "Y": y, "Z": z}, SIG_W)
                a = {"X": embed_finset(x), "Y": embed_finset(y), "Z": embed_finset(z)}
                assert eval_bounded(g, a, default_pool(a), SIG_L) == direct, (x, y, z)


def test_w2l_agreement_on_ips_instances():
    _w2l_agrees_on_every_triple("ips(X, Y) = Z")


# ips at the top of the negated equation, and nested in it
@pytest.mark.parametrize("text", ["!(ips(X, Y) = Z)", "!(cup(ips(X, Y), cz) = Z)"])
def test_w2l_agreement_on_negated_ips_instances(text):
    _w2l_agrees_on_every_triple(text)


def test_w2l_lifts_ips_out_of_a_negation():
    g = translate_W_to_L(parse("!(cup(ips(X, Y), cz) = Z)", SIG_W))
    assert classify(g) == "existential"
    # the negation keeps the equation, with ips(X, Y) named outside it
    assert isinstance(g, Exists) and g.var == "U"
    assert format_formula(operands(g.body, And)[-1]) == "!cup(U, cz) = Z"


def test_w2l_relativizes_no_variable_it_lifts_for_an_ips():
    # phi_ips makes a lifted U the right endpoints of its D, a finite set
    lifted = 0
    for text in _W_TEXTS:
        f = parse(text, SIG_W)
        try:
            inputs = [f, to_positive_existential(f)]
        except FragmentError:
            continue
        for g in inputs:
            out = translate_W_to_L(g)
            for u in bound_vars(out) - all_names(g):
                if u.startswith("U"):
                    lifted += 1
                    assert Atomic(l_t(Var(u)), r_t(Var(u))) not in subformulas(out), (text, u)
    assert lifted


def test_w2l_relativizes_quantifiers_to_embedded_finite_sets():
    f = parse("E Y. cup(X, Y) = Y", SIG_W)
    g = translate_W_to_L(f)
    # within intervals, some Y above X always exists even for empty X
    a = {"X": embed_finset(fs([1]))}
    assert eval_bounded(g, a, default_pool(a), SIG_L)
    # the binder for Y must carry the equal-endpoint-maps relativizer
    assert "l(Y) = r(Y)" in format_formula(g)


# -- intervals into finite-set coordinates ------------------------------------------


def test_l2w_splits_each_variable_into_an_endpoint_pair():
    g = translate_L_to_W(parse("X = bot", SIG_L))
    assert free_vars(g) == {"Xl", "Xr"}


def test_l2w_rejects_foreign_symbols():
    with pytest.raises(FragmentError):
        translate_L_to_W(parse("ips(X, Y) = Z", SIG_W))


def test_l2w_agreement_on_finiteness():
    f = parse("l(X) = r(X)", SIG_L)
    g = translate_L_to_W(f)
    for u in enum_fcis(fs([0, 1, 2]), 2, True):
        a = {"Xl": u.left_endpoints(), "Xr": u.right_endpoints()}
        got = eval_bounded(g, a, default_pool(a), SIG_W)
        assert got == u.is_finite_set(), u


def _finite_valued_terms(depth: int) -> list:
    """Every term of depth at most ``depth`` over X, ``bot`` and ``cz``
    built from the ``_FINITE_VALUED`` operations."""
    terms = [Var("X"), bot(), cz()]
    for _ in range(depth):
        terms = [Var("X"), bot(), cz()] + [App(op, (t,)) for op in _FINITE_VALUED if SIG_L.arities[op] for t in terms]
    return terms


def test_finite_valued_table_agrees_with_the_kernels_on_coordinates():
    # op(X) is a finite set, and it is the table's term of X's coordinates,
    # on every union over 5 points
    unions = list(enum_fcis(fs(range(5)), 5, True))
    for op, value_of in _FINITE_VALUED.items():
        app = App(op, (Var("X"),) * SIG_L.arities[op])
        t = value_of(Var("Xl"), Var("Xr")) if app.args else value_of()
        for u in unions:
            value = eval_term(app, {"X": u}, SIG_L)
            assert value.is_finite_set(), (op, u)
            assert eval_term(t, _coords(u), SIG_W) == value.left_endpoints(), (op, u)
    # a nested term translates in place: the coordinates _l2w writes for it
    # are its value's endpoint sets
    terms = _finite_valued_terms(2)
    assert len(terms) == 63
    for t in terms:
        g, pairs = _l2w(Atomic(t, Var("W")))
        (tl, wl), (tr, wr) = ((c.lhs, c.rhs) for c in operands(g, And))
        assert (wl, wr) == (Var(pairs["W"].left), Var(pairs["W"].right))
        for u in unions:
            value = eval_term(t, {"X": u}, SIG_L)
            c = _coords(u, pairs["X"].left, pairs["X"].right) if "X" in pairs else {}
            assert eval_term(tl, c, SIG_W) == value.left_endpoints(), (format_formula(g), u)
            assert eval_term(tr, c, SIG_W) == value.right_endpoints(), (format_formula(g), u)


def test_every_interval_operation_is_finite_valued_or_cup_or_cap():
    assert set(SIG_L.arities) == set(_FINITE_VALUED) | {"cup", "cap"}


def test_definable_pieces_are_single_cases():
    atoms = [translate_L_to_W(Atomic(App(op, (Var("X"),) * SIG_L.arities[op]), Var("W"))) for op in _FINITE_VALUED]
    for f in [phi_ips(), delta_domain(), notbot(Var("A")), *atoms]:
        assert not any(isinstance(g, Or) for g in subformulas(f)), format_formula(f)
    assert classify(phi_ips()) == "positive_existential"
    # the validity guard is one equation; only nonemptiness negates
    guard = valid_pair("Bl", "Br")
    assert isinstance(guard, Atomic)
    assert not any(isinstance(g, (Or, Not, And)) for g in subformulas(guard))
    assert sum(isinstance(g, Not) for g in subformulas(delta_domain())) == 1


def test_grow_finite_spreads_finiteness_through_cup_and_cap():
    # a union is finite exactly when both parts are, and a meet with a
    # finite set is finite; no corpus formula takes these two steps
    none = frozenset()
    cup_atom = parse("cup(U, V) = W", SIG_L)
    assert _grow_finite([cup_atom], frozenset({"W"}), none) == ({"U", "V", "W"}, none)
    assert _grow_finite([cup_atom], frozenset({"U"}), none) == ({"U"}, none)
    cap_atom = parse("cap(U, V) = W", SIG_L)
    assert _grow_finite([cap_atom], frozenset({"U"}), none) == ({"U", "W"}, none)
    assert _grow_finite([cap_atom], frozenset({"W"}), none) == ({"W"}, none)


def test_grow_finite_forces_coordinates_only_forwards():
    # the translation makes a variable's coordinates equal only through a
    # finite-valued definition, an equation, or a coordinatewise operation
    # on such variables
    conj = [parse(t, SIG_L) for t in ("min(X) = U", "U = V", "cap(V, Y) = W", "cup(W, Z) = Z")]
    assert _grow_finite(conj, frozenset(), frozenset()) == ({"U", "V", "W"}, {"U", "V"})
    yz = frozenset({"Y", "Z"})
    assert _grow_finite(conj, yz, yz)[1] == {"U", "V", "W", "Y", "Z"}


@pytest.mark.parametrize(
    "text, x",
    [
        # X is inferred finite from the atom that is translated as if it
        # were: the coordinatewise cap alone holds on these infinite X
        ("cap(l(X), cup(X, bot)) = X", "{0} + [2,*)"),
        ("cap(cap(cz, X), X) = X", "[0,*)"),
    ],
)
def test_coordinatewise_lattice_operations_force_their_operands_finite(text, x):
    f = parse(text, SIG_L)
    a = {"X": parse_fci(x)}
    pool = default_pool(a)
    assert not eval_bounded(f, a, pool, SIG_L)
    g, pairs = _l2w(f)
    c = _coords(a["X"], pairs["X"].left, pairs["X"].right)
    assert not eval_bounded(g, c, default_pool(c), SIG_W)


def test_l2w_forgets_finiteness_at_an_inner_binder_of_the_same_name():
    # the inner X is a new variable: finite outside says nothing of it.
    # The parser renames such binders apart, so this one is built by hand
    x, y, z = Var("X"), Var("Y"), Var("Z")
    f = And(Atomic(l_t(y), x), Exists("X", Atomic(cup(x, cz()), z)))
    a = {"X": parse_fci("{0}"), "Y": parse_fci("[0,1]"), "Z": parse_fci("[0,*)")}
    g, pairs = _l2w(f)
    c = {k: v for name, u in a.items() for k, v in _coords(u, pairs[name].left, pairs[name].right).items()}
    assert eval_bounded(f, a, default_pool(a), SIG_L)
    assert eval_bounded(g, c, default_pool(c), SIG_W)


def test_l2w_forgets_forced_coordinates_at_an_inner_binder_of_the_same_name():
    # min(X) = Y forces the outer Y's coordinates equal, but V's block
    # equates V with a cap of the inner Y, any union, and cz, so V keeps its
    # guard; were the inner Y forced, that cap would force V.  The
    # definition names the inner Y, bound below V, so simplify keeps both.
    # The parser renames such binders apart, so this one is built by hand
    x, y, v = Var("X"), Var("Y"), Var("V")
    inner = Exists("V", Exists("Y", and_all([Atomic(cap(y, cz()), v), Not(Atomic(v, x)), Atomic(l_t(y), l_t(x))])))
    f = And(Atomic(min_t(x), y), Not(inner))
    assert simplify(f) == f
    g, pairs = _l2w(f)
    assert _guarded(g, pairs["V"])
    points = fs([0, 1, 2])
    dense = widened(points)
    pool = WitnessPool(points=dense, max_segments=len(dense), pair_points=points)
    for u in enum_fcis(points, 2, True):
        a = {"X": u, "Y": u.min_set()}
        c = {k: w for name, s in a.items() for k, w in _coords(s, pairs[name].left, pairs[name].right).items()}
        assert eval_bounded(g, c, pool, SIG_W) == eval_bounded(f, a, pool, SIG_L), u


def _guarded(g, pair) -> bool:
    """Whether ``g`` binds ``pair`` as ``E l. E r. valid_pair(l, r) & body``
    (or ``A l. A r. !valid_pair(l, r) | body``); raises when it does not
    bind the pair as two adjacent binders at all."""
    for h in subformulas(g):
        if isinstance(h, (Exists, Forall)) and h.var == pair.left and type(h.body) is type(h) and h.body.var == pair.right:
            body = h.body.body
            guard = valid_pair(pair.left, pair.right)
            return body.__class__ is And and body.lhs == guard or body.__class__ is Or and body.lhs == Not(guard)
    raise AssertionError(f"{pair} is not bound as a pair")


# _l2w reads its input through simplify, which inlines a definition X = t
# unless t names a variable bound below X or X occurs besides more often
# than t's size allows (three times for three nodes, six for two, any
# number for one).  So each definition below is by a three-node term whose
# variable is named four more times (cap(Y, l(Y)) = r(Y) names it thrice),
# or its term names a variable bound below it
_GUARD_CASES = [
    ("E Y. min(l(X)) = Y & cup(Y, X) = X & cap(Y, l(Y)) = r(Y)", {"Y"}),
    # looking through the nested E, and a definition by a bound variable
    ("E W. E Y. max(r(X)) = Y & l(Y) = W & cap(Y, l(Y)) = r(Y)", {"Y", "W"}),
    ("E Y. min(l(X)) = Y & (E W. r(W) = Y) & cap(Y, l(Y)) = r(Y)", {"Y"}),
    # each guard would rest on the other
    ("E Y. E W. cup(W, X) = Y & cap(Y, W) = W", set()),
    # the variable among its own arguments, and defined by a finite
    # value of a variable equal endpoint maps make finite (simplify
    # inlines every equation between a bound variable and a variable)
    ("E Y. min(Y) = Y", {"Y"}),
    ("E W. E Y. l(Y) = r(Y) & l(Y) = W & !(W = X)", {"Y", "W"}),
    # a definition under a negation or in one disjunct only
    ("E Y. !(min(X) = Y)", set()),
    ("E Y. min(X) = Y | Y = X", set()),
    # a universal binder, and a cup, whose template binds nothing
    ("A Y. (min(X) = Y -> Y = X)", set()),
    ("cup(X, Y) = Z", set()),
    # one equation between X's coordinates, with no helper to bind
    ("l(X) = r(X)", set()),
    # equal endpoint maps, in either order, make Y a finite set
    ("E Y. l(Y) = r(Y) & !(Y = X)", {"Y"}),
    ("E Y. E W. r(Y) = l(Y) & cup(Y, W) = X", {"Y"}),
]


@pytest.mark.parametrize("text, unguarded", _GUARD_CASES)
def test_l2w_guards_every_pair_but_one_its_block_forces_finite(text, unguarded):
    f = parse(text, SIG_L)
    # _l2w reads the simplified input, which binds what the input binds
    assert bound_vars(simplify(f)) == bound_vars(f)
    g, pairs = _l2w(f)
    assert {v for v in bound_vars(unnest(simplify(f))) if not _guarded(g, pairs[v])} == unguarded
    # each universal pair relativizes a universal of the input
    for h in subformulas(g):
        if isinstance(h, Forall) and isinstance(h.body, Forall):
            assert h.body.body.__class__ is Or and h.body.body.lhs == Not(valid_pair(h.var, h.body.var))


@pytest.mark.parametrize(
    "text",
    [
        "E Y. l(Y) = r(Y) & cup(Y, cz) = Y",
        "l(X) = r(X) & cup(X, cz) = X",
        # 1,173 nodes translated (436 simplified) while Y kept its guard
        # and the cap took a universal bound clause
        "E Y. r(Y) = l(Y) & cup(Y, cz) = Y & cap(Y, min(X)) = bot",
    ],
)
def test_equal_endpoint_maps_make_a_set_finite(text):
    # l(V) = r(V) is Vl = Vr: V's pair needs no guard, and its cup and cap
    # are taken coordinatewise, not by the template, so the coordinate form
    # has no quantifier but V's own
    f = parse(text, SIG_L)
    g, pairs = _l2w(f)
    assert not any(_guarded(g, pairs[v]) for v in bound_vars(f))
    assert not any(isinstance(h, Forall) for h in subformulas(g))
    _agree_on_every_small_union(f, g, SIG_W)


def test_l2w_folds_the_input_s_terms_before_naming_them():
    # cap(X, bot) = Y means bot = Y: named, its cap would cost a template
    f, folded = parse("cap(X, bot) = Y", SIG_L), parse("bot = Y", SIG_L)
    assert translate_L_to_W(f) == translate_L_to_W(folded)


@pytest.mark.parametrize(
    "text, free",
    [("!(E Z. bot = X)", "!bot = X"), ("!(E Z. cap(Z, bot) = X)", "!bot = X"), ("A Z. bot = X", "bot = X")],
)
def test_pipeline_drops_a_binder_that_term_folding_empties(text, free):
    # a pair for Z would keep a universal quantifier: pipeline rejected
    # these while it sent every input through coordinates
    f, g = parse(text, SIG_L), parse(free, SIG_L)
    assert pipeline(f) == g
    _agree_on_every_small_union(f, g, SIG_L)


def test_l2w_reads_its_input_through_simplify():
    # a formula and its simplified form have one translation, on the
    # corpora and the one- and two-variable draws
    draws = _generated_formulas("pipeline-generated") + _generated_formulas("l2w-generated")
    draws += _generated_formulas("pipeline-generated-xy", ("X", "Y"))
    for f in [parse(text, SIG_L) for text in _L_TEXTS] + draws:
        assert translate_L_to_W(f) == translate_L_to_W(simplify(f)), format_formula(f)


def test_l2w_writes_no_pair_for_a_binder_term_folding_empties():
    g = simplify(translate_L_to_W(parse("E Z. cap(Z, bot) = Y", SIG_L)))
    assert g == simplify(translate_L_to_W(parse("bot = Y", SIG_L)))
    assert not bound_vars(g)


_KERNELS = {"cup": "union", "cap": "intersect"}


def _lattice_verdicts(op: str, triples) -> set:
    """The verdicts of ``translate_L_to_W`` of ``op(X, Y) = Z`` on the
    coordinates of each triple of unions, each checked against the kernel
    of ``op``."""
    g = translate_L_to_W(parse(f"{op}(X, Y) = Z", SIG_L))
    assert not bound_vars(g)
    verdicts = set()
    for x, y, z in triples:
        want = getattr(x, _KERNELS[op])(y) == z
        verdicts.add(want)
        assert eval_qf(g, {**_coords(x), **_coords(y, "Yl", "Yr"), **_coords(z, "Zl", "Zr")}, SIG_W_DIFF) == want, (x, y, z)
    return verdicts


@pytest.mark.parametrize("op", sorted(_KERNELS))
def test_l2w_lattice_template_agrees_with_the_kernels_on_every_small_triple(op):
    unions = list(enum_fcis(fs(range(3)), 3, True))
    assert len(unions) == 21
    assert _lattice_verdicts(op, itertools.product(unions, repeat=3)) == {True, False}


@pytest.mark.parametrize("op", sorted(_KERNELS))
def test_l2w_lattice_template_agrees_with_the_kernels_on_seeded_triples(op):
    rng = random.Random(f"lattice-template/{op}")
    unions = list(enum_fcis(fs(range(8)), 8, True))
    triples = []
    for i in range(1000):
        x, y = rng.choice(unions), rng.choice(unions)
        # half the triples hold, so both verdicts occur
        triples.append((x, y, getattr(x, _KERNELS[op])(y) if i % 2 else rng.choice(unions)))
    assert _lattice_verdicts(op, triples) == {True, False}


def _existential(f) -> bool:
    return not any(isinstance(h, Forall) for h in subformulas(nnf(f)))


def test_l2w_of_an_existential_formula_is_existential():
    # the translation writes a universal only where its input has one, on
    # the corpora and the generated draws.  The hand case names a cup under
    # a negation of a conjunction, whose definition unnest writes as the
    # negation of an existential
    hand = "!(max(X) = X & cup(r(X), min(X)) = cup(Y, cz))"
    draws = _generated_formulas("l2w-generated") + _generated_formulas("pipeline-generated")
    draws += _generated_formulas("pipeline-generated-xy", ("X", "Y"))
    existential = 0
    for f in [parse(text, SIG_L) for text in _L_TEXTS + [hand]] + draws:
        if _existential(f):
            existential += 1
            assert _existential(translate_L_to_W(f)), format_formula(f)
    assert existential > 500


def test_l2w_binds_no_pair_for_a_cup_or_cap():
    # the template says cap(X, Y) = X on the coordinates alone
    g, pairs = _l2w(parse("X sub Y", SIG_L))
    assert set(pairs) == {"X", "Y"}
    assert not bound_vars(g)


def _defined_by_finite_value(h: Exists) -> bool:
    """Whether a conjunct of ``h``'s block equates its variable's two
    endpoint maps, or equates its variable with a term that is no variable
    and applies ``cup`` or ``cap`` only to such terms or to other variables
    defined so in the block."""
    body = h.body
    while isinstance(body, Exists):
        body = body.body
    conj = [c for c in operands(body, And) if isinstance(c, Atomic)]

    def defined(v: str, seen: frozenset) -> bool:
        ends = {l_t(Var(v)), r_t(Var(v))}
        if any({c.lhs, c.rhs} == ends for c in conj):
            return True
        for c in conj:
            for x, t in ((c.lhs, c.rhs), (c.rhs, c.lhs)):
                if x != Var(v) or not isinstance(t, App):
                    continue
                args = t.args if t.op in ("cup", "cap") else ()
                if all(isinstance(a, App) or a.name not in seen and defined(a.name, seen | {a.name}) for a in args):
                    return True
        return False

    return defined(h.var, frozenset({h.var}))


def test_l2w_guards_on_the_corpora_follow_the_definitions():
    # on the corpora and the guard cases a block forces finite exactly the
    # variables a finite value defines.  simplify inlines 7 of the 10
    # corpus binders, so the guard cases, which it leaves bound, are read
    # too
    checked = 0
    for text in _L_TEXTS + [text for text, _ in _GUARD_CASES]:
        # the binders _l2w reads: those of the simplified input
        f = parse(text, SIG_L)
        g, pairs = _l2w(f)
        for h in subformulas(unnest(simplify(f))):
            if isinstance(h, (Exists, Forall)):
                want = isinstance(h, Forall) or not _defined_by_finite_value(h)
                assert _guarded(g, pairs[h.var]) == want, (text, h.var)
                checked += 1
    assert checked == 19


def _generated_formulas(seed: str, names: tuple = ("X",)) -> list:
    """200 depth-3 ``generated_formula`` draws over ``names`` from ``seed``."""
    rng = random.Random(seed)
    return [generated_formula(rng, 3, names) for _ in range(200)]


def _universal_formulas(seed: str) -> list:
    """300 depth-2 ``generated_formula`` draws over X and Y from ``seed``,
    each under ``A Y``."""
    rng = random.Random(seed)
    return [Forall("Y", generated_formula(rng, 2, ("X", "Y"))) for _ in range(300)]


def test_simplify_inlines_no_pair_made_for_a_constant_or_a_finite_value(monkeypatch):
    # constants and finite values are translated in place, so unnest binds
    # only cup and cap; a pair made for any other term would be inlined
    # again (1,646 coordinates on these inputs).  The input is simplified
    # before unnest, so no cup or cap that folds (cap(X, bot)) is bound:
    # 162 coordinates were inlined while such pairs were.  An operand's own
    # Ul = Ur, or an l or r atom that defines a coordinate, is still inlined,
    # and so is Ul = cup(cz, Xl), a coordinate defined by a term.  6 were
    # inlined while only the input's terms were folded: simplify inlines
    # the W of E Y. E W. min(X) = Y & cup(Y, cz) = W & max(W) = Y, so unnest
    # names that cup itself, and both its coordinates are inlined.  One more
    # is inlined since simplify takes diff(min(T), T) to bot: a guard that
    # named a cup's left coordinate folds away, so that coordinate occurs
    # few enough times to inline
    hits, inlined = [], 0

    def recorded(g, *args):
        found = _definition(g, *args)
        if found is not None:
            hits.append(g.var)
        return found

    monkeypatch.setattr(transforms, "_definition", recorded)
    inputs = [parse(text, SIG_L) for text in _L_TEXTS]
    for f in inputs + _generated_formulas("l2w-generated") + _generated_formulas("pipeline-generated"):
        g, pairs = _l2w(f)
        # the operation each variable unnest binds stands for
        atoms = [h for h in subformulas(unnest(simplify(f))) if isinstance(h, Atomic)]
        ops = {h.rhs.name: h.lhs.op for h in atoms if isinstance(h.lhs, App) and isinstance(h.rhs, Var)}
        made = {c: ops.get(v) for v, p in pairs.items() if v not in all_names(f) for c in (p.left, p.right)}
        hits.clear()
        simplify(g)
        assert all(made[c] in ("cup", "cap") for c in hits if c in made), format_formula(f)
        inlined += sum(c in made for c in hits)
    assert inlined <= 9


def test_l2w_agrees_with_generated_formulas_on_every_small_union():
    points = fs([0, 1, 2])
    dense = widened(points)
    pool = WitnessPool(points=dense, max_segments=len(dense), pair_points=points)
    unions = list(enum_fcis(points, 3, True))
    checked = universal = 0
    for f in _generated_formulas("l2w-generated"):
        g, pairs = _l2w(f)
        g = simplify(g)
        # a bound clause left universal would make the solver enumerate
        # every coordinate pair
        if any(isinstance(h, Forall) for h in subformulas(nnf(g))):
            universal += 1
            continue
        lcache, wcache = EvalCache(), EvalCache()
        for u in unions:
            coords = _coords(u, pairs["X"].left, pairs["X"].right) if "X" in pairs else {}
            want = eval_bounded(f, {"X": u}, pool, SIG_L, cache=lcache)
            assert eval_bounded(g, coords, pool, SIG_W, cache=wcache) == want, (format_formula(f), u)
            checked += 1
    # 20 universal while simplify kept E Y. Y = max(X), which a negation
    # around it turned universal; (3801, 19) while _l2w folded only the
    # input's terms, not its definitions, before unnest, and (3843, 17)
    # while a cup or cap over sets not known to be finite cost a universal
    # bound clause.  The 4 left are universals of the input
    assert (checked, universal) == (4116, 4)


# the generated draws, how many of each simplify leaves with no universal
# quantifier in negation normal form, and how many of each pipeline takes:
# as many as while it sent every such universal through the coordinate
# round trip
_PIPELINE_DRAWS = {
    "pipeline-generated": (lambda: _generated_formulas("pipeline-generated"), 196, 196),
    "l2w-generated": (lambda: _generated_formulas("l2w-generated"), 195, 196),
    "pipeline-generated-xy": (lambda: _generated_formulas("pipeline-generated-xy", ("X", "Y")), 190, 191),
    "universal-xy": (lambda: _universal_formulas("universal-xy"), 177, 178),
}


@pytest.mark.parametrize("seed", sorted(_PIPELINE_DRAWS))
def test_pipeline_decides_only_a_universal_simplify_keeps(seed):
    draws, want_simplified, want_accepted = _PIPELINE_DRAWS[seed]
    simplified = accepted = 0
    for f in draws():
        try:
            g = pipeline(f)
        except FragmentError:
            continue
        accepted += 1
        s = simplify(f)
        if not any(isinstance(h, Forall) for h in subformulas(nnf(s))):
            assert g == s, format_formula(f)
            simplified += 1
    assert (simplified, accepted) == (want_simplified, want_accepted)


def test_pipeline_outputs_agree_with_generated_formulas_on_every_small_union():
    points = fs([0, 1, 2])
    dense = widened(points)
    pool = WitnessPool(points=dense, max_segments=len(dense))
    unions = list(enum_fcis(points, 3, True))
    accepted = checked = 0
    for f in _generated_formulas("pipeline-generated"):
        try:
            g = pipeline(f)
        except FragmentError:
            continue
        accepted += 1
        fcache, gcache = EvalCache(), EvalCache()
        for u in unions:
            want = eval_bounded(f, {"X": u}, pool, SIG_L, cache=fcache)
            assert eval_bounded(g, {"X": u}, pool, SIG_L, cache=gcache) == want, (format_formula(f), u)
            checked += 1
    assert (accepted, checked) == (196, 4116)


def _agree_on_every_small_union(f, g, sig) -> None:
    """``g``, read in ``sig``, means what the interval formula ``f`` means
    at every assignment of unions on three points to X and the other free
    variables of ``f``, as the generated checks read them; read in the
    finite-set signature, V stands for the coordinates Vl and Vr."""
    points = fs([0, 1, 2])
    dense = widened(points)
    pool = WitnessPool(points=dense, max_segments=len(dense), pair_points=points)
    names = sorted(free_vars(f) | {"X"})
    fcache, gcache = EvalCache(), EvalCache()
    for chosen in itertools.product(list(enum_fcis(points, 3, True)), repeat=len(names)):
        a = dict(zip(names, chosen))
        coords = a if sig is SIG_L else {k: c for v, u in a.items() for k, c in _coords(u, v + "l", v + "r").items()}
        want = eval_bounded(f, a, pool, SIG_L, cache=fcache)
        assert eval_bounded(g, coords, pool, sig, cache=gcache) == want, a


@pytest.mark.parametrize(
    "text, rewrite, sig, ceiling",
    [
        # a coordinatewise cap of variables finite values define
        ("cap(r(bot), max(X)) = cup(X, X)", lambda f: simplify(translate_L_to_W(f)), SIG_W, 7),
        # the variable among its own arguments: 95 nodes under its guard
        ("E Y. min(Y) = Y", lambda f: simplify(translate_L_to_W(f)), SIG_W, 20),
    ],
)
def test_pairs_their_blocks_force_finite_drop_their_guards(text, rewrite, sig, ceiling):
    f = parse(text, SIG_L)
    g = rewrite(f)
    assert count_nodes(g) <= ceiling
    _agree_on_every_small_union(f, g, sig)


@pytest.mark.parametrize(
    "text, calls",
    [
        # one block under a chain of three binders: 4 analyses while each
        # binder grew its block again
        ("E Y. E W. E Z. min(X) = Y & max(X) = W & cap(Y, W) = Z", 1),
        # bot is translated in place: 2 analyses while unnest bound it in a
        # block of its own, 5 before
        ("E Y. E W. min(X) = Y & max(X) = W & cap(Y, W) = bot", 1),
    ],
)
def test_l2w_analyses_each_block_once(monkeypatch, text, calls):
    seen = 0

    def counted(*args):
        nonlocal seen
        seen += 1
        return _grow_finite(*args)

    monkeypatch.setattr(transforms, "_grow_finite", counted)
    translate_L_to_W(parse(text, SIG_L))
    assert seen == calls


def test_coordinates_take_a_disjunct_that_folds_to_true():
    # the inner block forces Y finite, so its pair writes no guard and the
    # first disjunct folds to true; the template of the cap goes with it
    f = parse("E Y. (E Y. r(cap(Y, Y)) = Y) | cap(cz, X) = r(bot)", SIG_L)
    g = simplify(translate_L_to_W(f))
    assert g == TRUE
    _agree_on_every_small_union(f, g, SIG_W)


# -- the composed rewrite -----------------------------------------------------------


def test_pipeline_output_is_existential_interval_formula():
    for text in ["X = bot", "l(X) = r(X)", "!(X = bot)", "min(X) = max(X)"]:
        g = pipeline(parse(text, SIG_L))
        assert classify(g) in ("positive_existential", "existential", "quantifier_free")
        assert free_vars(g) == free_vars(parse(text, SIG_L))


def test_pipeline_preserves_meaning_on_hand_cases():
    cases = [
        ("!(X = bot)", lambda u: bool(u)),
        ("l(X) = r(X)", lambda u: u.is_finite_set()),
        ("max(X) = bot & !(X = bot)", lambda u: bool(u) and not u.max_set()),
        ("min(X) = cz | X = bot", lambda u: not u or u.min_set() == parse_fci("{0}")),
    ]
    family = list(enum_fcis(fs([0, 1]), 2, True))
    for text, pred in cases:
        g = pipeline(parse(text, SIG_L))
        for u in family:
            a = {"X": u}
            assert eval_bounded(g, a, default_pool(a), SIG_L) == pred(u), (text, u)


def test_pipeline_rejects_what_it_cannot_rewrite():
    # a universal whose coordinate form keeps its quantifier
    for text in PIPELINE_REJECTS:
        with pytest.raises(FragmentError):
            pipeline(parse(text, SIG_L))


_ON_Y = "universal quantifier on Y cannot be eliminated"
_REJECTIONS = [
    ("A Y. (Y sub X -> Y = X)", _ON_Y),
    ("A Y. cup(Y, cz) = cz", _ON_Y),
    ("!(E Y. !(Y = X))", _ON_Y),
    ("A Y. Y = X", _ON_Y),
    ("!(E Z. !(Z = X))", "universal quantifier on Z cannot be eliminated"),
    # the universal on Y is decided, so the one on Z is named
    ("(A Y. (l(Y) = l(X) & r(Y) = r(X) -> Y = X)) & (A Z. cup(Z, cz) = cz)", "universal quantifier on Z cannot be eliminated"),
]


@pytest.mark.parametrize("text, message", _REJECTIONS)
def test_pipeline_names_what_it_cannot_eliminate_in_the_input_s_terms(text, message):
    # the binder as the simplified input writes it, never a coordinate
    # (Yl, Tl) of the translation
    with pytest.raises(FragmentError) as err:
        pipeline(parse(text, SIG_L))
    assert str(err.value) == message


# inputs pipeline rejected while it sent every input through coordinates,
# with their outputs now: simplify leaves no quantifier, so pipeline has
# nothing to decide.  The last one the coordinate round trip rejected while
# its first simplify inlined no coordinate a term defines, which left a
# bound clause universal under the negation
_SIMPLIFIED_REJECTIONS = {
    "cup(X, Y) = Y": "cup(X, Y) = Y",
    "X = max(cup(X, Y))": "X = max(cup(X, Y))",
    "!(!(X = max(cup(X, Y))))": "X = max(cup(X, Y))",
    "!(X = max(cup(X, Y)) & X = Y)": "!(X = max(cup(X, Y)) & X = Y)",
    "!((E Y. Y = max(X)) & (bot = cup(X, X) & X = r(bot)))": "!(bot = X & X = bot)",
}


@pytest.mark.parametrize("text", sorted(_SIMPLIFIED_REJECTIONS))
def test_pipeline_takes_a_rejection_that_simplify_leaves_quantifier_free(text):
    f = parse(text, SIG_L)
    g = pipeline(f)
    assert g == simplify(f) == parse(_SIMPLIFIED_REJECTIONS[text], SIG_L)
    _agree_on_every_small_union(f, g, SIG_L)


def test_pipeline_checks_the_signature_before_it_simplifies():
    # ips(X, Y) = Z simplifies to itself, with no universal to send on
    with pytest.raises(FragmentError, match=r"^not an interval formula: uses \['ips'\]$"):
        pipeline(parse("ips(X, Y) = Z", SIG_W))


def test_the_pinned_rejections_cover_every_pipeline_reject():
    assert set(PIPELINE_REJECTS) <= {text for text, _ in _REJECTIONS}
    # the finite-set rewrites keep naming the binder as written
    with pytest.raises(FragmentError, match=f"^{_ON_Y}$"):
        to_positive_existential(parse("A Y. Y = X", SIG_W))


def test_l2w_walks_through_a_double_negation():
    # the atom's cup is bound outside both negations, not between them,
    # where negation normal form would make it universal
    f = parse("min(cup(min(X), cz)) = l(X)", SIG_L)
    twice = Not(Not(f))
    assert unnest(twice) == unnest(f)
    g = translate_L_to_W(twice)
    assert g == translate_L_to_W(f)
    assert not any(isinstance(h, Forall) for h in subformulas(nnf(g)))
    _agree_on_every_small_union(twice, simplify(g), SIG_W)


def test_pipeline_walks_through_a_double_negation():
    f = parse("min(cup(min(X), cz)) = l(X)", SIG_L)
    twice = Not(Not(f))
    g = pipeline(twice)
    assert g == pipeline(f)
    _agree_on_every_small_union(twice, g, SIG_L)


@pytest.mark.parametrize(
    "text",
    [
        # a pair whose right coordinate a term of X defines
        "E Y. r(Y) = r(X) & !(Y = X)",
        # a shadowed binder, the inner one forced finite
        "E Y. min(Y) = X & (E Y. l(Y) = r(Y) & cup(Y, X) = X)",
        # a universal under negation
        "!(A Y. !(min(Y) = X))",
        # coordinates defined only after negation normal form (no Y has
        # l(Y) = bot and a nonempty r(Y))
        "!(A Y. !(l(Y) = bot & r(Y) = r(X)))",
        # a variable simplify inlines away
        "E Y. cz = Y & min(X) = Y",
        # two bound variables, and one under a negated endpoint atom, left
        # or right
        "E Y. E W. l(W) = r(Y) & !(W = Y)",
        "E Y. !(l(Y) = r(X))",
        "E Y. !(r(Y) = l(X))",
    ],
)
def test_pipeline_keeps_bound_interval_variables(text):
    # simplify leaves each of these existential, so pipeline returns it in
    # interval syntax with its bound variables, never their coordinates
    f = parse(text, SIG_L)
    g = pipeline(f)
    assert g == simplify(f)
    assert not {v + c for v in bound_vars(f) for c in "lr"} & all_names(g)
    for u in enum_fcis(fs([0, 1, 2]), 2, True):
        a = {"X": u}
        pool = default_pool(a)
        assert eval_bounded(g, a, pool, SIG_L) == eval_bounded(f, a, pool, SIG_L), u


def test_pipeline_drops_the_guard_of_a_set_paired_with_itself():
    # the coordinatewise cup states Yl = Yr, as min(X) forces Y finite but
    # nothing forces its coordinates equal; simplify puts Yl for Yr, so Y's
    # guard becomes valid_pair(Yl, Yl), which holds outright: simplify
    # takes it to TRUE, as diff(min(Yl), Yl) is bot, so no guard is left
    f = parse("E Y. cup(Y, min(X)) = min(X) & !(Y = X)", SIG_L)
    assert simplify(valid_pair("Yl", "Yl")) == TRUE
    g = simplify(translate_L_to_W(f))
    assert bound_vars(g) == {"Yl"} and "diff" not in formula_symbols(g)
    # pipeline writes no guard at all: the input stays in interval syntax.
    # 50 nodes came back through the coordinate round trip, 58 with the
    # guard translated
    g = pipeline(f)
    assert count_nodes(g) <= count_nodes(f)
    for u in enum_fcis(fs([0, 1, 2]), 2, True):
        a = {"X": u}
        pool = default_pool(a)
        assert eval_bounded(g, a, pool, SIG_L) == eval_bounded(f, a, pool, SIG_L), u


@pytest.mark.parametrize(
    "text, ceiling",
    [
        # Y's guard would be that of X, which came back as l(X) and r(X):
        # 224 nodes translated
        ("E Y. Y = X", 3),
        ("E Y. E W. Y = X & W = Y", 3),
        # 233 and 236 nodes were X's guard translated
        ("E Y. Y = X & min(Y) = cz", 8),
        ("E Y. Y = X & !(Y = bot)", 11),
    ],
)
def test_pipeline_drops_a_guard_inlined_onto_a_kept_pair(text, ceiling):
    f = parse(text, SIG_L)
    g = pipeline(f)
    assert count_nodes(g) <= ceiling
    _agree_on_every_small_union(f, g, SIG_L)


def test_pipeline_takes_a_negated_containment():
    # simplify leaves no quantifier, so pipeline never sends it through
    # coordinates, where the output was too large for the solver
    f = parse("!(X sub Y)", SIG_L)
    g = pipeline(f)
    assert classify(g) == "quantifier_free"
    assert g == parse("!X sub Y", SIG_L)
    _agree_on_every_small_union(f, g, SIG_L)


# a universal that every pair of unions satisfies: its coordinate form
# simplifies to TRUE
_DECIDED_TRUE = "(A Y. (l(Y) = l(X) & r(Y) = r(X) -> Y = X))"
# inputs whose universal simplify keeps, with pipeline's output: each
# universal subformula is decided by its coordinate form, the rest stays
# in interval syntax
_DECISIONS = [
    (_DECIDED_TRUE, "bot = bot"),
    ("!(E Z. r(Z) = l(Z))", "cz = bot"),
    ("!(E Y. r(Y) = Y)", "cz = bot"),
    ("A Y. !cup(cz, Y) = bot", "bot = bot"),
    # an undecided universal beside a TRUE disjunct
    ("(A Y. cup(Y, X) = X) | (A Z. !cup(cz, Z) = bot)", "bot = bot"),
    # the outer universal keeps its quantifier in coordinates; the inner
    # one is FALSE, which leaves Y defined by a term and inlined
    ("!(E Y. Y = cup(X, cz) & (min(Y) = cz | (E W. l(W) = l(Y) & r(W) = r(Y) & !W = Y)))", "cz = bot"),
    # a coordinate form with no quantifier comes back on l(X) and r(X)
    ("!(E Y. bot = min(X) & Y = cap(Y, cz) & bot = l(Y))", "!bot = min(X)"),
    # Y's coordinatewise cup forces Yl = Yr, so its guard is valid_pair(F,
    # F), TRUE once simplify takes diff(min(F), F) to bot; refused before
    (
        "!(E Y. cup(cap(bot, cz), X) = r(Y) & cup(min(cz), Y) = cup(cz, cz) | (E Y. min(min(bot)) = l(cz)))"
        " | !l(X) = r(X) | !cup(cz, l(X)) = cz",
        "!(l(X) = r(X) & cup(cz, l(X)) = cz) | !l(X) = r(X) | !cup(cz, l(X)) = cz",
    ),
    # the one output that grows: the coordinate round trip took the whole
    # formula to TRUE, here the E over X1 stays
    (
        "(E X1. (A Y. !(l(Y) = l(X1) & r(Y) = r(X1)) | Y = X1) & l(X1) = r(X1)) | max(X) = bot",
        "(E X1. l(X1) = r(X1)) | max(X) = bot",
    ),
]


@pytest.mark.parametrize("text, out", _DECISIONS)
def test_pipeline_decides_each_universal_by_its_coordinate_form(text, out):
    f = parse(text, SIG_L)
    assert any(isinstance(h, Forall) for h in subformulas(nnf(simplify(f))))
    g = pipeline(f)
    assert format_formula(g) == out
    _agree_on_every_small_union(f, g, SIG_L)


def test_pipeline_takes_a_variable_equal_to_a_free_one_to_true():
    for text in ("E Y. Y = X", "E Y. E W. Y = X & W = Y"):
        assert pipeline(parse(text, SIG_L)) == TRUE, text


# each PIPELINE_CORPUS output's size when every bound interval variable
# came back as a coordinate pair under its translated validity guard
_PIPELINE_SIZE_CEILINGS = [9, 234, 379, 614, 18, 453, 1696, 687, 1025, 1723, 209]


def test_pipeline_outputs_stay_within_their_size_ceilings():
    sizes = [count_nodes(pipeline(parse(text, SIG_L))) for text in PIPELINE_CORPUS]
    assert len(sizes) == len(_PIPELINE_SIZE_CEILINGS)
    assert all(n <= ceiling for n, ceiling in zip(sizes, _PIPELINE_SIZE_CEILINGS)), sizes
    assert sum(sizes) <= 3675


# each simplified coordinate form's size when every existential pair kept
# its validity guard
_L2W_SIZE_CEILINGS = [7, 38, 8, 47, 14, 77, 232, 38, 138, 232, 11, 38, 7, 29, 6, 461, 469, 707, 138, 116, 3, 109, 167]


def test_pipeline_outputs_come_back_near_their_inputs_size():
    # 254 nodes against 99 while the endpoint maps came back unfolded, and
    # 119 while a variable a finite value defines stayed bound.  The
    # coordinate round trip alone gave 110
    sizes = [(count_nodes(f), count_nodes(pipeline(f))) for f in (parse(t, SIG_L) for t in PIPELINE_CORPUS)]
    nodes_in, nodes_out = map(sum, zip(*sizes))
    assert nodes_out <= nodes_in


def test_l2w_outputs_stay_within_their_size_ceilings():
    sizes = [count_nodes(simplify(translate_L_to_W(parse(text, SIG_L)))) for text in _L_TEXTS]
    assert len(sizes) == len(_L2W_SIZE_CEILINGS)
    assert all(n <= ceiling for n, ceiling in zip(sizes, _L2W_SIZE_CEILINGS)), sizes
    assert sum(sizes) <= 2176


def test_corpus_rewrite_outputs_stay_within_their_size_ceiling():
    # every corpus formula through its rewrites, summed as the rewrite
    # benchmark's output_nodes sums them: 5134 while l(V) = r(V) did not
    # make V finite, a lifted ips variable was relativized and simplify
    # had no absorption.  A bound clause's implications print as !a | b,
    # each one node larger: 4341 then, 4308 before simplify folded the
    # coordinate forms back by its interval laws, and posex left its
    # output unsimplified; 3556 while simplify inlined no variable a term
    # defines; 3323 while a cup or cap over sets not known to be finite
    # cost a universal bound clause and posex wrote its witness with diff.
    # Two L2W_CORPUS inputs pipeline takes since it sends only a universal
    # simplify keeps through coordinates are pinned apart
    newly = {"X sub Y": "X sub Y", "E W. cup(X, cz) = W & W = X": "cup(X, cz) = X"}
    total = 0
    for side, sig, texts in (("w", SIG_W, _W_TEXTS), ("l", SIG_L, _L_TEXTS)):
        for text in texts:
            outs = _rewrites(side, parse(text, sig))
            if text in newly:
                out = outs.pop()[0]
                assert out == parse(newly[text], SIG_L) and count_nodes(out) == 5, text
            total += sum(count_nodes(out) for out, _ in outs)
    assert total <= 2690


def test_simplify_keeps_meaning_while_shrinking():
    f = parse("E Y. Y = X & cup(Y, Y) = Y & !(Y = bot) | X = bot & X = bot", SIG_W)
    g = simplify(f)
    pool = fs([0, 1])
    for x in enum_finsets(pool):
        a = {"X": x}
        p = default_pool(a)
        assert eval_bounded(f, a, p, SIG_W) == eval_bounded(g, a, p, SIG_W), x


_A, _B = Var("A"), Var("B")
# each fold of _simp_term, as (term, what it folds to)
_TERM_FOLDS = [
    (cup(bot(), _A), _A),
    (cup(_A, bot()), _A),
    (cup(_A, _A), _A),
    (cap(bot(), _A), bot()),
    (cap(_A, bot()), bot()),
    (cap(_A, _A), _A),
    (ips_t(bot(), _A), bot()),
    (ips_t(_A, bot()), bot()),
    (ips_t(cz(), _A), bot()),
    (diff_t(_A, bot()), _A),
    (diff_t(bot(), _A), bot()),
    (diff_t(_A, _A), bot()),
    *[(App(op, (c,)), c) for op in ("min", "max", "l", "r") for c in (bot(), cz())],
    *[(App(op, (App(inner, (_A,)),)), App(inner, (_A,))) for op in ("min", "max") for inner in ("min", "max")],
    # absorption, in every argument order: the inner term when both
    # operations are one, else the shared argument
    *[
        (App(op, pair), inner if inner.op == op else _A)
        for op in ("cup", "cap")
        for inner in (App(k, args) for k in ("cup", "cap") for args in ((_A, _B), (_B, _A)))
        for pair in ((_A, inner), (inner, _A))
    ],
    # min(A) lies in A
    (diff_t(min_t(_A), _A), bot()),
    # a law's repeated variable binds equal subterms only
    (min_t(cup(l_t(_A), r_t(_B))), min_t(cup(l_t(_A), r_t(_B)))),
]


def _agree_in_both_structures(term: Term, folded: Term) -> None:
    """``term`` and ``folded`` take one value on every assignment of the
    variables of ``term`` over 4 points, in each structure whose signature
    has the term's operations."""
    points = fs(range(4))
    names = sorted(term_vars(term))
    for sig, values in ((SIG_W_DIFF, list(enum_finsets(points))), (SIG_L, list(enum_fcis(points, 4, True)))):
        if not term_symbols(term) <= sig.arities.keys():
            continue
        for chosen in itertools.product(values, repeat=len(names)):
            env = dict(zip(names, chosen))
            assert eval_term(term, env, sig) == eval_term(folded, env, sig), (sig.name, env)


@pytest.mark.parametrize("term, folded", _TERM_FOLDS, ids=str)
def test_each_term_fold_holds_in_both_structures(term, folded):
    assert _simp_term(term, {}) == folded
    _agree_in_both_structures(term, folded)


@pytest.mark.parametrize("law", _LAWS, ids=format_formula)
def test_each_interval_law_holds_in_both_structures(law):
    # a new entry of the table is checked here with no new test
    assert _simp_term(law.lhs, {}) == law.rhs
    _agree_in_both_structures(law.lhs, law.rhs)


@pytest.mark.parametrize("law", _LAWS, ids=format_formula)
def test_each_interval_law_is_well_formed(law):
    # read in the interval signature, it shrinks what it matches, so folding
    # ends, and it names no variable its pattern does not bind; _simp_term
    # reads the operation of the pattern's first argument
    assert parse(format_formula(law), SIG_L) == law
    assert isinstance(law.lhs, App) and isinstance(law.lhs.args[0], App)
    assert count_nodes(law.rhs) < count_nodes(law.lhs)
    assert term_vars(law.rhs) <= term_vars(law.lhs)


def test_each_finite_value_on_endpoint_maps_folds_back():
    # _FINITE_VALUED's term of l(T) and r(T) is op(T) again
    t = Var("T")
    for op, value_of in _FINITE_VALUED.items():
        args = (t,) * SIG_L.arities[op]
        assert _simp_term(value_of(*(c for _ in args for c in (l_t(t), r_t(t)))), {}) == App(op, args), op


# each connective fold of _simp, as (formula, what it folds to); bot = bot
# is TRUE and cz = bot FALSE
_FORMULA_FOLDS = [
    ("bot = bot & X = Y", "X = Y"),
    ("X = Y & cz = bot", "cz = bot"),
    ("X = Y | bot = bot", "bot = bot"),
    ("cz = bot | X = Y", "X = Y"),
    ("X = Y & X = Y", "X = Y"),
    ("!!X = Y", "X = Y"),
    ("!cz = bot", "bot = bot"),
    # an operand repeated at the head of the other side's chain
    ("X = Y & (X = Y & Y = cz)", "X = Y & Y = cz"),
    ("X = Y | (X = Y | Y = cz)", "X = Y | Y = cz"),
    # an operand against its own negation, in either order
    ("!X = Y | X = Y", "bot = bot"),
    ("X = Y | !X = Y", "bot = bot"),
    ("X = Y & !X = Y", "cz = bot"),
    ("!X = Y & X = Y", "cz = bot"),
]


@pytest.mark.parametrize("text, folded", _FORMULA_FOLDS)
def test_each_connective_fold_of_simplify(text, folded):
    assert simplify(parse(text, SIG_W)) == parse(folded, SIG_W)


def test_simplify_takes_a_tautology_under_a_universal_to_true():
    # the coordinate form ends !(Yl = Xl & Yr = Xr) | Yl = Xl & Yr = Xr, so
    # the universal goes and pipeline takes the formula
    f = parse("A Y. (l(Y) = l(X) & r(Y) = r(X) -> Y = X)", SIG_L)
    assert simplify(translate_L_to_W(f)) == TRUE
    assert pipeline(f) == TRUE


def test_simplify_reads_a_definition_below_a_chain_of_binders():
    # U = cz sits under V's binder; both binder orders give one output, with
    # V's definition by a term inlined too
    texts = ["E U. E V. U = cz & cup(U, X) = V & max(V) = X", "E V. E U. U = cz & cup(U, X) = V & max(V) = X"]
    forms = [parse(text, SIG_W) for text in texts]
    assert {simplify(f) for f in forms} == {parse("max(cup(cz, X)) = X", SIG_W)}


def test_simplify_puts_no_variable_of_the_chain_for_the_binder_above_it():
    # min(V) = U is U's only definition, and V has none: putting min(V) for
    # U would take V out of its own binder's scope
    f = parse("E U. E V. min(V) = U & cup(U, X) = cap(V, X)", SIG_W)
    assert simplify(f) == f
    # with the binders swapped, V is bound above U, and U is inlined
    g = parse("E V. E U. min(V) = U & cup(U, X) = cap(V, X)", SIG_W)
    assert simplify(g) == parse("E V. cup(min(V), X) = cap(V, X)", SIG_W)


_NAMES = ("X", "Y", "V")


def _formulas(sig):
    """Formulas over ``sig`` on a few names, with quantifiers that may
    shadow and definitional blocks ``E V. ... & V = t & ...``."""
    ops = [(op, n) for op, n in sig.symbols if n]
    terms = st.recursive(
        st.sampled_from([Var(v) for v in _NAMES] + [App(op) for op, n in sig.symbols if not n]),
        lambda sub: st.one_of(
            *[st.lists(sub, min_size=n, max_size=n).map(lambda args, op=op: App(op, tuple(args))) for op, n in ops]
        ),
        max_leaves=4,
    )
    names = st.sampled_from(_NAMES)
    return st.recursive(
        st.builds(Atomic, terms, terms),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(lambda a, b: Or(Not(a), b), sub, sub),
            st.builds(Exists, names, sub),
            st.builds(Forall, names, sub),
            st.builds(lambda v, t, a, b: Exists(v, and_all([a, Atomic(Var(v), t), b])), names, terms, sub, sub),
        ),
        max_leaves=8,
    )


@pytest.mark.parametrize("sig", [SIG_W_DIFF, SIG_L], ids=["w", "l"])
@given(data=st.data())
def test_simplify_is_idempotent(sig, data):
    once = simplify(data.draw(_formulas(sig)))
    assert simplify(once) is once


def test_simplify_never_grows_a_formula():
    # every corpus formula, the interval draws, as many finite-set draws,
    # and the coordinate forms of the interval draws, where most
    # definitions by a term are met
    rng = random.Random("simplify-size")
    draws = _generated_formulas("l2w-generated") + _generated_formulas("pipeline-generated")
    forms = [parse(text, SIG_L) for text in _L_TEXTS] + [parse(text, SIG_W) for text in _W_TEXTS] + draws
    forms += [generated_formula(rng, 3, ("X",), FINITE_SET_OPS) for _ in range(200)]
    forms += [translate_L_to_W(f) for f in draws]
    for f in forms:
        assert count_nodes(simplify(f)) <= count_nodes(f), format_formula(f)


def _ips_chain(n: int) -> Term:
    """ips(Y, ips(Y, ... Y)), a term that simplify leaves alone, with n
    occurrences of Y."""
    t = Var("Y")
    for _ in range(n - 1):
        t = ips_t(Var("Y"), t)
    return t


@pytest.mark.parametrize(
    "t, most",
    [
        # |t| = 1: any number of occurrences
        (Var("W"), None),
        # each occurrence grows by |t| - 1, and X = t, E Y and & free |t| + 4
        (min_t(Var("X")), 6),
        (cup(min_t(Var("X")), cz()), 2),
    ],
    ids=str,
)
def test_simplify_inlines_a_term_only_where_the_block_does_not_grow(t, most):
    for n in range(1, (most or 20) + 2):
        f = Exists("Y", And(Atomic(t, Var("Y")), Atomic(_ips_chain(n), Var("Z"))))
        g = simplify(f)
        assert (g == substitute(f.body.rhs, {"Y": t})) == (most is None or n <= most), n
        assert count_nodes(g) <= count_nodes(f)


def test_suite_registry_names():
    assert set(SUITES) == {
        "notbot",
        "ipschar",
        "endpoints",
        "posex",
        "member",
        "subset",
        "w2l",
        "l2w",
        "pipeline",
    }


# -- coordinate templates ----------------------------------------------------------


def test_coordinate_templates_take_their_variables():
    v = {n: Var(n) for n in ("Al", "Ar", "Bl", "Br", "P")}
    assert phi_subseteq(v["Al"], v["Ar"], v["Bl"], v["Br"]) == substitute(
        phi_subseteq(), {"Xl": v["Al"], "Xr": v["Ar"], "Yl": v["Bl"], "Yr": v["Br"]}
    )
    assert phi_in(v["Al"], v["Ar"], v["P"]) == substitute(phi_in(), {"Xl": v["Al"], "Xr": v["Ar"], "Z": v["P"]})
    assert delta_domain(v["Al"], v["Ar"]) == substitute(delta_domain(), {"B": v["Al"], "C": v["Ar"]})
    assert free_vars(phi_subseteq()) == {"Xl", "Xr", "Yl", "Yr"}


def test_coordinate_templates_are_quantifier_free():
    # no negation either, so classify puts them in its first class
    for f in (phi_in(), phi_subseteq()):
        assert classify(f) == "positive_existential"
        assert not any(isinstance(g, (Exists, Forall)) for g in subformulas(f))


def test_endpoint_pair_guards_agree_with_the_kernels():
    # every pair of subsets of 6 points: valid_pair holds exactly on the
    # endpoint pairs of unions, the empty one included, and delta_domain
    # on those of nonempty unions
    sets = list(enum_finsets(fs(range(6))))
    guard, nonempty = valid_pair("Bl", "Br"), delta_domain()
    for b in sets:
        for c in sets:
            valid = cells.apply(cells.from_endpoints, b, c)[1] is not None
            assert eval_qf(guard, {"Bl": b, "Br": c}, SIG_W_DIFF) is valid, (b, c)
            assert eval_qf(nonempty, {"B": b, "C": c}, SIG_W_DIFF) is (valid and bool(b)), (b, c)


def _coords(u, l="Xl", r="Xr"):
    return {l: u.left_endpoints(), r: u.right_endpoints()}


def test_phi_in_and_disjointness_agree_with_the_kernels():
    # every union on 4 points against every finite set on their widened grid
    points = fs(range(4))
    finsets = list(enum_finsets(widened(points)))
    member, misses = phi_in(), _misses(Var("Xl"), Var("Xr"), Var("Z"))
    for u in enum_fcis(points, 4, True):
        for z in finsets:
            a = {**_coords(u), "Z": z}
            inside = [u.contains(p) for p in z.elements]
            assert eval_qf(member, a, SIG_W) == all(inside), (u, z)
            assert eval_qf(misses, a, SIG_W) == (not any(inside)), (u, z)


def test_phi_subseteq_agrees_with_the_kernels_on_seeded_pairs():
    rng = random.Random("phi_subseteq")
    unions = list(enum_fcis(fs(range(8)), 8, True))
    f = phi_subseteq()
    verdicts = set()
    for i in range(3000):
        x, y = rng.choice(unions), rng.choice(unions)
        if i % 2:
            y = x.union(y)  # half the pairs hold, so both verdicts occur
        want = x.issubset(y)
        verdicts.add(want)
        assert eval_qf(f, {**_coords(x), **_coords(y, "Yl", "Yr")}, SIG_W) == want, (x, y)
    assert verdicts == {True, False}


# -- printed outputs, pinned ----------------------------------------------------------

_L_TEXTS = list(PIPELINE_CORPUS) + [t for t, _ in L2W_CORPUS]
_W_TEXTS = list(POSEX_CORPUS) + list(W2L_CORPUS)
_REWRITES = {
    "pipeline": (pipeline, SIG_L, _L_TEXTS),
    "simplify-l2w": (lambda f: simplify(translate_L_to_W(f)), SIG_L, _L_TEXTS),
    "posex": (to_positive_existential, SIG_W, _W_TEXTS),
    "simplify-w2l": (lambda f: simplify(translate_W_to_L(f)), SIG_W, _W_TEXTS),
}
# (outputs, SHA-256 of the lines "input TAB output"), inputs the rewrite
# refuses left out: a change to any printed output must update these on purpose
REWRITE_DIGESTS = {
    "pipeline": (23, "f7f265ed988351a1d3a40d927db2b90c8de96711953eda1734a43b7c7b2d02d9"),
    "simplify-l2w": (23, "5dea728fa57f2c4af7c145b906d8974b919e559cf36980c4dc2dfeada7bc9cfc"),
    "posex": (23, "3deed7f9fdcf083536316056ab9ecc8b5f3c6a38e8e93cead8bc1386b83a1433"),
    "simplify-w2l": (23, "b14db5a8cfe07bbc0e3f64262efada1038f2d9cadf4f4fc31b65300674eb5113"),
}


@pytest.mark.parametrize("name", sorted(_REWRITES))
def test_corpus_rewrite_outputs_are_pinned(name):
    rewrite, sig, texts = _REWRITES[name]
    lines = []
    for text in texts:
        try:
            lines.append(f"{text}\t{format_formula(rewrite(parse(text, sig)))}\n")
        except FragmentError:
            continue
    assert (len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()) == REWRITE_DIGESTS[name]


# -- printed outputs of seeded compositions, pinned -----------------------------------


def _compose(rng: random.Random, texts: list, sig, parts: int) -> str:
    """``parts`` corpus formulas joined by ``&`` and ``|``, each join maybe
    negated or closed by ``E`` over one of its free names, so binders meet
    the corpora's own binders and free names."""
    picked = [rng.choice(texts) for _ in range(parts)]
    text, free = picked[0], set(free_vars(parse(picked[0], sig)))
    for t in picked[1:]:
        text, free = f"({text}) {rng.choice('&|')} ({t})", free | free_vars(parse(t, sig))
        wrap = rng.random()
        if wrap < 0.2:
            text = f"!({text})"
        elif wrap < 0.5 and free:
            v = rng.choice(sorted(free))
            text, free = f"E {v}. ({text})", free - {v}
    return text


def _rewrites(side: str, f):
    """Each rewrite of ``f`` with the signature its output prints in; an
    input the rewrite refuses gives no output."""
    if side == "l":
        outs = [(simplify(translate_L_to_W(f)), SIG_W_DIFF)]
        try:
            outs.append((pipeline(f), SIG_L))
        except FragmentError:
            pass
        return outs
    try:
        p = to_positive_existential(f)
    except FragmentError:
        return []
    return [(p, SIG_W), (simplify(translate_W_to_L(p)), SIG_L)]


# (outputs, SHA-256 of the lines "input TAB output TAB simplified TAB reparsed")
COMPOSITION_DIGEST = (36, "4fbfb05ea2a69d1512d289b701659643cc469ae77175b0e7d0b4df04ed7d774b")


def _composition_outputs():
    """(input text, output, output signature) for each rewrite of the
    seeded compositions."""
    rng = random.Random("compositions/1")
    for side, sig, texts in (("w", SIG_W, _W_TEXTS), ("l", SIG_L, _L_TEXTS)):
        for parts in (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6):
            text = _compose(rng, texts, sig, parts)
            for out, out_sig in _rewrites(side, parse(text, sig)):
                yield text, out, out_sig


# (accepted outputs, SHA-256 of the lines "input TAB output") of pipeline
# on the pipeline-generated formulas
GENERATED_DIGEST = (196, "a3de79a9a81ed8c12eb5d6d1e20798efb9eb227017bd4bcd325cbfefcd9d182b")


# (draws, SHA-256 of the lines "input TAB output") of the simplified
# coordinate form of both generated draws as drawn; parsing would rename
# apart the names some of them bind twice
RAW_GENERATED_DIGEST = (400, "4ee29d823d2646994b2a90145b2111bb4d6659b888445f21e034d2b42cfc59f8")


def test_l2w_outputs_on_generated_formulas_that_bind_a_name_twice_are_pinned():
    lines = []
    for seed in ("l2w-generated", "pipeline-generated"):
        for f in _generated_formulas(seed):
            lines.append(f"{format_formula(f)}\t{format_formula(simplify(translate_L_to_W(f)))}\n")
    assert (len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()) == RAW_GENERATED_DIGEST


# the pipeline-generated inputs accepted since term folding drops a binder
# it empties; pipeline rejected each while that binder kept its pair
_ACCEPTED_ONCE_EMPTIED_BINDERS_DROP = {
    "!(E Y. E Z. r(cap(bot, Z)) = Y)",
    "!(E Y. E Y. Y = X)",
    "!(r(bot) = bot & (E Z. l(cap(bot, cz)) = min(X)))",
    "!(E Y. max(cup(X, bot)) = l(X) | cz = cap(X, bot))",
    "!min(bot) = bot | (E Z. l(l(X)) = l(X)) | (E Y. min(cup(cz, Y)) = r(X))",
    "!(E Z. cz = r(cz))",
    "!(E Z. !l(cup(X, X)) = X)",
    "min(X) = max(X) & !(E Z. cz = cz)",
}


def test_generated_pipeline_outputs_are_pinned():
    lines, nodes, newly = [], 0, []
    for f in _generated_formulas("pipeline-generated"):
        try:
            g = pipeline(f)
        except FragmentError:
            continue
        text = format_formula(f)
        lines.append(f"{text}\t{format_formula(g)}\n")
        if text in _ACCEPTED_ONCE_EMPTIED_BINDERS_DROP:
            newly.append(count_nodes(g))
        else:
            nodes += count_nodes(g)
    assert (len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()) == GENERATED_DIGEST
    assert len(newly) == len(_ACCEPTED_ONCE_EMPTIED_BINDERS_DROP) and sum(newly) <= 42
    # 7306 over 161 outputs while pipeline sent every input through
    # coordinates; the 27 inputs it has taken since have no universal
    # once simplified
    assert nodes <= 1045


def test_composition_rewrite_outputs_are_pinned():
    lines = []
    for text, out, out_sig in _composition_outputs():
        printed = format_formula(out)
        back = parse(printed, out_sig)
        assert back == rename_bound_apart(out)
        fields = [text, printed, format_formula(simplify(out)), format_formula(back)]
        lines.append("\t".join(fields) + "\n")
    assert (len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()) == COMPOSITION_DIGEST


def test_rewrite_outputs_bind_each_name_once():
    # every binder a rewrite writes has a name of its own, so reading an
    # output back renames nothing
    outs = [out for _, out, _ in _composition_outputs()]
    for rewrite, sig, texts in _REWRITES.values():
        for text in texts:
            try:
                outs.append(rewrite(parse(text, sig)))
            except FragmentError:
                continue
    for out in outs:
        assert rename_bound_apart(out) is out, format_formula(out)


# -- nesting limits -------------------------------------------------------------------


def _on_fresh_stack(fn):
    """``fn()`` on a new thread at the default recursion limit of 1000.  A
    thread's stack starts empty, so the nesting reached does not depend on
    how deep the test runner calls the test."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with ThreadPoolExecutor(1) as pool:
            return pool.submit(fn).result(timeout=120)
    finally:
        sys.setrecursionlimit(limit)


def _chain(n: int) -> str:
    return " & ".join(["min(X) = X"] * n)


def test_simplify_takes_a_chain_of_490_conjuncts():
    got = _on_fresh_stack(lambda: simplify(parse(_chain(490), SIG_W)))
    assert got == parse("min(X) = X", SIG_W)


# simplify collapses the chain to one conjunct, so the chains of distinct
# conjuncts below pin the depths the translation and the decision reach
def test_pipeline_takes_a_chain_of_conjuncts():
    got = _on_fresh_stack(lambda: format_formula(pipeline(parse(_chain(986), SIG_L))))
    assert got == format_formula(pipeline(parse("min(X) = X", SIG_L)))


def _distinct_chain(n: int) -> str:
    return " & ".join(f"min(X{i}) = X{i}" for i in range(n))


# each depth must not fall: simplify leaves a chain of distinct conjuncts
# as it is, so it reaches translate_L_to_W whole
def test_l2w_takes_a_chain_of_distinct_conjuncts():
    def names():
        g = translate_L_to_W(parse(_distinct_chain(491), SIG_L))
        format_formula(g)
        return free_vars(g)

    assert _on_fresh_stack(names) == {f"X{i}{end}" for i in range(491) for end in "lr"}


def test_pipeline_decides_a_universal_before_a_chain_of_distinct_conjuncts():
    # 486 also while the coordinate round trip took the whole formula
    depth = 486

    def printed():
        return format_formula(pipeline(parse(f"{_DECIDED_TRUE} & {_distinct_chain(depth)}", SIG_L)))

    assert _on_fresh_stack(printed) == _distinct_chain(depth)


# each shape of nesting with a depth parse must reach at the default
# recursion limit and the number of subformulas it parses to; a change may
# raise these depths but must not lower them
_PARSE_NESTING = {
    "parentheses": (5000, lambda n: "(" * n + "X = bot" + ")" * n, lambda n: 1),
    "negations": (5000, lambda n: "!" * n + "X = bot", lambda n: n + 1),
    "quantifiers": (5000, lambda n: "".join(f"E X{i}. " for i in range(n)) + "X = bot", lambda n: n + 1),
    "conjuncts": (5000, lambda n: " & ".join(["X = bot"] * n), lambda n: 2 * n - 1),
}


@pytest.mark.parametrize("shape", sorted(_PARSE_NESTING))
def test_parse_reaches_its_nesting_depth(shape):
    depth, text, size = _PARSE_NESTING[shape]
    f = _on_fresh_stack(lambda: parse(text(depth), SIG_W))
    assert sum(1 for _ in subformulas(f)) == size(depth)
