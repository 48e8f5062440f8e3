"""Formula layer: parsing, printing, classification, and unnesting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intlat.syntax import (
    SIG_L,
    SIG_W,
    And,
    Atomic,
    App,
    Exists,
    Forall,
    FreshNames,
    Implies,
    Not,
    Or,
    ParseError,
    Var,
    all_names,
    classify,
    format_formula,
    free_vars,
    is_unnested,
    is_unnested_atom,
    nnf,
    parse,
    rename_bound_apart,
    subformulas,
    substitute,
    term_vars,
    unnest,
)

W_TEXTS = [
    "X = bot",
    "min(X) = cz",
    "cup(X, Y) = cap(Y, X)",
    "ips(X, Y) = Z",
    "min(X) = cz & !X = bot",
    "X = bot | Y = bot",
    "E Y. ips(X, Y) = Y",
    "A Y. (Y sub X -> Y = X)",
    "E Y. A Z. (cap(Y, Z) = bot -> Z = bot)",
    "max(cup(X, cz)) = min(X)",
]

L_TEXTS = [
    "l(X) = r(X)",
    "min(X) = max(X)",
    "X sub Y",
    "E Y. l(Y) = r(Y) & cup(Y, cz) = Y",
    "!(X = bot) & r(X) = cz",
]


@pytest.mark.parametrize("text", W_TEXTS)
def test_print_parse_round_trip_w(text):
    f = parse(text, SIG_W)
    assert parse(format_formula(f), SIG_W) == f


@pytest.mark.parametrize("text", L_TEXTS)
def test_print_parse_round_trip_l(text):
    f = parse(text, SIG_L)
    assert parse(format_formula(f), SIG_L) == f


def test_subset_sugar_prints_back_as_sugar():
    f = parse("X sub Y", SIG_W)
    assert f == Atomic(App("cap", (Var("X"), Var("Y"))), Var("X"))
    assert format_formula(f) == "X sub Y"


def test_negated_atom_prints_without_parens():
    f = parse("!(X = bot)", SIG_W)
    assert format_formula(f) == "!X = bot"
    assert parse("!X = bot", SIG_W) == f


def test_precedence_and_is_tighter_than_or():
    f = parse("X = bot & Y = bot | Z = bot", SIG_W)
    assert isinstance(f, Or) and isinstance(f.lhs, And)
    g = parse("X = bot | Y = bot & Z = bot", SIG_W)
    assert isinstance(g, Or) and isinstance(g.rhs, And)


def test_quantifier_scope_extends_right():
    f = parse("E Y. Y = X & Y = bot", SIG_W)
    assert isinstance(f, Exists) and isinstance(f.body, And)


def test_signatures_reject_each_others_symbols():
    with pytest.raises(ParseError):
        parse("l(X) = r(X)", SIG_W)
    with pytest.raises(ParseError):
        parse("ips(X, Y) = Z", SIG_L)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as ei:
        parse("min(X", SIG_W)
    assert ei.value.position == 5
    with pytest.raises(ParseError) as ei:
        parse("cup(X Y) = Z", SIG_W)
    assert ei.value.position == 6
    with pytest.raises(ParseError) as ei:
        parse("min() = cz", SIG_W)
    assert ei.value.position > 0


def test_unexpected_character_position_counts_leading_blanks():
    for text, at in [("X = bot $", 8), ("  $", 2), ("X = bot\t-", 8), ("E 1X. X = bot", 2)]:
        with pytest.raises(ParseError) as ei:
            parse(text, SIG_W)
        assert ei.value.position == at, text
        assert "unexpected character" in str(ei.value)
    # a bad character is reported even after an earlier syntax error
    with pytest.raises(ParseError) as ei:
        parse("cup(X Y) = $", SIG_W)
    assert ei.value.position == 11


def test_arity_is_enforced():
    with pytest.raises(ParseError):
        parse("cup(X) = Y", SIG_W)
    with pytest.raises(ParseError):
        parse("min(X, Y) = Z", SIG_W)


def test_classify_by_quantifier_shape():
    # positive_existential takes precedence: a negation-free atom is both
    assert classify(parse("X = bot", SIG_W)) == "positive_existential"
    assert classify(parse("min(X) = cz & !X = bot", SIG_W)) == "quantifier_free"
    assert classify(parse("E Y. Y = X", SIG_W)) == "positive_existential"
    assert classify(parse("E Y. !(Y = X)", SIG_W)) == "existential"
    assert classify(parse("A Y. Y = X", SIG_W)) == "other"
    assert classify(parse("E Y. (Y = X -> Y = bot)", SIG_W)) == "existential"
    assert classify(parse("!(E Y. Y = X)", SIG_W)) == "other"


def test_free_vars_respect_binders():
    f = parse("E Y. cap(X, Y) = Z", SIG_W)
    assert free_vars(f) == {"X", "Z"}


def test_free_vars_are_cached_frozensets():
    f = parse("E Y. cap(X, Y) = Z & (A W. W = Y)", SIG_W)
    got = free_vars(f)
    assert isinstance(got, frozenset) and got == {"X", "Z"}
    assert free_vars(f) is got
    # a part whose set already holds the other's lends it to the parent
    g = parse("cap(X, Y) = Z & X = bot", SIG_W)
    assert free_vars(g) is free_vars(g.lhs)


def test_all_names_are_the_free_and_the_bound():
    f = parse("E Y. cap(X, Y) = Z & (A W. W = Y) | (E V. X = bot)", SIG_W)
    assert all_names(f) == {"X", "Y", "Z", "W", "V"}


def test_substitute_avoids_capture():
    f = Exists("Y", Atomic(App("cup", (Var("X"), Var("Y"))), Var("Y")))
    g = substitute(f, {"X": Var("Y")})
    assert isinstance(g, Exists) and g.var != "Y"
    assert free_vars(g) == {"Y"}


def test_substitute_returns_untouched_parts_as_they_are():
    f = parse("E Y. cap(X, Y) = Z & min(W) = X", SIG_W)
    # no key is free and no binder is a variable of a value
    assert substitute(f, {"V": Var("U")}) is f
    assert substitute(f, {"Y": Var("U")}) is f
    g = substitute(f, {"W": Var("U")})
    assert format_formula(g) == "E Y. cap(X, Y) = Z & min(U) = X"
    assert g.body.lhs is f.body.lhs
    # a binder that is a variable of a value is still renamed, even where
    # no key is free below it, exactly as without the shortcut
    h = substitute(f, {"V": Var("Y")})
    assert format_formula(h) == "E Y1. cap(X, Y1) = Z & min(W) = X"


def test_rename_bound_apart_keeps_a_formula_already_renamed_apart():
    f = Exists("Y", And(Atomic(Var("Y"), Var("X")), Forall("W", Atomic(Var("W"), App("bot")))))
    assert rename_bound_apart(f) is f
    g = And(f, Exists("Y", Atomic(Var("Y"), App("cz"))))
    h = rename_bound_apart(g)
    assert h.lhs is f and format_formula(h.rhs) == "E Y1. Y1 = cz"


def test_rename_bound_apart_gives_distinct_binders():
    f = parse("E Y. Y = X & (E Y. Y = bot)", SIG_W)
    g = rename_bound_apart(f)

    def binders(h):
        if isinstance(h, (Exists, Forall)):
            return [h.var] + binders(h.body)
        if isinstance(h, (And, Or)):
            return binders(h.lhs) + binders(h.rhs)
        if isinstance(h, Not):
            return binders(h.body)
        return []

    bs = binders(g)
    assert len(bs) == len(set(bs))


def test_nnf_pushes_negations_to_atoms():
    f = parse("!(X = bot & (E Y. Y = X))", SIG_W)
    g = nnf(f)
    assert isinstance(g, Or) and isinstance(g.rhs, Forall)
    assert format_formula(nnf(parse("!!X = bot", SIG_W))) == "X = bot"


def test_unnest_flattens_compound_terms():
    f = parse("min(cup(X, Y)) = cz", SIG_W)
    g = unnest(f)
    assert is_unnested(g)
    assert not is_unnested_atom(f)


def test_unnest_keeps_already_flat_formulas_flat():
    f = parse("cup(X, Y) = Z", SIG_W)
    assert is_unnested(f)
    assert is_unnested(unnest(f))


@pytest.mark.parametrize("text", W_TEXTS)
def test_unnest_output_is_always_flat(text):
    assert is_unnested(unnest(parse(text, SIG_W)))


# -- substitution against its unpruned form ------------------------------------------


def _substitute_term_unpruned(t, mapping):
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    return App(t.op, tuple(_substitute_term_unpruned(a, mapping) for a in t.args))


def _all_names_walked(f):
    out = set()
    for g in subformulas(f):
        if isinstance(g, Atomic):
            out |= term_vars(g.lhs) | term_vars(g.rhs)
        elif isinstance(g, (Exists, Forall)):
            out.add(g.var)
    return out


def _substitute_unpruned(f, mapping):
    """Substitution that walks every part: each binder that is a variable
    of a value in scope is renamed, whether or not a key is free below it."""
    if isinstance(f, Atomic):
        return Atomic(_substitute_term_unpruned(f.lhs, mapping), _substitute_term_unpruned(f.rhs, mapping))
    if isinstance(f, Not):
        return Not(_substitute_unpruned(f.body, mapping))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(_substitute_unpruned(f.lhs, mapping), _substitute_unpruned(f.rhs, mapping))
    live = {k: v for k, v in mapping.items() if k != f.var}
    if not live:
        return f
    var, body = f.var, f.body
    values = {n for v in live.values() for n in term_vars(v)}
    if f.var in values:
        var = FreshNames(_all_names_walked(f) | values | set(live)).fresh(f.var)
        body = _substitute_unpruned(body, {f.var: Var(var)})
    return type(f)(var, _substitute_unpruned(body, live))


# few names, so binders often shadow each other and meet the values' variables;
# the key W never occurs in a formula, so it is never free
_SUB_NAMES = ("X", "Y", "Z")
_sub_terms = st.recursive(
    st.sampled_from([Var(v) for v in _SUB_NAMES] + [App("bot")]),
    lambda sub: st.one_of(
        st.builds(lambda a, b: App("cup", (a, b)), sub, sub),
        st.builds(lambda a: App("min", (a,)), sub),
    ),
    max_leaves=3,
)
_sub_formulas = st.recursive(
    st.builds(Atomic, _sub_terms, _sub_terms),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Exists, st.sampled_from(_SUB_NAMES), sub),
        st.builds(Forall, st.sampled_from(_SUB_NAMES), sub),
    ),
    max_leaves=6,
)


@given(_sub_formulas, st.dictionaries(st.sampled_from(_SUB_NAMES + ("W",)), _sub_terms, min_size=1, max_size=2))
def test_substitute_agrees_with_unpruned_substitution(f, mapping):
    assert substitute(f, mapping) == _substitute_unpruned(f, mapping)
    assert all_names(f) == _all_names_walked(f)
