"""Formula layer: parsing, printing, classification, and unnesting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intlat import syntax
from intlat.syntax import (
    SIG_L,
    SIG_W,
    And,
    Atomic,
    App,
    Exists,
    Forall,
    FreshNames,
    Not,
    Or,
    ParseError,
    Var,
    all_names,
    classify,
    count_nodes,
    format_formula,
    free_vars,
    is_unnested_atom,
    nnf,
    parse,
    rename_bound_apart,
    subformulas,
    substitute,
    subterms,
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


# each implication as the parser reads it: ! on the left operand, grouped
# to the right, and looser than & and |
IMPLICATIONS = [
    ("X = bot -> Y = bot", "!X = bot | Y = bot"),
    ("X = bot -> Y = bot -> Z = bot", "!X = bot | (!Y = bot | Z = bot)"),
    ("(X = bot -> Y = bot) -> Z = bot", "!(!X = bot | Y = bot) | Z = bot"),
    ("X = bot | Y = bot -> Z = bot", "!(X = bot | Y = bot) | Z = bot"),
    ("X = bot & Y = bot -> Z = bot", "!(X = bot & Y = bot) | Z = bot"),
    ("X = bot -> Y = bot | Z = bot", "!X = bot | (Y = bot | Z = bot)"),
    ("!X = bot -> E Y. Y = X -> Y = bot", "!!X = bot | (E Y. !Y = X | Y = bot)"),
]


@pytest.mark.parametrize("text, sugar_free", IMPLICATIONS)
def test_implication_is_read_as_not_a_or_b(text, sugar_free):
    f = parse(text, SIG_W)
    assert f == parse(sugar_free, SIG_W)
    printed = format_formula(f)
    assert "->" not in printed and parse(printed, SIG_W) == f


# (signature, text, position, message) of each kind of parse error: an
# unexpected character (found before any other error), a missing ')' or '(',
# trailing input, an unknown symbol, a wrong arity, a lowercase quantified
# variable, a missing '=' or 'sub', and a missing term, at end of input too
PARSE_ERRORS = [
    (SIG_W, "X = bot $", 8, "unexpected character '$' (at position 8)"),
    (SIG_W, "  $", 2, "unexpected character '$' (at position 2)"),
    (SIG_W, "X = bot\t-", 8, "unexpected character '-' (at position 8)"),
    (SIG_W, "E 1X. X = bot", 2, "unexpected character '1' (at position 2)"),
    (SIG_W, "cup(X Y) = $", 11, "unexpected character '$' (at position 11)"),
    (SIG_W, "_X = bot", 0, "unexpected character '_' (at position 0)"),
    (SIG_W, "X = bot > Y = bot", 8, "unexpected character '>' (at position 8)"),
    (SIG_W, "X = bot - > Y = bot", 8, "unexpected character '-' (at position 8)"),
    (SIG_W, "É = bot", 0, "unexpected character 'É' (at position 0)"),
    (SIG_W, "min(X) = 2", 9, "unexpected character '2' (at position 9)"),
    (SIG_W, "(X = bot) #", 10, "unexpected character '#' (at position 10)"),
    (SIG_W, "X = bot & (Y = bot", 18, "expected ')', found 'end of input' (at position 18)"),
    (SIG_W, "min(X", 5, "expected ')', found 'end of input' (at position 5)"),
    (SIG_W, "cup(X Y) = Z", 6, "expected ')', found 'Y' (at position 6)"),
    (SIG_W, "(X = bot", 8, "expected ')', found 'end of input' (at position 8)"),
    (SIG_W, "(X = bot Y = bot)", 9, "expected ')', found 'Y' (at position 9)"),
    (SIG_W, "((X = bot) & Y = bot", 20, "expected ')', found 'end of input' (at position 20)"),
    (SIG_W, "(E Y. Y = X Z)", 12, "expected ')', found 'Z' (at position 12)"),
    (SIG_W, "cup X = Y", 4, "expected '(', found 'X' (at position 4)"),
    (SIG_W, "cup(X, Y = Z", 9, "expected ')', found '=' (at position 9)"),
    (SIG_W, "min(X, Y", 8, "expected ')', found 'end of input' (at position 8)"),
    (SIG_W, "X = bot Y", 8, "trailing input starting at 'Y' (at position 8)"),
    (SIG_W, "X = bot)", 7, "trailing input starting at ')' (at position 7)"),
    (SIG_W, "E Y. Y = X) & Z = bot", 10, "trailing input starting at ')' (at position 10)"),
    (SIG_W, "X = Y = Z", 6, "trailing input starting at '=' (at position 6)"),
    (SIG_W, "X sub Y sub Z", 8, "trailing input starting at 'sub' (at position 8)"),
    (SIG_W, "X = bot ! Y = bot", 8, "trailing input starting at '!' (at position 8)"),
    (SIG_W, "foo(X) = Y", 0, "unknown symbol 'foo' in signature w (at position 0)"),
    (SIG_W, "l(X) = r(X)", 0, "unknown symbol 'l' in signature w (at position 0)"),
    (SIG_L, "ips(X, Y) = Z", 0, "unknown symbol 'ips' in signature l (at position 0)"),
    (SIG_W, "x = bot", 0, "unknown symbol 'x' in signature w (at position 0)"),
    (SIG_L, "X = cap(x, Y)", 8, "unknown symbol 'x' in signature l (at position 8)"),
    (SIG_W, "diff(X, Y) = Z", 0, "unknown symbol 'diff' in signature w (at position 0)"),
    (SIG_W, "E Y. subs = Y", 5, "unknown symbol 'subs' in signature w (at position 5)"),
    (SIG_W, "cup(X) = Y", 0, "cup takes 2 argument(s), got 1 (at position 0)"),
    (SIG_W, "min(X, Y) = Z", 0, "min takes 1 argument(s), got 2 (at position 0)"),
    (SIG_L, "l(X, Y) = Z", 0, "l takes 1 argument(s), got 2 (at position 0)"),
    (SIG_W, "X = cap(X, Y, Z)", 4, "cap takes 2 argument(s), got 3 (at position 4)"),
    (SIG_W, "E x. x = bot", 2, "quantified variable must be capitalized, got 'x' (at position 2)"),
    (SIG_L, "A bot. X = bot", 2, "quantified variable must be capitalized, got 'bot' (at position 2)"),
    (SIG_W, "X = bot & E y. y = X", 12, "quantified variable must be capitalized, got 'y' (at position 12)"),
    (SIG_W, "X", 1, "expected '=' or 'sub' after a term, found 'end of input' (at position 1)"),
    (SIG_W, "min(X) cz", 7, "expected '=' or 'sub' after a term, found 'cz' (at position 7)"),
    (SIG_W, "X & Y = bot", 2, "expected '=' or 'sub' after a term, found '&' (at position 2)"),
    (SIG_W, "bot(X) = Y", 3, "expected '=' or 'sub' after a term, found '(' (at position 3)"),
    (SIG_W, "E X = bot", 2, "expected '=' or 'sub' after a term, found 'X' (at position 2)"),
    (SIG_W, "A. X = bot", 1, "expected '=' or 'sub' after a term, found '.' (at position 1)"),
    (SIG_W, "X sup Y", 2, "expected '=' or 'sub' after a term, found 'sup' (at position 2)"),
    (SIG_W, "", 0, "expected a term, found 'end of input' (at position 0)"),
    (SIG_W, "   ", 3, "expected a term, found 'end of input' (at position 3)"),
    (SIG_W, "= bot", 0, "expected a term, found '=' (at position 0)"),
    (SIG_W, "X =", 3, "expected a term, found 'end of input' (at position 3)"),
    (SIG_W, "X = (Y)", 4, "expected a term, found '(' (at position 4)"),
    (SIG_W, "!", 1, "expected a term, found 'end of input' (at position 1)"),
    (SIG_W, "E X.", 4, "expected a term, found 'end of input' (at position 4)"),
    (SIG_W, "X = bot ->", 10, "expected a term, found 'end of input' (at position 10)"),
    (SIG_W, "X = bot &", 9, "expected a term, found 'end of input' (at position 9)"),
    (SIG_W, "X = bot | ", 10, "expected a term, found 'end of input' (at position 10)"),
    (SIG_W, "min() = cz", 4, "expected a term, found ')' (at position 4)"),
    (SIG_W, "cup(X, ) = Y", 7, "expected a term, found ')' (at position 7)"),
    (SIG_W, "X sub", 5, "expected a term, found 'end of input' (at position 5)"),
    (SIG_W, "()", 1, "expected a term, found ')' (at position 1)"),
    (SIG_W, "X = bot & & Y = bot", 10, "expected a term, found '&' (at position 10)"),
    (SIG_W, "X = ->", 4, "expected a term, found '->' (at position 4)"),
    (SIG_W, "(X = bot) -> (E Y.", 18, "expected a term, found 'end of input' (at position 18)"),
]


@pytest.mark.parametrize("sig, text, position, message", PARSE_ERRORS)
def test_parse_error_message_and_position(sig, text, position, message):
    with pytest.raises(ParseError) as ei:
        parse(text, sig)
    assert (ei.value.position, str(ei.value)) == (position, message)


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


def test_nodes_are_slotted_and_their_caches_change_nothing_they_compare():
    f = parse("E Y. A Z. (cap(X, Y) = Z -> !min(Y) = bot | Y sub X & X = cz)", SIG_W)
    terms = [t for g in subformulas(f) if isinstance(g, Atomic) for side in (g.lhs, g.rhs) for t in subterms(side)]
    filled = [*subformulas(f), *terms]
    for g in filled:
        hash(g)
        free_vars(g) if hasattr(g, "_free") else term_vars(g)
    assert {type(g) for g in filled} == {Exists, Forall, Or, And, Not, Atomic, App, Var}
    for g in filled:
        assert not hasattr(g, "__dict__")
        # the same node built anew, with every cache still empty
        fresh = eval(repr(g), vars(syntax))
        assert fresh == g and g == fresh
        assert hash(fresh) == hash(g) and repr(fresh) == repr(g)
    assert all(g._free is not None and g._hash is not None for g in subformulas(f))
    a, b = f.body.body.lhs, f.body.body.rhs
    assert And(a, b) != Or(a, b) and Var("X") != App("X")


def test_term_vars_are_cached_and_make_the_free_set_of_an_equation():
    f = parse("cap(X, min(Y)) = cup(Y, bot)", SIG_W)
    t = f.lhs
    assert term_vars(t) is term_vars(t) and term_vars(t) == {"X", "Y"}
    assert term_vars(t.args[1]) is term_vars(t.args[1].args[0])
    assert free_vars(f) == term_vars(f.lhs) | term_vars(f.rhs)
    # a side whose set holds the other's lends it to the equation
    assert free_vars(f) is term_vars(f.lhs)


def _size(node) -> int:
    # the node count by its recursive definition
    if isinstance(node, Var):
        return 1
    if isinstance(node, App):
        return 1 + sum(map(_size, node.args))
    if isinstance(node, (Atomic, And, Or)):
        return 1 + _size(node.lhs) + _size(node.rhs)
    return 1 + _size(node.body)


@pytest.mark.parametrize("text", W_TEXTS + ["A X. !(E Y. X = Y | cap(X, Y) = X) & ips(X, cz) = bot"])
def test_count_nodes_counts_every_node_once(text):
    f = parse(text, SIG_W)
    assert count_nodes(f) == _size(f)
    assert all(count_nodes(a.lhs) == _size(a.lhs) for a in subformulas(f) if isinstance(a, Atomic))
    # X = bot is 3 nodes, its negation 4
    assert count_nodes(parse("!X = bot", SIG_W)) == 4


def test_count_nodes_takes_any_depth():
    # it keeps its own stack, so no nesting reaches the recursion limit
    f = parse("!" * 5000 + "X = bot", SIG_W)
    assert count_nodes(f) == 5003


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


def test_nnf_returns_a_formula_in_normal_form_as_it_is():
    g = parse("E Y. !(Y = X) & (min(Y) = cz | !(cap(Y, X) = bot))", SIG_W)
    assert nnf(g) is g


def is_unnested(f) -> bool:
    return all(is_unnested_atom(g) for g in subformulas(f) if isinstance(g, Atomic))


def test_unnest_flattens_compound_terms():
    f = parse("min(cup(X, Y)) = cz", SIG_W)
    g = unnest(f)
    assert is_unnested(g)
    assert not is_unnested_atom(f)


def test_unnest_keeps_already_flat_formulas_flat():
    # only a cup or cap inside another term is lifted
    for text in ("cup(X, Y) = Z", "min(max(X)) = cz", "cap(min(X), cz) = max(Y)"):
        f = parse(text, SIG_W)
        assert is_unnested(f)
        assert unnest(f) == f, text


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
    if isinstance(f, (And, Or)):
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
        st.builds(lambda a, b: Or(Not(a), b), sub, sub),
        st.builds(Exists, st.sampled_from(_SUB_NAMES), sub),
        st.builds(Forall, st.sampled_from(_SUB_NAMES), sub),
    ),
    max_leaves=6,
)


@given(_sub_formulas, st.dictionaries(st.sampled_from(_SUB_NAMES + ("W",)), _sub_terms, min_size=1, max_size=2))
def test_substitute_agrees_with_unpruned_substitution(f, mapping):
    assert substitute(f, mapping) == _substitute_unpruned(f, mapping)
    assert all_names(f) == _all_names_walked(f)


# -- binders renamed apart by the parse ------------------------------------------------


def _binders(f):
    return [g.var for g in subformulas(f) if isinstance(g, (Exists, Forall))]


def _renamed_apart(f) -> bool:
    binders = _binders(f)
    return len(set(binders)) == len(binders) and free_vars(f).isdisjoint(binders)


@given(_sub_formulas)
def test_parse_renames_binders_apart_as_rename_bound_apart_does(f):
    g = parse(format_formula(f), SIG_W)
    assert g == rename_bound_apart(f)
    assert _renamed_apart(g)
    assert rename_bound_apart(g) is g
    if _renamed_apart(f):
        assert g == f and rename_bound_apart(f) is f
