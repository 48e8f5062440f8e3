"""Constructive translations between the two formula languages.

Finite sets sit inside the interval structure as the sets whose left and
right endpoint maps agree; conversely an interval union is pinned down by
its endpoint pair.  This module realizes both directions on formulas:

* ``to_positive_existential`` removes negated equations from finite-set
  formulas (a nonempty witness inside the union of the two sides and
  outside their meet replaces each one, nonemptiness being the single
  equation ``notbot``);
* ``translate_W_to_L`` rewrites an existential finite-set formula over
  embedded finite sets, defining each ``ips`` application by its interval
  characterization ``phi_ips`` (one existential block, no disjunction),
  outside the negation of a negated equation;
* ``translate_L_to_W`` rewrites an interval formula, simplified first, in
  terms of endpoint coordinates, with membership and containment
  expressed by the quantifier-free equations ``phi_in`` and
  ``phi_subseteq``, each
  finite-valued operation by one term of its operand's coordinates that
  both coordinates of the value equal (``_FINITE_VALUED``), written in
  place, and each ``cup`` or ``cap`` by a quantifier-free template on the
  coordinates of its operands and value (``_lattice``): only a nested
  ``cup`` or ``cap`` gets a variable.  Each bound
  pair carries the validity guard ``valid_pair``, the endpoint lemma as
  one equation, except the pair of an ``E V`` whose block makes V's two
  coordinates equal: such a V is a finite set F, its pair is (F, F), and
  that pair is always valid;
* ``pipeline`` returns the simplified interval formula when its negation
  normal form has no universal quantifier.  Otherwise it decides each
  universal subformula whose simplified coordinate form has no quantifier
  (TRUE or FALSE above all), in place, and keeps the rest of the formula
  in interval syntax; a universal quantifier left after that is refused.

No translation writes a quantifier the input does not call for: a
universal quantifier in an output is the relativized image of one in the
input, so an existential input has an existential coordinate form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .syntax import (
    And,
    App,
    Atomic,
    Exists,
    Forall,
    Formula,
    FreshNames,
    Not,
    Or,
    SIG_L,
    SIG_W,
    Signature,
    Term,
    Var,
    all_names,
    and_all,
    bound_vars,
    bot,
    cap,
    classify,
    count_nodes,
    cup,
    cz,
    diff_t,
    exists_all,
    formula_symbols,
    free_vars,
    ips_t,
    l_t,
    lift,
    max_t,
    min_t,
    nnf,
    operands,
    parse,
    r_t,
    rebuild,
    subformulas,
    subset_atom,
    substitute,
    substitute_term,
    term_symbols,
    term_vars,
    unnest,
    valid_pair,
)


class FragmentError(ValueError):
    """The input formula lies outside the translatable fragment."""


def _check_signature(f: Formula, sig: Signature) -> None:
    """Raise FragmentError naming the symbols of ``f`` outside ``sig``."""
    if foreign := formula_symbols(f) - sig.arities.keys():
        kind = "a finite-set" if sig.finite_sets else "an interval"
        raise FragmentError(f"not {kind} formula: uses {sorted(foreign)}")


# -- small definable pieces ----------------------------------------------------------


def notbot(y: Term) -> Formula:
    """Nonemptiness without negation: 0 is in y, or its successor within
    y once 0 is adjoined, the least point of y, is."""
    return subset_atom(cz(), cup(ips_t(cup(y, cz()), y), cap(y, cz())))


# -- simplifier ----------------------------------------------------------------------

TRUE = Atomic(bot(), bot())
FALSE = Atomic(cz(), bot())
_BOT, _CZ = bot(), cz()


def _absorb(op: str, a: Term, b: Term) -> Optional[Term]:
    """``op(a, b)``, ``op`` a ``cup`` or ``cap``, by absorption when one side
    is a ``cup`` or ``cap`` with the other side among its arguments:
    ``cap(a, cup(a, c))`` and ``cup(a, cap(a, c))`` are ``a``, and
    ``cap(a, cap(a, c))`` and ``cup(a, cup(a, c))`` are the inner term, in
    every argument order; None when neither side is such."""
    for x, y in ((a, b), (b, a)):
        if y.__class__ is App and y.op in ("cup", "cap") and x in y.args:
            return y if y.op == op else x
    return None


# interval laws as data, each an equation pattern = replacement read in the
# interval signature, its variables standing for any terms.  Each
# replacement is smaller than its pattern, so folding ends, and each
# pattern's first argument is an application, which _simp_term tests before
# matching; the tests check every law on the kernels.
_LAWS = tuple(
    parse(text, SIG_L)
    for text in (
        # the inverses of _FINITE_VALUED's min and max on a term's endpoints
        "min(cup(l(T), r(T))) = min(T)",
        "cap(max(cup(l(T), r(T))), r(T)) = max(T)",
        # 0 is the least point of the half line
        "min(cup(T, cz)) = cz",
        "min(cup(cz, T)) = cz",
        # l and r leave a finite value as it is: l(min(T)) is min(T)
        *(f"{m}({v}(T)) = {v}(T)" for m in "lr" for v in ("min", "max", "l", "r")),
    )
)
# the laws by the operation at the head of their pattern
_LAWS_BY_OP: dict[str, list[tuple[App, Term]]] = {}
for _law in _LAWS:
    _LAWS_BY_OP.setdefault(_law.lhs.op, []).append((_law.lhs, _law.rhs))


def _match(p: Term, t: Term, env: dict) -> bool:
    """Whether ``t`` is an instance of the pattern ``p``, binding each
    pattern variable in ``env`` to its subterm; a repeated variable must
    bind equal subterms."""
    if p.__class__ is Var:
        return env.setdefault(p.name, t) == t
    if t.__class__ is not App or t.op != p.op:
        return False
    for a, b in zip(p.args, t.args):
        if not _match(a, b, env):
            return False
    return True


def _simp_term(t: Term, memo: dict) -> Term:
    # memo as in _simp: terms the rewrites share are folded once per call
    if t.__class__ is Var or not t.args:
        return t
    got = memo.get(id(t))
    if got is not None:
        return got[1]
    op, args = t.op, t.args
    out = t
    if len(args) == 2:
        a0, b0 = args
        a, b = _simp_term(a0, memo), _simp_term(b0, memo)
        ka = a.op if a.__class__ is App else None
        kb = b.op if b.__class__ is App else None
        if op == "cup":
            if ka == "bot":
                out = b
            elif kb == "bot" or a == b:
                out = a
            elif (absorbed := _absorb(op, a, b)) is not None:
                out = absorbed
        elif op == "cap":
            if ka == "bot" or kb == "bot":
                out = _BOT
            elif a == b:
                out = a
            elif (absorbed := _absorb(op, a, b)) is not None:
                out = absorbed
        elif op == "ips":
            if ka == "bot" or kb == "bot" or ka == "cz":
                out = _BOT
        elif op == "diff":
            if kb == "bot":
                out = a
            elif ka == "bot" or a == b or ka == "min" and a.args[0] == b:
                # min(T) lies in T
                out = _BOT
        if out is t and not (a is a0 and b is b0):
            out = App(op, (a, b))
    else:
        (a0,) = args
        a = _simp_term(a0, memo)
        ka = a.op if a.__class__ is App else None
        # min, max, l and r each take bot to bot and cz to cz
        if ka == "bot":
            out = _BOT
        elif ka == "cz":
            out = _CZ
        elif op in ("min", "max") and ka in ("min", "max"):
            # min and max yield at most one point, so they absorb
            out = a
        elif a is not a0:
            out = App(op, (a,))
    # a folded term is simplified already; one no fold took has a as its
    # first argument
    laws = _LAWS_BY_OP.get(op)
    if laws is not None and out.__class__ is App and out.op == op:
        for pattern, replacement in laws:
            env: dict[str, Term] = {}
            if pattern.args[0].op == ka and _match(pattern, out, env):
                out = _simp_term(substitute_term(replacement, env), memo)
                break
    memo[id(t)] = (t, out)
    return out


def _occurs_at_most(x: str, parts: list, most: int) -> bool:
    """Whether the variable ``x`` occurs free at most ``most`` times in
    ``parts``.  The walk skips a part whose cached names lack ``x`` and
    stops at the first occurrence past ``most``."""
    n, stack = 0, list(parts)
    while stack:
        p = stack.pop()
        kind = p.__class__
        if kind is Var:
            n += p.name == x
            if n > most:
                return False
        elif kind is App:
            if x in term_vars(p):
                stack += p.args
        elif x in free_vars(p):
            if kind is Atomic or kind is And or kind is Or:
                stack += (p.lhs, p.rhs)
            else:
                stack.append(p.body)
    return True


def _definition(g: Exists) -> Optional[tuple[list[str], list[Formula], Term]]:
    """The chain of ``E`` binders directly under ``g``, the other conjuncts
    of the body below that chain, and the term t of the body's first
    conjunct X = t that may be inlined, for X the variable ``g`` binds: t
    does not name X or a variable of the chain, and putting t for each
    occurrence of X in the other conjuncts adds no more nodes than the
    equation, the binder and the ``&`` take away, as a variable or constant
    always does.  None when no conjunct has that shape."""
    x, chain, body = g.var, [], g.body
    while body.__class__ is Exists and body.var != x:
        chain.append(body.var)
        body = body.body
    conj = operands(body, And)
    for i, c in enumerate(conj):
        if c.__class__ is not Atomic or x not in free_vars(c):
            continue
        for v, t in ((c.lhs, c.rhs), (c.rhs, c.lhs)):
            if v.__class__ is not Var or v.name != x or x in term_vars(t) or not term_vars(t).isdisjoint(chain):
                continue
            rest = conj[:i] + conj[i + 1 :]
            # each occurrence grows by |t| - 1; X = t, E X and & free |t| + 4
            size = count_nodes(t)
            if size == 1 or _occurs_at_most(x, rest, (size + 4) // (size - 1)):
                return chain, rest, t
    return None


def _simp(f: Formula, memo: dict) -> Formula:
    # memo: id of each node met in this call -> (node, result); holding the
    # node keeps its id from passing to a later temporary.  Every part comes
    # back from _simp, where an equation that folds becomes TRUE or FALSE
    # itself, so the folds test those by identity.  They stay inline: in a
    # helper, their comparisons would run one frame deeper and lower the
    # nesting limit.
    got = memo.get(id(f))
    if got is not None:
        return got[1]
    kind = f.__class__
    if kind is Atomic:
        lhs, rhs = _simp_term(f.lhs, memo), _simp_term(f.rhs, memo)
        if lhs == rhs:
            out = TRUE
        elif lhs.__class__ is App is rhs.__class__ and (lhs.op, rhs.op) in (("bot", "cz"), ("cz", "bot")):
            out = FALSE
        else:
            out = f if lhs is f.lhs and rhs is f.rhs else Atomic(lhs, rhs)
    elif kind is Not:
        body = _simp(f.body, memo)
        if body is TRUE:
            out = FALSE
        elif body is FALSE:
            out = TRUE
        elif body.__class__ is Not:
            out = body.body
        else:
            out = f if body is f.body else Not(body)
    elif kind is Exists or kind is Forall:
        body = _simp(f.body, memo)
        g = out = f if body is f.body else kind(f.var, body)
        if f.var not in free_vars(body):
            out = body
        elif kind is Exists and (found := _definition(g)) is not None:
            # put the defining term for the variable and simplify again;
            # the memo skips the parts the substitution left alone
            chain, rest, t = found
            out = _simp(substitute(exists_all(chain, and_all(rest)), {f.var: t}), memo) if rest else TRUE
    else:
        a, b = _simp(f.lhs, memo), _simp(f.rhs, memo)
        unit, zero = (FALSE, TRUE) if kind is Or else (TRUE, FALSE)
        if a is zero or b is zero or a.__class__ is Not and a.body == b or b.__class__ is Not and b.body == a:
            # !a | a is TRUE and a & !a FALSE, in either order
            out = zero
        elif a is unit or b.__class__ is kind and b.lhs == a:
            # a & (a & c) is a & c, and a | (a | c) is a | c
            out = b
        elif b is unit or a == b:
            out = a
        else:
            out = f if a is f.lhs and b is f.rhs else kind(a, b)
    memo[id(f)] = (f, out)
    # one pass reaches the fixpoint, so a result simplifies to itself
    memo[id(out)] = (out, out)
    return out


def simplify(f: Formula) -> Formula:
    """Constant folding, lattice absorption (``cap(a, cup(a, b))`` is
    ``a``, ``cap(a, cap(a, b))`` is ``cap(a, b)``, and the same with
    ``cup`` and ``cap`` swapped, in every argument order), the interval laws
    of ``_LAWS`` (``min(cup(l(T), r(T)))`` is ``min(T)``, ``l(min(T))`` is
    ``min(T)``), ``!a | a`` as TRUE and ``a & !a`` as FALSE, and inlining of
    definitional equations X = t under their own quantifier, read below the
    chain of ``E`` binders directly under it (t names neither X nor a
    variable of that chain).  A definition is inlined when that makes the
    formula no larger, counted by ``count_nodes``: always for t a variable
    or constant, and for an application t when the occurrences of X grow by
    no more than the equation, the binder and its ``&`` take away, so
    ``E Y. l(Y) = r(Y) & min(X) = Y`` is TRUE.  Equivalence-preserving in
    both structures, idempotent (one pass reaches the fixpoint), and never
    larger than its input.  It writes no negation and no ``A`` the input
    lacks.

    A per-call memo visits each node once: after an inlined definition
    only the paths the substitution changed are simplified again, and a
    formula already simplified comes back as the same object.  It is the
    one term folder: ``translate_L_to_W`` reads its input through it."""
    return _simp(f, {})


# -- negation elimination ------------------------------------------------------------


def _universal(g: Formula) -> Optional[str]:
    """The variable of the first universal quantifier of ``g``, if any."""
    return next((h.var for h in subformulas(g) if isinstance(h, Forall)), None)


def _existential_nnf(f: Formula) -> Formula:
    """Negation normal form of ``f``, which must have no universal
    quantifier there."""
    g = nnf(f)
    if (v := _universal(g)) is not None:
        raise FragmentError(f"universal quantifier on {v} cannot be eliminated")
    return g


def _eliminate_negations(f: Formula, names: FreshNames) -> Formula:
    if not isinstance(f, Not):
        return rebuild(f, _eliminate_negations, names)
    if not isinstance(f.body, Atomic):
        raise AssertionError("negation not at an equation after nnf")
    # Y inside the symmetric difference of a and b, written without diff
    a, b, y = f.body.lhs, f.body.rhs, Var(names.fresh("Y"))
    return Exists(y.name, and_all([notbot(y), subset_atom(y, cup(a, b)), Atomic(cap(y, cap(a, b)), bot())]))


def to_positive_existential(f: Formula) -> Formula:
    """Rewrite a finite-set formula without universal quantifiers into an
    equivalent one with no negation at all.

    Each negated equation ``!(a = b)`` becomes an existential witness,
    ``E Y. notbot(Y) & Y sub cup(a, b) & cap(Y, cap(a, b)) = bot``: the two
    sides differ exactly when some nonempty set fits inside their union and
    misses their meet, and nonemptiness is definable positively
    (``notbot``).  No ``diff`` is written, so input and output are both in
    the finite-set signature.  The output comes back simplified.
    """
    _check_signature(f, SIG_W)
    g = _existential_nnf(f)
    g = simplify(_eliminate_negations(g, FreshNames(all_names(g))))
    if classify(g) != "positive_existential":
        raise AssertionError("negation elimination left a non-positive formula")
    return g


# -- the interval characterization of ips --------------------------------------------


def phi_ips(x: Term = Var("X"), y: Term = Var("Y"), z: Term = Var("Z"), e: str = "E", d: str = "D") -> Formula:
    """``ips(x, y) = z`` for embedded finite sets, as an interval formula.

    Write B for y within x, and E for B less the least point of x.  z
    collects the points of x whose successor in x lands in B, which
    happens exactly when some unbounded interval union D has left
    endpoints E with 0 adjoined, right endpoints z, and holds x.  For an
    empty B that D is the ray [0,*), which forces z empty, so the witness
    pool must allow rays.  Unboundedness of D matters: without it, D
    built from a too-small z can close off early and accept spurious
    triples.

    ``e`` and ``d`` name the binders of E and D; neither may occur in the
    terms.
    """
    b, ev, dv = cap(y, x), Var(e), Var(d)
    m = cap(min_t(x), b)
    body = and_all(
        [
            # E is B less m, the unique solution of (B cap m) cup E = B and
            # m cap E = bot
            And(Atomic(cup(cap(b, m), ev), b), Atomic(cap(m, ev), bot())),
            Atomic(l_t(dv), cup(ev, cz())),
            Atomic(r_t(dv), z),
            subset_atom(z, x),
            subset_atom(x, dv),
            Atomic(max_t(dv), bot()),
        ]
    )
    return Exists(e, Exists(d, body))


# -- membership and containment through endpoint coordinates -------------------------


def phi_in(xl: Term = Var("Xl"), xr: Term = Var("Xr"), z: Term = Var("Z")) -> Formula:
    """The finite set z lies in the set with endpoint coordinates xl, xr:
    every point of z off the endpoints follows, within z and the endpoints,
    a point of z or an endpoint that opens a segment or the ray."""
    bd = cup(xl, xr)
    s, d = cup(bd, z), diff_t(z, bd)
    return And(subset_atom(cap(ips_t(s, d), bd), diff_t(xl, xr)), Atomic(cap(min_t(s), d), bot()))


def _misses(xl: Term, xr: Term, y: Term) -> Formula:
    """The finite set y is disjoint from the set with coordinates xl, xr:
    no point of y is an endpoint or follows an endpoint that opens a
    segment or the ray."""
    bd = cup(xl, xr)
    return And(
        Atomic(cap(y, bd), bot()),
        Atomic(cap(cap(ips_t(cup(bd, y), y), bd), diff_t(xl, xr)), bot()),
    )


def phi_subseteq(
    xl: Term = Var("Xl"), xr: Term = Var("Xr"), yl: Term = Var("Yl"), yr: Term = Var("Yr")
) -> Formula:
    """Containment between sets given by coordinates (xl, xr) and (yl, yr):
    the endpoints of the first lie in the second, and no right endpoint of
    the second that does not close the first lies in the first."""
    return And(phi_in(yl, yr, cup(xl, xr)), _misses(xl, xr, diff_t(yr, xr)))


def _lattice(op: str, u: tuple, v: tuple, w: tuple) -> Formula:
    """``op(U, V) = W``, ``op`` a ``cup`` or ``cap``, on the coordinates
    (left, right) of U, V and W, with no quantifier.

    ``cup``: U and V lie in W, each left endpoint of W is one of U's or
    V's, and a right endpoint of one operand that W drops lies in the
    other, off its right endpoints.  ``cap``: each endpoint of W is one of
    U's or V's on the same side, and an endpoint of one operand lies in
    the other exactly when W keeps it."""
    if op == "cup":
        parts = [phi_subseteq(*u, *w), phi_subseteq(*v, *w), subset_atom(w[0], cup(u[0], v[0]))]
        for x, y in ((u, v), (v, u)):
            dropped = diff_t(x[1], w[1])
            parts += [phi_in(*y, dropped), Atomic(cap(dropped, y[1]), bot())]
        return and_all(parts)
    parts = [subset_atom(ws, cup(us, vs)) for us, vs, ws in zip(u, v, w)]
    for x, y in ((u, v), (v, u)):
        for xs, ws in zip(x, w):
            parts += [phi_in(*y, cap(xs, ws)), _misses(*y, diff_t(xs, ws))]
    return and_all(parts)


# -- interval formulas to finite-set formulas ----------------------------------------


@dataclass(frozen=True)
class CoordinatePair:
    """The two finite-set variables standing for one interval variable."""

    left: str
    right: str


# each operation whose every value is a finite set F, as the term F is of
# the coordinates (left, right) of its operand, if it has one: both
# coordinates of the value are F.  The greatest point of a union is the
# greatest boundary point when that closes a segment, and none under a ray.
_FINITE_VALUED: dict[str, Callable[..., Term]] = {
    "bot": bot,
    "cz": cz,
    "l": lambda xl, xr: xl,
    "r": lambda xl, xr: xr,
    "min": lambda xl, xr: min_t(cup(xl, xr)),
    "max": lambda xl, xr: cap(max_t(cup(xl, xr)), xr),
}


def _name(t: Term) -> Optional[str]:
    return t.name if t.__class__ is Var else None


def _endpoints_agree(c: Atomic) -> bool:
    """Whether ``c`` is l(V) = r(V) or r(V) = l(V) for a variable V."""
    a, b = c.lhs, c.rhs
    return (
        a.__class__ is App is b.__class__
        and {a.op, b.op} == {"l", "r"}
        and a.args == b.args
        and a.args[0].__class__ is Var
    )


def _grow_finite(
    conjuncts: list[Formula], finite: frozenset[str], forced: frozenset[str]
) -> tuple[frozenset[str], frozenset[str]]:
    """``finite`` and ``forced`` grown over the unnested equations of one
    conjunction.  Finite: the variables the conjunction forces to be
    finite sets.  Forced: those whose two coordinates the translated
    equations make equal, namely a V with l(V) = r(V), in either order (the
    finite sets of the interval structure, translated as Vl = Vr), one
    equal to a term other than a variable (its two coordinates are one
    term), one equal to such a variable, and a coordinatewise ``cup`` or
    ``cap`` of two such.  Only finite reasons back from an atom to its
    operands, so only forced holds of the translation."""
    # None stands for every term but a variable, which is finite and forced;
    # l(V) = r(V), either way round, makes V finite, translated as Vl = Vr
    agree = {c.lhs.args[0].name for c in conjuncts if c.__class__ is Atomic and _endpoints_agree(c)}
    finite, forced = {None, *finite, *agree}, {None, *forced, *agree}
    size = -1
    while size < len(finite) + len(forced):
        size = len(finite) + len(forced)
        for c in conjuncts:
            if c.__class__ is not Atomic:
                continue
            a, w = c.lhs, _name(c.rhs)
            if a.__class__ is Var or a.op in _FINITE_VALUED:
                for known in (finite, forced):
                    if _name(a) in known or w in known:
                        known.update((_name(a), w))
                continue
            u, v = map(_name, a.args)
            if u in forced and v in forced:
                forced.add(w)
            if a.op == "cap":
                if u in finite or v in finite:
                    finite.add(w)
            elif u in finite and v in finite:
                finite.add(w)
            elif w in finite:
                finite.update((u, v))
    return frozenset(finite - {None}), frozenset(forced - {None})


def translate_L_to_W(f: Formula) -> Formula:
    """Rewrite an interval formula over endpoint coordinates.

    Every variable X becomes a pair (Xl, Xr) of finite-set variables;
    quantifiers are relativized to coordinate pairs of actual interval
    unions by ``valid_pair``.  The input is simplified first, before
    ``unnest``, so a ``cup`` or ``cap`` that folds (``cap(X, bot)``) gets no
    variable, and a binder that ``simplify`` removes (``E Z. cap(Z, bot) =
    Y``, or a variable it inlines) no pair.  Any other term but
    a ``cup`` or ``cap`` is translated in place: both its coordinates are
    the one term its ``_FINITE_VALUED`` entries make of its arguments'
    coordinates, and an equation equates its sides' left and right
    coordinates.  An ``E V`` writes no guard when V is in the forced set of
    its block, the conjuncts below its chain of ``E``s, which
    ``_grow_finite`` grows once for the whole chain (a lone equation grows
    its own), as for a conjunct l(V) = r(V), translated Vl = Vr: the
    translated equations then make both coordinates one finite set, a valid
    pair.  Containment is the quantifier-free ``phi_subseteq``.  A ``cup``
    or ``cap`` whose operands the conjunction around it forces finite is
    taken coordinatewise, with ``Ul = Ur`` for each operand whose finiteness
    the translated conjuncts do not already force.  Any other ``cup`` or
    ``cap`` is the quantifier-free template ``_lattice`` on the coordinates
    of its operands and value.  So the output has a universal quantifier
    in negation normal form only where the input has one: ``unnest`` keeps
    the definitions of nested terms existential there too."""
    return _l2w(f)[0]


def _l2w(f: Formula) -> tuple[Formula, dict[str, CoordinatePair]]:
    _check_signature(f, SIG_L)
    g = unnest(simplify(f))
    names = FreshNames(all_names(g))
    pairs: dict[str, CoordinatePair] = {}

    def pair_of(v: str) -> CoordinatePair:
        got = pairs.get(v)
        if got is None:
            got = pairs[v] = CoordinatePair(names.fresh(v + "l"), names.fresh(v + "r"))
        return got

    # folding may drop a free variable, which keeps its pair
    for v in sorted(free_vars(f)):
        pair_of(v)

    def coords(t: Term) -> tuple[Term, Term]:
        # a variable's pair, else the one term both coordinates equal
        if t.__class__ is Var:
            p = pair_of(t.name)
            return Var(p.left), Var(p.right)
        value = _FINITE_VALUED[t.op](*(c for x in t.args for c in coords(x)))
        return value, value

    # finite and forced as _grow_finite grows them in the enclosing
    # conjunctions
    def walk(h: Formula, finite: frozenset[str], forced: frozenset[str]) -> Formula:
        if isinstance(h, Atomic):
            # a lone atom is translated on the sets it grows itself, a
            # negated one, which forces nothing, on the sets around it
            return atom(h, *_grow_finite([h], finite, forced))
        if isinstance(h, Not) and isinstance(h.body, Atomic):
            return Not(atom(h.body, finite, forced))
        if isinstance(h, (And, Exists)):
            return block(h, finite, forced)[0]
        if isinstance(h, Forall):
            p = pair_of(h.var)
            body = walk(h.body, finite - {h.var}, forced - {h.var})
            return Forall(p.left, Forall(p.right, Or(Not(valid_pair(p.left, p.right)), body)))
        return rebuild(h, walk, finite, forced)

    # h translated, and the forced set of the block it heads (the conjuncts
    # below its chain of E binders, grown once) less the names the chain
    # binds: an E V writes no guard when V is in the set its body hands up
    def block(h: Formula, finite: frozenset[str], forced: frozenset[str]) -> tuple[Formula, frozenset[str]]:
        if isinstance(h, Exists):
            p = pair_of(h.var)
            # an inner binder of a name is a new variable
            hidden = {h.var}
            body, pinned = block(h.body, finite - hidden, forced - hidden)
            if h.var not in pinned:
                body = And(valid_pair(p.left, p.right), body)
            return Exists(p.left, Exists(p.right, body)), pinned - hidden
        if isinstance(h, (And, Atomic)):
            conj = operands(h, And)
            grown, pinned = _grow_finite(conj, finite, forced)
            parts = [atom(c, grown, pinned) if c.__class__ is Atomic else walk(c, grown, pinned) for c in conj]
            return and_all(parts), pinned
        return walk(h, finite, forced), forced

    def atom(h: Atomic, finite: frozenset[str], forced: frozenset[str]) -> Formula:
        a, w = h.lhs, coords(h.rhs)
        if a.__class__ is Var or a.op in _FINITE_VALUED:
            (al, ar), (wl, wr) = coords(a), w
            if al is ar and wl is wr:
                # both sides have one term for both coordinates (l(V) = r(V)
                # is Vl = Vr): one equation says it
                return Atomic(al, wl)
            return And(Atomic(al, wl), Atomic(ar, wr))
        x, y = a.args
        cx, cy = coords(x), coords(y)
        if all(t.__class__ is not Var or t.name in finite for t in (x, y)):
            # coordinatewise is right only on finite operands, and the
            # input may force an operand finite through this very atom
            own = {t.name: Atomic(*c) for t, c in ((x, cx), (y, cy)) if t.__class__ is Var and t.name not in forced}
            return and_all([Atomic(App(a.op, (s, t)), v) for s, t, v in zip(cx, cy, w)] + list(own.values()))
        return _lattice(a.op, cx, cy, w)

    return walk(g, frozenset(), frozenset()), pairs


# -- finite-set formulas to interval formulas ----------------------------------------


def _finite_coords(v: str) -> Formula:
    return Atomic(l_t(Var(v)), r_t(Var(v)))


def translate_W_to_L(f: Formula) -> Formula:
    """Reinterpret an existential finite-set formula over the embedded
    finite sets of the interval structure.

    After negation normal form, negation sits on equations only.  On
    embedded finite sets ``cup``, ``cap``, ``bot``, ``cz``, ``min`` and
    ``max`` agree with the finite-set operations, so an equation without
    ``ips`` transfers verbatim, negated or not.  A positive equation
    ``ips(s, t) = u`` with no other ``ips`` becomes ``phi_ips(s, t, u)``;
    every other ``ips`` application is lifted to a fresh embedded finite
    set U with ``phi_ips(s, t, U)`` beside the equation, outside its
    negation: ``ips`` is a function, so ``E U. ... & !(eq[U])`` says
    ``!eq``.  Every quantifier of the input is relativized to the embedded
    finite sets (equal endpoint maps); a lifted U is not, since
    ``phi_ips`` makes it the right endpoints of its D, a finite set.  A
    universal quantifier raises FragmentError."""
    g = _existential_nnf(f)
    _check_signature(g, SIG_W)
    names = FreshNames(all_names(g))

    def walk(h: Formula) -> Formula:
        if isinstance(h, Exists):
            return Exists(h.var, And(_finite_coords(h.var), walk(h.body)))
        if not isinstance(h, (Atomic, Not)):
            return rebuild(h, walk)
        eq = h.body if isinstance(h, Not) else h
        if eq is h:
            for a, b in ((h.lhs, h.rhs), (h.rhs, h.lhs)):
                if isinstance(a, App) and a.op == "ips" and not any("ips" in term_symbols(x) for x in (b, *a.args)):
                    # binders of their own, so that no output binds a name twice
                    return phi_ips(a.args[0], a.args[1], b, names.fresh("E"), names.fresh("D"))
        # each other ips application, innermost first, as a fresh U that
        # phi_ips defines outside the negation
        defs: list[tuple[str, App]] = []
        lhs, rhs = lift(eq.lhs, ("ips",), names, "U", defs), lift(eq.rhs, ("ips",), names, "U", defs)
        if not defs:
            return h
        core = Atomic(lhs, rhs)
        parts = [phi_ips(*app.args, Var(u), names.fresh("E"), names.fresh("D")) for u, app in defs]
        return exists_all([u for u, _ in defs], and_all(parts + [core if eq is h else Not(core)]))

    return walk(g)


# -- the composed pipeline -----------------------------------------------------------


def _decided(f: Formula, negated: bool) -> Formula:
    """``f`` with each universal subformula q, an ``A`` under an even number
    of negations or an ``E`` under an odd number, decided by its coordinate
    form w = ``simplify(translate_L_to_W(q))`` when w has no quantifier and
    no ``ips`` or ``diff``.  The translation adds no universal to q's own,
    so that takes a ``simplify`` that removes q's.  w with each free
    coordinate back as its endpoint map, ``l(X)`` or ``r(X)``, takes q's
    place.  w holds exactly at the
    endpoint coordinates of q's free variables, and on the finite sets
    ``l(X)`` and ``r(X)`` the shared operations agree in both structures,
    so that is q; a constant w (TRUE or FALSE) says q holds everywhere or
    nowhere.  ``negated`` tells whether an odd number of negations stand
    above ``f``."""
    if f.__class__ is Not:
        return rebuild(f, _decided, not negated)
    if f.__class__ is (Exists if negated else Forall):
        w, pairs = _l2w(f)
        w = simplify(w)
        if not bound_vars(w) and formula_symbols(w) <= SIG_L.arities.keys():
            back: dict[str, Term] = {}
            for v in free_vars(f):
                back[pairs[v].left], back[pairs[v].right] = l_t(Var(v)), r_t(Var(v))
            return substitute(w, back)
    return rebuild(f, _decided, negated)


def pipeline(f: Formula) -> Formula:
    """Turn a supported interval formula into an equivalent existential one.

    The simplified input is the answer when its negation normal form has no
    universal quantifier, as for almost every input (``!(X = bot)`` comes
    back as ``!X = bot``).  Otherwise each universal subformula whose
    simplified endpoint coordinate form is quantifier-free in the shared
    operations, TRUE or FALSE above all, is decided by it (``_decided``),
    the rest stays in interval syntax, and the result is simplified again;
    a universal left after that raises FragmentError, as does a symbol
    outside the interval signature."""
    _check_signature(f, SIG_L)
    s = simplify(f)
    if _universal(nnf(s)) is not None:
        s = simplify(_decided(s, False))
        _existential_nnf(s)
    return s
