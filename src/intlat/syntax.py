"""First-order formulas over the two set signatures.

Terms are variables and prefix applications; atomic formulas are equations
between terms, with ``t sub u`` accepted as input sugar for the equation
``cap(t, u) = t``.  Connectives are ``!``, ``&``, ``|``, ``->`` in rising
binding order (``!`` strongest) and quantifiers ``E X.`` / ``A X.`` whose
scope extends as far right as possible.

The two signatures share the lattice symbols; ``ips`` belongs only to the
finite-set signature and the endpoint maps ``l``/``r`` only to the
interval signature.  ``parse`` checks every symbol and arity against the
requested signature and renames bound variables apart, so a parsed formula
never shadows a name.

Walkers over formulas go through four traversal helpers rather than
dispatching on the node types themselves: ``subformulas`` and ``subterms``
(iterative pre-order scans), ``rebuild`` (the same connective over a
function of each immediate part) and ``lift`` (replace applications by
fresh variables, recording their definitions).  Formulas are immutable, so
the walkers share what they leave alone: ``rebuild``, ``substitute``,
``substitute_term`` and ``rename_bound_apart`` return an unchanged part as
the very same object and build new nodes only along changed paths.
``free_vars`` returns a frozenset cached on each node, beside the set of
names bound inside it (``bound_vars``), so each is computed once per node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import is_
from typing import Iterator, Mapping, Optional, Union


class ParseError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- terms ---------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class App:
    op: str
    args: tuple["Term", ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.op
        return f"{self.op}({', '.join(str(a) for a in self.args)})"


Term = Union[Var, App]


def cup(a: Term, b: Term) -> App:
    return App("cup", (a, b))


def cap(a: Term, b: Term) -> App:
    return App("cap", (a, b))


def bot() -> App:
    return App("bot")


def cz() -> App:
    return App("cz")


def min_t(a: Term) -> App:
    return App("min", (a,))


def max_t(a: Term) -> App:
    return App("max", (a,))


def ips_t(a: Term, b: Term) -> App:
    return App("ips", (a, b))


def l_t(a: Term) -> App:
    return App("l", (a,))


def r_t(a: Term) -> App:
    return App("r", (a,))


def diff_t(a: Term, b: Term) -> App:
    """Relative complement as an internal term; not part of either parse signature."""
    return App("diff", (a, b))


# -- formulas ------------------------------------------------------------------


def _cached_hash(self) -> int:
    # formulas key the solver's memo tables; the generated hash would walk
    # the whole tree on every lookup
    try:
        return self._hash
    except AttributeError:
        h = hash((type(self),) + tuple(getattr(self, n) for n in self.__match_args__))
        object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True)
class Atomic:
    lhs: Term
    rhs: Term

    __hash__ = _cached_hash


@dataclass(frozen=True)
class Not:
    body: "Formula"

    __hash__ = _cached_hash


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"

    __hash__ = _cached_hash


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"

    __hash__ = _cached_hash


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"

    __hash__ = _cached_hash


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"

    __hash__ = _cached_hash


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"

    __hash__ = _cached_hash


Formula = Union[Atomic, Not, And, Or, Implies, Exists, Forall]


def subset_atom(s: Term, t: Term) -> Atomic:
    """The containment ``s sub t`` as its defining equation ``cap(s, t) = s``."""
    return Atomic(cap(s, t), s)


def delta_domain(b: Term = Var("B"), c: Term = Var("C")) -> Formula:
    """(b, c) is the endpoint pair of some nonempty interval union."""
    bd = cup(b, c)
    gained = diff_t(c, b)
    kept = diff_t(b, c)
    closed = And(subset_atom(max_t(bd), c), Atomic(ips_t(bd, gained), kept))
    open_end = And(
        subset_atom(max_t(bd), kept),
        Atomic(cup(ips_t(bd, gained), max_t(bd)), kept),
    )
    return And(
        Not(Atomic(b, bot())),
        And(subset_atom(min_t(bd), b), Or(closed, open_end)),
    )


def valid_pair(vl: str, vr: str) -> Formula:
    """(vl, vr) is the coordinate image of some interval union."""
    left, right = Var(vl), Var(vr)
    return Or(delta_domain(left, right), And(Atomic(left, bot()), Atomic(right, bot())))


def and_all(parts: list) -> Formula:
    if not parts:
        raise ValueError("empty conjunction")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def exists_all(names: list[str], body: Formula) -> Formula:
    for name in reversed(names):
        body = Exists(name, body)
    return body


# -- traversal -------------------------------------------------------------------


def subformulas(f: Formula) -> Iterator[Formula]:
    """``f`` and every subformula, in pre-order, left to right."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, (And, Or, Implies)):
            stack += (g.rhs, g.lhs)
        elif not isinstance(g, Atomic):
            stack.append(g.body)


def subterms(t: Term) -> Iterator[Term]:
    """``t`` and every subterm, in pre-order, left to right."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, App):
            stack.extend(reversed(s.args))


def rebuild(f: Formula, fn, *args) -> Formula:
    """The connective or quantifier of ``f`` over ``fn(g, *args)`` of each
    immediate part ``g``, evaluated left to right; an equation comes back
    as it is, and so does ``f`` when ``fn`` returns every part as it is.
    Walkers pass their context in ``args`` rather than through a closure,
    which would cost a stack frame per level of nesting."""
    if isinstance(f, Atomic):
        return f
    if isinstance(f, (And, Or, Implies)):
        lhs, rhs = fn(f.lhs, *args), fn(f.rhs, *args)
        return f if lhs is f.lhs and rhs is f.rhs else type(f)(lhs, rhs)
    body = fn(f.body, *args)
    if body is f.body:
        return f
    return Not(body) if isinstance(f, Not) else type(f)(f.var, body)


def operands(f: Formula, kind: type) -> list[Formula]:
    """The operands of a chain of ``kind`` (``And`` or ``Or``), left to right."""
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, kind):
            stack += (g.rhs, g.lhs)
        else:
            out.append(g)
    return out


def lift(t: Term, op: Optional[str], names: "FreshNames", base: str, defs: list) -> Term:
    """``t`` with each application of ``op`` (of any operation when ``op``
    is None) replaced, innermost first, by a fresh variable named after
    ``base``.  Appends ``(name, application)`` to ``defs`` for each, the
    application taken over the already-lifted arguments."""
    if isinstance(t, Var):
        return t
    app = App(t.op, tuple(lift(a, op, names, base, defs) for a in t.args))
    if op is not None and t.op != op:
        return app
    name = names.fresh(base)
    defs.append((name, app))
    return Var(name)


# -- signatures ----------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    name: str
    symbols: tuple[tuple[str, int], ...]
    finite_sets: bool  # interpreted in finite sets, else in interval unions

    def __post_init__(self) -> None:
        # the parser asks for an arity at every term token
        object.__setattr__(self, "_arity", dict(self.symbols))

    def arity(self, op: str) -> Optional[int]:
        return self._arity.get(op)


_SHARED = (("cup", 2), ("cap", 2), ("bot", 0), ("cz", 0), ("min", 1), ("max", 1))

SIG_W = Signature("w", _SHARED + (("ips", 2),), True)
SIG_L = Signature("l", _SHARED + (("l", 1), ("r", 1)), False)

# internal extension used while eliminating relative complements
SIG_W_DIFF = Signature("w+diff", SIG_W.symbols + (("diff", 2),), True)


def term_symbols(t: Term) -> set[str]:
    return {s.op for s in subterms(t) if isinstance(s, App)}


def formula_symbols(f: Formula) -> set[str]:
    out: set[str] = set()
    for g in subformulas(f):
        if isinstance(g, Atomic):
            out |= term_symbols(g.lhs) | term_symbols(g.rhs)
    return out


def fits_signature(f: Formula, sig: Signature) -> bool:
    return all(sig.arity(op) is not None for op in formula_symbols(f))


# -- variables and substitution --------------------------------------------------


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: set[str] = set()
    for a in t.args:
        out |= term_vars(a)
    return out


_NO_NAMES: frozenset[str] = frozenset()


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    # a part's own set when it already holds the other's: most do
    return a if b <= a else b if a <= b else a | b


def free_vars(f: Formula) -> frozenset[str]:
    """The free variable names of ``f``, computed once per node and cached
    on it, together with the names bound anywhere inside it."""
    try:
        return f._free
    except AttributeError:
        pass
    if isinstance(f, Atomic):
        free, bound = frozenset(term_vars(f.lhs) | term_vars(f.rhs)), _NO_NAMES
    elif isinstance(f, (And, Or, Implies)):
        free = _union(free_vars(f.lhs), free_vars(f.rhs))
        bound = _union(f.lhs._bound, f.rhs._bound)
    else:
        free, bound = free_vars(f.body), f.body._bound
        if not isinstance(f, Not):
            free = free - {f.var} if f.var in free else free
            bound = bound if f.var in bound else bound | {f.var}
    object.__setattr__(f, "_free", free)
    object.__setattr__(f, "_bound", bound)
    return free


def bound_vars(f: Formula) -> frozenset[str]:
    """Every name a quantifier inside ``f`` binds, cached like ``free_vars``."""
    try:
        return f._bound
    except AttributeError:
        free_vars(f)
        return f._bound


def all_names(f: Formula) -> set[str]:
    """Every variable name occurring anywhere, bound or free."""
    return set(free_vars(f) | bound_vars(f))


class FreshNames:
    """Deterministic fresh-name supply: the base name, then base1, base2, ..."""

    def __init__(self, taken: set[str]) -> None:
        self._taken = set(taken)
        self._counters: dict[str, int] = {}

    def fresh(self, base: str) -> str:
        if base not in self._taken:
            self._taken.add(base)
            return base
        n = self._counters.get(base, 0)
        while True:
            n += 1
            candidate = f"{base}{n}"
            if candidate not in self._taken:
                self._counters[base] = n
                self._taken.add(candidate)
                return candidate


def substitute_term(t: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    args = tuple(substitute_term(a, mapping) for a in t.args)
    return t if all(map(is_, args, t.args)) else App(t.op, args)


def substitute(f: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Capture-avoiding substitution of terms for free variables.  A part
    where no key is free and no binder is a variable of a value comes back
    as it is; elsewhere a binder that is such a variable gets a fresh name."""
    if mapping.keys().isdisjoint(free_vars(f)) and not _binds_a_value_var(f, mapping):
        return f
    if isinstance(f, Atomic):
        return Atomic(substitute_term(f.lhs, mapping), substitute_term(f.rhs, mapping))
    if not isinstance(f, (Exists, Forall)):
        return rebuild(f, substitute, mapping)
    live = {k: v for k, v in mapping.items() if k != f.var}
    if not live:
        return f
    clash = any(f.var in term_vars(v) for v in live.values())
    var = f.var
    body = f.body
    if clash:
        names = FreshNames(all_names(f) | {n for v in live.values() for n in term_vars(v)} | set(live))
        var = names.fresh(f.var)
        body = substitute(body, {f.var: Var(var)})
    body = substitute(body, live)
    return f if var == f.var and body is f.body else type(f)(var, body)


def _binds_a_value_var(f: Formula, mapping: Mapping[str, Term]) -> bool:
    bound = bound_vars(f)
    return bool(bound) and any(not bound.isdisjoint(term_vars(v)) for v in mapping.values())


def rename_bound_apart(f: Formula, taken: set[str] | None = None) -> Formula:
    """Rename bound variables so no name is bound twice or shadows a free
    name; ``f`` itself when it already has that shape."""
    names = FreshNames((taken or set()) | all_names(f))
    used_binders: set[str] = set(free_vars(f)) | (taken or set())

    # ``ren`` maps each renamed binder in scope to its new variable; a
    # binder that keeps its name never shadows a renamed one, since that
    # one's name was already in use
    def walk(g: Formula, ren: dict[str, Var]) -> Formula:
        if isinstance(g, Atomic):
            if not ren:
                return g
            lhs, rhs = substitute_term(g.lhs, ren), substitute_term(g.rhs, ren)
            return g if lhs is g.lhs and rhs is g.rhs else Atomic(lhs, rhs)
        if not isinstance(g, (Exists, Forall)):
            return rebuild(g, walk, ren)
        if g.var not in used_binders:
            used_binders.add(g.var)
            return rebuild(g, walk, ren)
        var = names.fresh(g.var)
        used_binders.add(var)
        return type(g)(var, walk(g.body, {**ren, g.var: Var(var)}))

    return walk(f, {})


# -- tokenizer and parser ---------------------------------------------------------

# every character but white space starts a match, the last kind for a
# character no token begins with
_TOKEN_RE = re.compile(r"(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<arrow>->)|(?P<punct>[().,=!&|])|(?P<bad>\S)")

_Token = tuple[str, str, int]  # kind, text, position


def _tokenize(text: str) -> list[_Token]:
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, bad, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {bad!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature) -> None:
        self.tokens = _tokenize(text)
        self.sig = sig
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok[1] != text:
            raise ParseError(f"expected {text!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def formula(self) -> Formula:
        return self.implies()

    def implies(self) -> Formula:
        lhs = self.disjunction()
        if self.peek()[0] == "arrow":
            self.take()
            return Implies(lhs, self.implies())
        return lhs

    def disjunction(self) -> Formula:
        lhs = self.conjunction()
        while self.peek()[1] == "|":
            self.take()
            lhs = Or(lhs, self.conjunction())
        return lhs

    def conjunction(self) -> Formula:
        lhs = self.unary()
        while self.peek()[1] == "&":
            self.take()
            lhs = And(lhs, self.unary())
        return lhs

    def unary(self) -> Formula:
        kind, text, _ = self.peek()
        if text == "!":
            self.take()
            return Not(self.unary())
        if kind == "ident" and text in ("E", "A") and self.peek(1)[0] == "ident" and self.peek(2)[1] == ".":
            self.take()
            _, var, pos = self.take()
            if not var[0].isupper():
                raise ParseError(f"quantified variable must be capitalized, got {var!r}", pos)
            self.expect(".")
            body = self.formula()
            return Exists(var, body) if text == "E" else Forall(var, body)
        if text == "(":
            self.take()
            inner = self.formula()
            self.expect(")")
            return inner
        return self.atom()

    def atom(self) -> Formula:
        lhs = self.term()
        kind, text, pos = self.take()
        if text == "=":
            return Atomic(lhs, self.term())
        if kind == "ident" and text == "sub":
            return subset_atom(lhs, self.term())
        raise ParseError(f"expected '=' or 'sub' after a term, found {text or 'end of input'!r}", pos)

    def term(self) -> Term:
        kind, name, pos = self.take()
        if kind != "ident":
            raise ParseError(f"expected a term, found {name or 'end of input'!r}", pos)
        arity = self.sig.arity(name)
        if name[0].isupper() and arity is None:
            return Var(name)
        if arity is None:
            raise ParseError(f"unknown symbol {name!r} in signature {self.sig.name}", pos)
        if arity == 0:
            return App(name)
        self.expect("(")
        args = [self.term()]
        while self.peek()[1] == ",":
            self.take()
            args.append(self.term())
        self.expect(")")
        if len(args) != arity:
            raise ParseError(f"{name} takes {arity} argument(s), got {len(args)}", pos)
        return App(name, tuple(args))


def parse(text: str, sig: Signature) -> Formula:
    """Parse a formula over the given signature; bound variables are renamed apart."""
    parser = _Parser(text, sig)
    f = parser.formula()
    kind, rest, pos = parser.take()
    if kind != "end":
        raise ParseError(f"trailing input starting at {rest!r}", pos)
    return rename_bound_apart(f)


# -- printer -------------------------------------------------------------------


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses; ``parse(format_formula(f), sig) == f``."""

    def binary(g: Formula) -> tuple[str, int]:
        # precedence: -> 1, | 2, & 3, ! and atoms 4; quantifiers parenthesized as operands
        if isinstance(g, Atomic):
            if isinstance(g.lhs, App) and g.lhs.op == "cap" and g.lhs.args[0] == g.rhs:
                return f"{g.rhs} sub {g.lhs.args[1]}", 4
            return f"{g.lhs} = {g.rhs}", 4
        if isinstance(g, Not):
            body, prec = binary(g.body)
            if prec < 4:
                body = f"({body})"
            return f"!{body}", 4
        if isinstance(g, And):
            lhs, lp = binary(g.lhs)
            rhs, rp = binary(g.rhs)
            if lp < 3:
                lhs = f"({lhs})"
            if rp <= 3 and not isinstance(g.rhs, (Atomic, Not)):
                rhs = f"({rhs})"
            return f"{lhs} & {rhs}", 3
        if isinstance(g, Or):
            lhs, lp = binary(g.lhs)
            rhs, rp = binary(g.rhs)
            if lp < 2:
                lhs = f"({lhs})"
            if rp <= 2 and not isinstance(g.rhs, (Atomic, Not, And)):
                rhs = f"({rhs})"
            return f"{lhs} | {rhs}", 2
        if isinstance(g, Implies):
            lhs, lp = binary(g.lhs)
            rhs, rp = binary(g.rhs)
            if lp <= 1:
                lhs = f"({lhs})"
            if isinstance(g.rhs, (Exists, Forall)):
                rhs = f"({rhs})"
            return f"{lhs} -> {rhs}", 1
        letter = "E" if isinstance(g, Exists) else "A"
        body, _ = binary(g.body)
        return f"{letter} {g.var}. {body}", 0

    text, _ = binary(f)
    return text


# -- normal forms ----------------------------------------------------------------


def nnf(f: Formula) -> Formula:
    """Negation normal form: no implications, negation only on atoms."""

    def pos(g: Formula) -> Formula:
        if isinstance(g, Not):
            return neg(g.body)
        if isinstance(g, Implies):
            return Or(neg(g.lhs), pos(g.rhs))
        return rebuild(g, pos)

    def neg(g: Formula) -> Formula:
        if isinstance(g, Atomic):
            return Not(g)
        if isinstance(g, Not):
            return pos(g.body)
        if isinstance(g, And):
            return Or(neg(g.lhs), neg(g.rhs))
        if isinstance(g, Or):
            return And(neg(g.lhs), neg(g.rhs))
        if isinstance(g, Implies):
            return And(pos(g.lhs), neg(g.rhs))
        if isinstance(g, Exists):
            return Forall(g.var, neg(g.body))
        return Exists(g.var, neg(g.body))

    return pos(f)


def classify(f: Formula) -> str:
    """Syntactic class after negation normal form.

    ``positive_existential`` (no negation, no universal), then
    ``quantifier_free``, then ``existential`` (negation only on atoms),
    else ``other``.
    """
    kinds = {type(g) for g in subformulas(nnf(f))}
    if not kinds & {Not, Forall}:
        return "positive_existential"
    if not kinds & {Exists, Forall}:
        return "quantifier_free"
    if Forall not in kinds:
        return "existential"
    return "other"


def is_unnested_atom(a: Atomic) -> bool:
    """Shapes v = w, c = v, or g(vars) = w."""
    lhs, rhs = a.lhs, a.rhs
    if isinstance(lhs, Var) and isinstance(rhs, Var):
        return True
    if not isinstance(rhs, Var):
        return False
    if isinstance(lhs, App):
        return all(isinstance(arg, Var) for arg in lhs.args)
    return False


def unnest(f: Formula) -> Formula:
    """Flatten every atom to v = w, c = v, or g(vars) = w.

    Nested arguments get definitional existentials placed at the atom, and
    for a directly negated atom the definitions go outside the negation, so
    a formula without negations stays without negations.
    """
    names = FreshNames(all_names(f))

    def flat(a: Atomic, negate: bool) -> Formula:
        defs: list[tuple[str, App]] = []
        lhs, rhs = a.lhs, a.rhs
        if isinstance(lhs, Var) and isinstance(rhs, App):
            lhs, rhs = rhs, lhs
        core = Atomic(lhs, rhs)
        if not is_unnested_atom(core):
            # flatten arguments of the head application, then the other side
            head = App(lhs.op, tuple(lift(x, None, names, "U", defs) for x in lhs.args))
            core = Atomic(head, lift(rhs, None, names, "U", defs))
        wrapped: Formula = Not(core) if negate else core
        if defs:
            wrapped = and_all([Atomic(app, Var(u)) for u, app in defs] + [wrapped])
        return exists_all([u for u, _ in defs], wrapped)

    def walk(g: Formula) -> Formula:
        if isinstance(g, Atomic):
            return flat(g, negate=False)
        if isinstance(g, Not) and isinstance(g.body, Atomic):
            return flat(g.body, negate=True)
        return rebuild(g, walk)

    return walk(f)


def is_unnested(f: Formula) -> bool:
    return all(is_unnested_atom(g) for g in subformulas(f) if isinstance(g, Atomic))
