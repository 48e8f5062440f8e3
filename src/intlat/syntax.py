"""First-order formulas over the two set signatures.

Terms are variables and prefix applications; atomic formulas are equations
between terms, with ``t sub u`` accepted as input sugar for the equation
``cap(t, u) = t``.  Connectives are ``!``, ``&``, ``|`` and ``->``, from
the tightest binding to the loosest, and quantifiers ``E X.`` / ``A X.``
whose scope extends as far right as possible.  Implication is input sugar:
``a -> b`` groups to the right and is read as ``!a | b``, which is how it
prints, so a formula has six kinds of node.

The two signatures share the lattice symbols; ``ips`` belongs only to the
finite-set signature and the endpoint maps ``l``/``r`` only to the
interval signature.  ``parse`` splits the text into string tokens with one
regular expression and reads them without recursion (terms on a stack of
open applications, connectives by how tightly they bind), checking every
symbol and arity against the requested signature; a token's position is
found only to report an error.  Each node it builds caches its free and
bound names, so only a formula that binds a name twice or also free is
walked by ``rename_bound_apart``: a parsed formula never shadows a name.
``format_formula`` prints on a stack of its own, so it takes any depth,
and so does a node's first hash, which it keeps: the parts that keep
none yet are hashed first, deepest first, on a stack of their own.

Walkers over formulas go through four traversal helpers rather than
dispatching on the node types themselves: ``subformulas`` and ``subterms``
(iterative pre-order scans), ``rebuild`` (the same connective over a
function of each immediate part) and ``lift`` (replace applications by
fresh variables, recording their definitions).  ``count_nodes`` sizes a
formula or term on a stack of its own: each connective, quantifier,
equation, application and variable is one node; ``formula_symbols``
gathers a formula's operation symbols in the same walk.  No node is changed once
built, so the walkers share what they leave alone: ``rebuild``,
``substitute``, ``substitute_term`` and ``rename_bound_apart`` return an
unchanged part as the very same object and build new nodes only along
changed paths.  Nothing enforces this at run time: nodes are slotted
dataclasses with plain stores, which are cheap to build, and
``tests/test_node_writes.py`` checks that no module assigns a node's field
or cache slot but the cache stores here.  ``free_vars`` returns a frozenset
cached on each formula node, beside the set of names bound inside it
(``bound_vars``), and ``term_vars`` one cached on each term, the union of
its arguments' sets, so an equation's free names join its sides' sets
without walking them; each is computed once per node.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Union


class ParseError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- terms ---------------------------------------------------------------------


def _cached_hash(self) -> int:
    # terms and formulas key the solver's memo tables; the generated hash
    # would walk the whole tree on every lookup.  A node hashes its fields,
    # so when a part keeps no hash yet the parts are hashed first, on a
    # stack of our own: no depth reaches the recursion limit
    h = self._hash
    if h is None:
        fields, parts = _fields(self)
        for p in parts:
            if p._hash is None:
                _hash_parts(parts)
                break
        h = self._hash = hash((self.__class__, *fields))
    return h


def _fields(node) -> tuple[tuple, tuple]:
    """The fields of a term or formula in order, and the terms and
    formulas among them."""
    kind = node.__class__
    if kind is Var:
        return (node.name,), ()
    if kind is App:
        return (node.op, node.args), node.args
    if kind is Not:
        parts = (node.body,)
        return parts, parts
    if kind is Exists or kind is Forall:
        return (node.var, node.body), (node.body,)
    parts = (node.lhs, node.rhs)
    return parts, parts


def _hash_parts(parts: tuple) -> None:
    """Hash each of ``parts`` and every node below them that keeps no hash
    yet, each after the nodes below it, so that each hash reads kept
    hashes only and stores its own; a shared node is hashed once."""
    stack = [(p, False) for p in parts]
    while stack:
        node, below_hashed = stack.pop()
        if below_hashed:
            hash(node)
        elif node._hash is None:
            stack.append((node, True))
            stack += [(p, False) for p in _fields(node)[1]]


@dataclass(slots=True)
class _TermCache:
    # the names term_vars caches on a term, and its hash, each None until asked
    _vars: Optional[frozenset[str]] = field(default=None, init=False, repr=False, compare=False)
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)


@dataclass(slots=True)
class Var(_TermCache):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(slots=True)
class App(_TermCache):
    op: str
    args: tuple["Term", ...] = ()

    def __str__(self) -> str:
        args = self.args
        if len(args) == 2:  # no operation takes more than two arguments
            return f"{self.op}({args[0]}, {args[1]})"
        return f"{self.op}({args[0]})" if args else self.op


Term = Union[Var, App]

for _kind in Term.__args__:
    _kind.__hash__ = _cached_hash


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


@dataclass(slots=True)
class _FormulaCache:
    # the names free_vars and bound_vars cache on a formula, and its hash,
    # each None until asked
    _free: Optional[frozenset[str]] = field(default=None, init=False, repr=False, compare=False)
    _bound: Optional[frozenset[str]] = field(default=None, init=False, repr=False, compare=False)
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)


@dataclass(slots=True)
class Atomic(_FormulaCache):
    lhs: Term
    rhs: Term


@dataclass(slots=True)
class Not(_FormulaCache):
    body: "Formula"


@dataclass(slots=True)
class And(_FormulaCache):
    lhs: "Formula"
    rhs: "Formula"


@dataclass(slots=True)
class Or(_FormulaCache):
    lhs: "Formula"
    rhs: "Formula"


@dataclass(slots=True)
class Exists(_FormulaCache):
    var: str
    body: "Formula"


@dataclass(slots=True)
class Forall(_FormulaCache):
    var: str
    body: "Formula"


Formula = Union[Atomic, Not, And, Or, Exists, Forall]

for _kind in Formula.__args__:
    _kind.__hash__ = _cached_hash


def subset_atom(s: Term, t: Term) -> Atomic:
    """The containment ``s sub t`` as its defining equation ``cap(s, t) = s``."""
    return Atomic(cap(s, t), s)


def _endpoint_pair(b: Term, c: Term) -> Atomic:
    """The endpoint lemma as one equation: (b, c) is the endpoint pair of
    some interval union.  With K = b - c, the points of b - c open a
    segment or the ray; they are those followed by a point of c - b, and
    the greatest boundary point when it opens the ray (that point closes a
    segment, in c, or opens the ray, in K, never both).  The term
    ``min(b cup c) - b`` lies in c - b, which K misses, so it adds that b
    holds the least boundary point; an empty b then forces an empty c."""
    bd = cup(b, c)
    kept = diff_t(b, c)
    return Atomic(cup(cup(ips_t(bd, diff_t(c, b)), cap(max_t(bd), kept)), diff_t(min_t(bd), b)), kept)


def delta_domain(b: Term = Var("B"), c: Term = Var("C")) -> Formula:
    """(b, c) is the endpoint pair of some nonempty interval union: b is
    not empty and the endpoint equation of ``valid_pair`` holds."""
    return And(Not(Atomic(b, bot())), _endpoint_pair(b, c))


def valid_pair(vl: str, vr: str) -> Atomic:
    """(vl, vr) is the coordinate image of some interval union, the empty
    one included: one equation, no case split."""
    return _endpoint_pair(Var(vl), Var(vr))


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
        if isinstance(g, (And, Or)):
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


def count_nodes(node: Union[Formula, Term]) -> int:
    """The size of a formula or term: each connective, quantifier,
    equation, application and variable is one node."""
    total, stack = 0, [node]
    while stack:
        n = stack.pop()
        total += 1
        kind = n.__class__
        if kind is App:
            stack += n.args
        elif kind is Atomic or kind is And or kind is Or:
            stack += (n.lhs, n.rhs)
        elif kind is not Var:
            stack.append(n.body)
    return total


def rebuild(f: Formula, fn, *args) -> Formula:
    """The connective or quantifier of ``f`` over ``fn(g, *args)`` of each
    immediate part ``g``, evaluated left to right; an equation comes back
    as it is, and so does ``f`` when ``fn`` returns every part as it is.
    Walkers pass their context in ``args`` rather than through a closure,
    which would cost a stack frame per level of nesting."""
    if isinstance(f, Atomic):
        return f
    if isinstance(f, (And, Or)):
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


def lift(t: Term, ops: tuple[str, ...], names: "FreshNames", base: str, defs: list) -> Term:
    """``t`` with each application of an operation in ``ops`` replaced,
    innermost first, by a fresh variable named after ``base``.  Appends
    ``(name, application)`` to ``defs`` for each, the application taken
    over the already-lifted arguments."""
    if isinstance(t, Var):
        return t
    app = App(t.op, tuple(lift(a, ops, names, base, defs) for a in t.args))
    if t.op not in ops:
        return app
    name = names.fresh(base)
    defs.append((name, app))
    return Var(name)


# -- signatures ----------------------------------------------------------------


@dataclass(unsafe_hash=True)
class Signature:
    name: str
    symbols: tuple[tuple[str, int], ...]
    finite_sets: bool  # interpreted in finite sets, else in interval unions

    def __post_init__(self) -> None:
        # symbol -> arity: the parser looks one up at every term token
        self.arities = dict(self.symbols)


_SHARED = (("cup", 2), ("cap", 2), ("bot", 0), ("cz", 0), ("min", 1), ("max", 1))
_LATTICE = ("cup", "cap")  # join and meet, the only operations unnest lifts

SIG_W = Signature("w", _SHARED + (("ips", 2),), True)
SIG_L = Signature("l", _SHARED + (("l", 1), ("r", 1)), False)

# the finite-set signature with relative complement, in which the coordinate
# forms of interval formulas print: their guards and templates use diff
SIG_W_DIFF = Signature("w+diff", SIG_W.symbols + (("diff", 2),), True)


def term_symbols(t: Term) -> set[str]:
    return {s.op for s in subterms(t) if isinstance(s, App)}


def formula_symbols(f: Formula) -> set[str]:
    """The operation symbols of ``f``'s terms, in one walk on a stack of
    its own, shaped like ``count_nodes``."""
    out: set[str] = set()
    stack = [f]
    while stack:
        n = stack.pop()
        kind = n.__class__
        if kind is App:
            out.add(n.op)
            stack += n.args
        elif kind is Atomic or kind is And or kind is Or:
            stack += (n.lhs, n.rhs)
        elif kind is not Var:
            stack.append(n.body)
    return out


# -- variables and substitution --------------------------------------------------


_NO_NAMES: frozenset[str] = frozenset()


def term_vars(t: Term) -> frozenset[str]:
    """The variable names of ``t``, computed once per node and cached on
    it: an application's set is the union of its arguments' cached sets."""
    names = t._vars
    if names is None:
        if t.__class__ is Var:
            names = frozenset((t.name,))
        else:
            names = _NO_NAMES
            for a in t.args:
                got = a._vars or term_vars(a)
                names = _union(names, got) if names else got
        t._vars = names
    return names


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    # a part's own set when it already holds the other's: most do
    return a if b <= a else b if a <= b else a | b


def free_vars(f: Formula) -> frozenset[str]:
    """The free variable names of ``f``, computed once per node and cached
    on it, together with the names bound anywhere inside it."""
    free = f._free
    if free is not None:
        return free
    # a part's cached set, computed here only when it has none (or is empty)
    kind = f.__class__
    if kind is Atomic:
        lhs, rhs = f.lhs, f.rhs
        free, bound = _union(lhs._vars or term_vars(lhs), rhs._vars or term_vars(rhs)), _NO_NAMES
    elif kind is And or kind is Or:
        a, b = f.lhs, f.rhs
        free = _union(a._free or free_vars(a), b._free or free_vars(b))
        bound = _union(a._bound, b._bound)
    else:
        free, bound = f.body._free or free_vars(f.body), f.body._bound
        if kind is not Not:
            free = free - {f.var} if f.var in free else free
            bound = bound if f.var in bound else bound | {f.var}
    f._free = free
    f._bound = bound
    return free


def bound_vars(f: Formula) -> frozenset[str]:
    """Every name a quantifier inside ``f`` binds, cached like ``free_vars``."""
    if f._bound is None:
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
    if t.__class__ is Var:
        return mapping.get(t.name, t)
    args = t.args
    if len(args) == 2:
        a, b = args
        a1, b1 = substitute_term(a, mapping), substitute_term(b, mapping)
        return t if a1 is a and b1 is b else App(t.op, (a1, b1))
    if not args:
        return t
    (a,) = args  # no operation takes more than two arguments
    a1 = substitute_term(a, mapping)
    return t if a1 is a else App(t.op, (a1,))


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


def rename_bound_apart(f: Formula) -> Formula:
    """Rename bound variables so no name is bound twice or shadows a free
    name; ``f`` itself when it already has that shape."""
    names = FreshNames(all_names(f))
    used_binders = set(free_vars(f))

    # ``ren`` maps each renamed binder in scope to its new variable; a
    # binder that keeps its name never shadows a renamed one, since that
    # one's name was already in use.  A part binding nothing, with no renamed
    # name free, comes back as it is.
    def walk(g: Formula, ren: dict[str, Var]) -> Formula:
        if not bound_vars(g) and ren.keys().isdisjoint(free_vars(g)):
            return g
        if isinstance(g, Atomic):
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

# every character but white space starts a token; one that no token begins
# with is a token of its own, reported as an unexpected character
_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|->|[().,=!&|]|\S")
_LETTERS = frozenset(string.ascii_letters)
_PUNCT = frozenset(("->", "(", ")", ".", ",", "=", "!", "&", "|"))
# how tightly each binary connective binds; ``->`` groups to the right and
# builds ``!a | b``.  A pending ``!`` binds tighter than all, a quantifier
# looser than all, and an open parenthesis is closed only by its ``)``
_BINARY = {"&": (3, And), "|": (2, Or), "->": (1, lambda a, b: Or(Not(a), b))}
_PREFIX = {"!": (4, Not, None), "(": (-2, None, None)}
_CONNECTIVE = {And: "&", Or: "|"}
# how tightly the printed text of each kind of node binds, as the parser
# reads it: parenthesized as an operand of a connective binding tighter
_STRENGTH = {Atomic: 4, Not: 4, And: 3, Or: 2, Exists: 0, Forall: 0}
_JOIN = object()  # on the printer's stack: the node below has its parts printed


def _error(text: str, index: int, message: str) -> ParseError:
    """The error for the token at ``index``, unless the text holds an
    unexpected character: the first of those is reported instead."""
    found = list(_TOKEN_RE.finditer(text))
    for m in found:
        if m.group()[0] not in _LETTERS and m.group() not in _PUNCT:
            return ParseError(f"unexpected character {m.group()!r}", m.start())
    return ParseError(message, found[index].start() if index < len(found) else len(text))


def parse(text: str, sig: Signature) -> Formula:
    """Parse a formula over the given signature; bound variables are renamed apart."""
    toks = _TOKEN_RE.findall(text) + ["", ""]  # end of input, and a token of lookahead past it
    arities = sig.arities
    leaves: dict[str, Term] = {}  # one object per variable or constant

    def term(i: int) -> tuple[Term, int]:
        apps: list = []  # open applications: (symbol, token index, arguments)
        while True:
            tok = toks[i]
            n = arities.get(tok)
            if n:
                if toks[i + 1] != "(":
                    raise _error(text, i + 1, f"expected '(', found {toks[i + 1] or 'end of input'!r}")
                apps.append((tok, i, []))
                i += 2
                continue
            t = leaves.get(tok)
            if t is None:
                if n == 0:
                    t = App(tok)
                elif tok[:1] not in _LETTERS:
                    raise _error(text, i, f"expected a term, found {tok or 'end of input'!r}")
                elif tok[0].isupper():
                    t = Var(tok)
                else:
                    raise _error(text, i, f"unknown symbol {tok!r} in signature {sig.name}")
                leaves[tok] = t
            i += 1
            while apps:
                op, at, args = apps[-1]
                args.append(t)
                tok = toks[i]
                i += 1
                if tok == ",":
                    break
                if tok != ")":
                    raise _error(text, i - 1, f"expected ')', found {tok or 'end of input'!r}")
                apps.pop()
                if len(args) != arities[op]:
                    raise _error(text, at, f"{op} takes {arities[op]} argument(s), got {len(args)}")
                t = App(op, tuple(args))
            else:
                return t, i

    # operator precedence without recursion: ``pending`` holds each operator
    # still open as (binding strength, constructor, left operand or bound
    # variable), and ``f`` is the formula last completed
    pending: list = []
    quantifiers = 0
    i = 0
    while True:
        while True:
            tok = toks[i]
            if tok in _PREFIX:
                pending.append(_PREFIX[tok])
            elif (tok == "E" or tok == "A") and toks[i + 1][:1] in _LETTERS and toks[i + 2] == ".":
                var = toks[i + 1]
                if not var[0].isupper():
                    raise _error(text, i + 1, f"quantified variable must be capitalized, got {var!r}")
                pending.append((0, Exists if tok == "E" else Forall, var))
                quantifiers += 1
                i += 2
            else:
                break
            i += 1
        lhs, i = term(i)
        tok = toks[i]
        if tok != "=" and tok != "sub":
            raise _error(text, i, f"expected '=' or 'sub' after a term, found {tok or 'end of input'!r}")
        rhs, i = term(i + 1)
        f = Atomic(lhs, rhs) if tok == "=" else subset_atom(lhs, rhs)
        free_vars(f)
        while True:
            tok = toks[i]
            strength, connective = _BINARY.get(tok, (-1, None))
            while pending and (pending[-1][0] > strength or pending[-1][0] == strength > 1):
                _, make, part = pending.pop()
                f = make(f) if part is None else make(part, f)
                free_vars(f)
            if connective is not None:
                pending.append((strength, connective, f))
                i += 1
                break
            if tok == ")" and pending:
                pending.pop()
                i += 1
            elif pending:
                raise _error(text, i, f"expected ')', found {tok or 'end of input'!r}")
            elif tok:
                raise _error(text, i, f"trailing input starting at {tok!r}")
            else:
                bound = f._bound
                return f if len(bound) == quantifiers and f._free.isdisjoint(bound) else rename_bound_apart(f)


# -- printer -------------------------------------------------------------------


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses.  ``parse(format_formula(f), sig)``
    is ``rename_bound_apart(f)``: it is ``f`` itself only when ``f`` binds
    no name twice and binds no name that is also free."""
    # on a stack of its own, so any depth prints: a node comes off it once
    # to push its parts and again, after _JOIN, to join their texts
    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        if g is _JOIN:
            g = stack.pop()
            kind = g.__class__
            if kind is Not:
                body = out.pop()
                out.append(f"!{body}" if _STRENGTH[g.body.__class__] == 4 else f"!({body})")
            elif kind in _CONNECTIVE:
                # & and | group to the left
                strength, rhs, lhs = _STRENGTH[kind], out.pop(), out.pop()
                lhs = f"({lhs})" if _STRENGTH[g.lhs.__class__] < strength else lhs
                rhs = f"({rhs})" if _STRENGTH[g.rhs.__class__] <= strength else rhs
                out.append(f"{lhs} {_CONNECTIVE[kind]} {rhs}")
            else:
                out.append(f"{'E' if kind is Exists else 'A'} {g.var}. {out.pop()}")
        elif g.__class__ is Atomic:
            lhs = g.lhs
            if lhs.__class__ is App and lhs.op == "cap" and lhs.args[0] == g.rhs:
                out.append(f"{g.rhs} sub {lhs.args[1]}")
            else:
                out.append(f"{lhs} = {g.rhs}")
        else:
            stack += (g, _JOIN, g.rhs, g.lhs) if g.__class__ in _CONNECTIVE else (g, _JOIN, g.body)
    return out[0]


# -- normal forms ----------------------------------------------------------------


def nnf(f: Formula) -> Formula:
    """Negation normal form: negation only on atoms.  A part already in
    that form comes back as the same object.  There is no implication to
    remove: the parser reads ``a -> b`` as ``!a | b``, which prints so."""

    def pos(g: Formula) -> Formula:
        if isinstance(g, Not):
            # a negated equation is in normal form already
            return g if isinstance(g.body, Atomic) else neg(g.body)
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
    """Shapes s = t and g(s, t) = u, g a ``cup`` or ``cap`` and no ``cup``
    or ``cap`` in s, t or u."""
    lhs = a.lhs
    sides = lhs.args if lhs.__class__ is App and lhs.op in _LATTICE else (lhs,)
    return not any(term_symbols(t).intersection(_LATTICE) for t in (*sides, a.rhs))


def unnest(f: Formula) -> Formula:
    """Flatten every atom to s = t or g(s, t) = u, g a ``cup`` or ``cap``
    and no ``cup`` or ``cap`` in s, t or u.

    Each nested ``cup`` or ``cap`` gets a definitional existential placed
    at the atom, and for a directly negated atom the definitions go outside
    the negation (a double negation is dropped, so an atom keeps its
    polarity), so a formula without negations stays without negations.
    Under an odd number of negations an atom ``a`` is written
    ``!(E U. defs & !a)``, so negation normal form keeps every definitional
    quantifier existential: an existential formula unnests to one.
    """
    names = FreshNames(all_names(f))

    def flat(a: Atomic, negate: bool, odd: bool) -> Formula:
        defs: list[tuple[str, App]] = []
        lhs, rhs = a.lhs, a.rhs
        if rhs.__class__ is App and (lhs.__class__ is Var or rhs.op in _LATTICE):
            lhs, rhs = rhs, lhs
        core = Atomic(lhs, rhs)
        if not is_unnested_atom(core):
            # lift inside the head application, then the other side
            head = App(lhs.op, tuple(lift(x, _LATTICE, names, "U", defs) for x in lhs.args))
            core = Atomic(head, lift(rhs, _LATTICE, names, "U", defs))
        if not defs:
            return Not(core) if negate else core
        wrapped: Formula = Not(core) if negate != odd else core
        block = exists_all([u for u, _ in defs], and_all([Atomic(app, Var(u)) for u, app in defs] + [wrapped]))
        return Not(block) if odd else block

    def walk(g: Formula, odd: bool) -> Formula:
        if isinstance(g, Atomic):
            return flat(g, False, odd)
        if isinstance(g, Not):
            if isinstance(g.body, Atomic):
                return flat(g.body, True, odd)
            if isinstance(g.body, Not):
                return walk(g.body.body, odd)
            return Not(walk(g.body, not odd))
        return rebuild(g, walk, odd)

    return walk(f, False)
