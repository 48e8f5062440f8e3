"""Bounded evaluation of formulas in both structures.

Quantifiers cannot range over everything, so they range over a witness
pool: every subset of the pool's points on the finite-set side, every
normalized interval union with endpoints among those points (segment
count and ray permitting) on the interval side.  ``eval_bounded`` is
exact for that relativized semantics.  The solver prunes candidate
witnesses only when a conjunct forces the value outright (a definitional
pin) or bounds it to a small shape (a guard atom); pruning never changes
the answer, it only skips values that could not satisfy the conjuncts.
Each step of the search checks the conjuncts already decided, applies a
pin, splits a disjunction, enumerates a valid endpoint pair, applies a
guard, or else ranges over the universe.
``_Rule`` lists the pin and guard patterns.  Every guard is sized before
any candidate is built, and only the smallest is built, so a pool over an
enumeration cap is refused only when the chosen step must enumerate it.
An ``EvalCache`` interns each distinct term once and memoizes the values
it takes, so the solver computes a repeated subterm once per set of
values; equations read their sides from that memo and stay out of the
verdict table.

The solver works on cell masks over point ranks: ``eval_bounded`` ranks
each point of the pool and of the assigned values among them, so 0, the
least point of every pool, has rank 0, and writes each value as one int
(``fci._held``, the kernels' encoder, writes an interval union).
The point of rank i is bit 2i and the open gap above it bit 2i+1; a ray
holds every bit from its start up, a negative int, and a finite set its
point bits only.  Union and intersection are ``|`` and ``&``, ``l``,
``r``, ``min`` and ``max`` are shifts and lowest or highest bits, and
pins, guards and universes are built as masks in the enumerators' order.
Every operation and every witness universe depends only on the order of
the points and on 0, and no solver step creates a point, so the verdict
on masks is the verdict on the rationals.  The search reads one
``_Space``: the pool's ranked points and bounds and the structure.  Ints
compare and hash cheaply, and every pool and assignment of one order
type shares one space, its universes and every ``EvalCache`` entry.
``eval_term``, ``eval_qf`` and ``universe`` keep the rational
``FinSet``/``FciSet`` values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .fci import EMPTY_FCI, FciSet, _held, embed_finset, zero_fci
from .finset import EMPTY_FS, FinSet, zero_set
from .order import ZERO, Point, above, midpoint
from .oracle import enum_fcis, enum_finsets, fci_masks, subset_masks
from .syntax import (
    And,
    App,
    Atomic,
    Exists,
    Forall,
    Formula,
    FreshNames,
    Implies,
    Not,
    Or,
    SIG_L,
    SIG_W,
    SIG_W_DIFF,
    Signature,
    Term,
    Var,
    formula_symbols,
    free_vars,
    nnf,
    operands,
    substitute,
    valid_pair,
)

Value = Union[FinSet, FciSet]
Assignment = dict


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class WitnessPool:
    """The points quantified witnesses may be built from.

    ``pair_points``, when set, restricts the endpoint pairs enumerated for
    jointly-quantified coordinate variables to a coarser point set; point
    witnesses still range over all of ``points``.  Useful when assignment
    values live on a small grid but telling sets apart needs points in
    between.
    """

    points: FinSet
    max_segments: int
    allow_ray: bool = True
    pair_points: Optional[FinSet] = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a witness pool needs at least one point")
        if ZERO not in self.points:
            raise ValueError("a witness pool must contain 0")
        if self.max_segments < 0:
            raise ValueError("max_segments must be nonnegative")
        if self.pair_points is not None and not self.pair_points.issubset(self.points):
            raise ValueError("pair_points must be a subset of points")


def widened(points: Iterable[Point]) -> FinSet:
    """The points, the midpoint of each neighbouring pair, and one point
    above the largest."""
    ordered = sorted(set(points))
    if not ordered:
        raise ValueError("cannot widen an empty set of points")
    mids = [midpoint(x, y) for x, y in zip(ordered, ordered[1:])]
    return FinSet.of(ordered + mids + [above(ordered[-1])])


def _value_points(v: Value) -> tuple[Point, ...]:
    """The points a value is built from: its elements or its boundary."""
    return v.elements if isinstance(v, FinSet) else v.boundary().elements


def default_pool(a: Assignment) -> WitnessPool:
    """Zero and every boundary point of the assigned values, widened."""
    pts = {ZERO}
    for v in a.values():
        if not isinstance(v, (FinSet, FciSet)):
            raise TypeError(f"assignment values must be FinSet or FciSet, got {type(v).__name__}")
        pts.update(_value_points(v))
    points = widened(pts)
    return WitnessPool(points=points, max_segments=len(points), allow_ray=True)


def _infer_sig(f: Formula, a: Assignment) -> Signature:
    for v in a.values():
        if isinstance(v, FinSet):
            return SIG_W
        if isinstance(v, FciSet):
            return SIG_L
    syms = formula_symbols(f)
    if "diff" in syms:
        return SIG_W_DIFF
    if "ips" in syms:
        return SIG_W
    if syms & {"l", "r"}:
        return SIG_L
    raise EvalError("cannot infer the signature from the assignment or symbols; pass sig")


# -- term and quantifier-free evaluation -------------------------------------------


# op -> (the structure it belongs to, True finite sets and False interval
# unions, None both; its value from the values of its arguments)
_OPS: dict[str, tuple[Optional[bool], Callable[[list, bool], Value]]] = {
    "bot": (None, lambda args, w: EMPTY_FS if w else EMPTY_FCI),
    "cz": (None, lambda args, w: zero_set() if w else zero_fci()),
    "cup": (None, lambda args, w: args[0].union(args[1])),
    "cap": (None, lambda args, w: args[0].intersect(args[1])),
    "min": (None, lambda args, w: args[0].min_set()),
    "max": (None, lambda args, w: args[0].max_set()),
    "ips": (True, lambda args, w: args[0].ips(args[1])),
    "diff": (True, lambda args, w: args[0].difference(args[1])),
    "l": (False, lambda args, w: embed_finset(args[0].left_endpoints())),
    "r": (False, lambda args, w: embed_finset(args[0].right_endpoints())),
}


def _apply(op: str, args: list, finite_sets: bool, ops: dict = _OPS) -> Value:
    """The value of ``op`` on argument values, in the structure chosen by
    ``finite_sets``."""
    try:
        only, fn = ops[op]
    except KeyError:
        raise EvalError(f"unknown operation {op}") from None
    if only is not None and only != finite_sets:
        structure = "finite-set" if finite_sets else "interval"
        raise EvalError(f"{op} is not an operation of the {structure} structure")
    return fn(args, finite_sets)


def eval_term(t: Term, a: Assignment, sig: Signature) -> Value:
    if isinstance(t, Var):
        try:
            return a[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name}") from None
    return _apply(t.op, [eval_term(x, a, sig) for x in t.args], sig.finite_sets)


def eval_qf(f: Formula, a: Assignment, sig: Signature) -> bool:
    if isinstance(f, Atomic):
        return eval_term(f.lhs, a, sig) == eval_term(f.rhs, a, sig)
    if isinstance(f, Not):
        return not eval_qf(f.body, a, sig)
    if isinstance(f, And):
        return eval_qf(f.lhs, a, sig) and eval_qf(f.rhs, a, sig)
    if isinstance(f, Or):
        return eval_qf(f.lhs, a, sig) or eval_qf(f.rhs, a, sig)
    if isinstance(f, Implies):
        return not eval_qf(f.lhs, a, sig) or eval_qf(f.rhs, a, sig)
    raise EvalError(f"quantifier on {f.var} in a quantifier-free evaluation")


# -- witness universes --------------------------------------------------------------


def universe(pool: WitnessPool, sig: Signature) -> tuple[Value, ...]:
    """Every value a quantified variable ranges over."""
    if sig.finite_sets:
        return tuple(enum_finsets(pool.points))
    return tuple(enum_fcis(pool.points, pool.max_segments, pool.allow_ray))


# -- cell masks (see the module docstring) ------------------------------------------


def _left(x: int) -> int:
    """``l``: every held cell whose cell below is not held."""
    return x & ~(x << 1)


def _right(x: int) -> int:
    """``r``: every held cell whose cell above is not held; a ray has none."""
    return x & ~(x >> 1)


def _top(x: int) -> int:
    """``max``: the highest held cell, none for a ray."""
    return 1 << x.bit_length() - 1 if x > 0 else 0


def _ips(a: int, b: int) -> int:
    """The points of ``a`` whose successor inside ``a`` is a point of ``b``."""
    out = 0
    while a:
        low = a & -a
        a ^= low
        if a & -a & b:
            out |= low
    return out


# _OPS on the masks of the arguments
_MASK_OPS: dict[str, tuple[Optional[bool], Callable[[list, bool], int]]] = {
    "bot": (None, lambda args, w: 0),
    "cz": (None, lambda args, w: 1),
    "cup": (None, lambda args, w: args[0] | args[1]),
    "cap": (None, lambda args, w: args[0] & args[1]),
    "min": (None, lambda args, w: args[0] & -args[0]),
    "max": (None, lambda args, w: _top(args[0])),
    "ips": (True, lambda args, w: _ips(*args)),
    "diff": (True, lambda args, w: args[0] & ~args[1]),
    "l": (False, lambda args, w: _left(args[0])),
    "r": (False, lambda args, w: _right(args[0])),
}


def _difference_closed(x: int, y: int) -> Optional[int]:
    """``x`` minus ``y`` when it is a union, else None (as
    ``difference_closed``): no run of its cells starts or ends at a gap,
    an odd bit."""
    d = x & ~y
    ends = _left(d) | _right(d)
    odd = ((4 ** ((ends.bit_length() + 1) // 2) - 1) // 3) << 1
    return None if ends & odd else d


def _from_endpoints(b: int, c: int) -> Optional[int]:
    """The union whose left and right endpoints are ``b`` and ``c``, or
    None (the endpoint lemma, as ``build_from_endpoints``; the empty union
    for two empty sets).  The only candidate holds every point of ``b``
    and ``c`` and, from each point of b - c, every cell up to the next of
    those points, or up forever."""
    if b & b >> 1 or c & c >> 1:
        return None  # not two finite sets
    both = x = b | c
    opens = b & ~c
    while opens:
        p = opens & -opens
        opens ^= p
        above = both & -(p << 1)
        x |= (above & -above) - p if above else -p
    return x if _left(x) == b and _right(x) == c else None


# -- the search space on point ranks ------------------------------------------------

# Pools a caller is still using stay cached; a caller that builds a pool
# per item (the pipeline suite does) must not grow these tables forever.
_POOL_CACHE_SIZE = 32


class _Space(NamedTuple):
    """What the search reads of a pool in one structure, points renamed to
    ranks; pools of one order type share it and every table it keys."""

    points: tuple[int, ...]
    max_segments: int
    allow_ray: bool
    pair_points: tuple[int, ...]  # the points when the pool sets none
    finite_sets: bool
    cells: int  # the point cells


def _in_universe(x: int, space: _Space) -> bool:
    """Whether ``x`` is a value of the space's universe."""
    outside = ~space.cells
    if space.finite_sets:
        return not x & outside
    ends = _right(x)
    return (
        not (_left(x) | ends) & outside
        and ends.bit_count() <= space.max_segments
        and (x >= 0 or space.allow_ray)
    )


@lru_cache(maxsize=_POOL_CACHE_SIZE)
def _masks(space: _Space) -> tuple[int, ...]:
    """``universe`` of the space, as masks in the same order."""
    if space.finite_sets:
        return tuple(subset_masks(space.points))
    return tuple(fci_masks(space.points, space.max_segments, space.allow_ray))


@lru_cache(maxsize=_POOL_CACHE_SIZE)
def _endpoint_pairs(space: _Space) -> tuple[tuple[int, int], ...]:
    # one pair per interval union over the pair points; covers (bot, bot)
    pairs = space.pair_points
    return tuple((_left(u), _right(u)) for u in fci_masks(pairs, len(pairs), True))


class _Ranks(NamedTuple):
    """The rank of each point, the pool's space per structure (interval
    side first) and the mask of every value already seen."""

    rank: dict
    spaces: tuple[_Space, _Space]
    values: dict


def _ranks(pool: WitnessPool, points: Iterable[Point]) -> _Ranks:
    rank = {p: i for i, p in enumerate(sorted(points))}
    ranked = tuple(rank[p] for p in pool.points.elements)
    pairs = ranked if pool.pair_points is None else tuple(rank[p] for p in pool.pair_points.elements)
    cells = sum(1 << 2 * r for r in ranked)
    spaces = tuple(_Space(ranked, pool.max_segments, pool.allow_ray, pairs, w, cells) for w in (False, True))
    return _Ranks(rank, spaces, {})


@lru_cache(maxsize=_POOL_CACHE_SIZE)
def _pool_ranks(pool: WitnessPool) -> _Ranks:
    return _ranks(pool, pool.points)


def _mask(v: Value, rank: dict) -> int:
    """The cells ``v`` holds over the ranked points."""
    if isinstance(v, FinSet):
        return sum(1 << 2 * rank[p] for p in v.elements)
    return _held(rank, v.segments, v.ray_lo)


def _rank_assignment(a: Assignment, pool: WitnessPool, finite_sets: bool) -> tuple[dict, _Space]:
    """The assignment as masks and the pool's space in the structure, each
    point renamed to its rank among the pool's points and the values'."""
    ranks = _pool_ranks(pool)
    env = {}
    try:
        for name, v in a.items():
            got = ranks.values.get(v)
            if got is None:
                got = ranks.values[v] = _mask(v, ranks.rank)
            env[name] = got
    except KeyError:
        # a point outside the pool: rank this call's points afresh, keep nothing
        ranks = _ranks(pool, set(pool.points.elements).union(*map(_value_points, a.values())))
        env = {name: _mask(v, ranks.rank) for name, v in a.items()}
    return env, ranks.spaces[finite_sets]


# -- the solver ---------------------------------------------------------------------


class _Term:
    """One term interned in an ``EvalCache``, with the values it has taken.

    ``vals`` maps the values of ``names`` (the term's variables, sorted) and
    ``finite_sets`` to the term's value, so a subterm repeated across
    conjuncts and assignments is computed once per set of values.  Values
    are cell masks, as everywhere in the solver, so ``cz`` is 1.  An error
    is raised again on every call, never memoized."""

    __slots__ = ("var", "op", "args", "names", "_key", "vals")

    def __init__(self, t: Term, args: tuple[_Term, ...]) -> None:
        self.var = t.name if isinstance(t, Var) else None
        self.op = None if self.var is not None else t.op
        self.args = args
        names = sorted({self.var} if self.var is not None else set().union(*(a.names for a in args)))
        self.names = tuple(names)
        self._key = itemgetter(*names) if names else (lambda env: ())
        self.vals: dict[tuple, int] = {}

    def value(self, env: dict, finite_sets: bool) -> int:
        """What ``eval_term`` returns for this term, as a mask."""
        if self.var is not None:
            try:
                return env[self.var]
            except KeyError:
                raise EvalError(f"unbound variable {self.var}") from None
        try:
            key = (self._key(env), finite_sets)
        except KeyError:
            # an unbound variable: the walk raises eval_term's error
            return _apply(self.op, [a.value(env, finite_sets) for a in self.args], finite_sets, _MASK_OPS)
        got = self.vals.get(key)
        if got is None:
            got = _apply(self.op, [a.value(env, finite_sets) for a in self.args], finite_sets, _MASK_OPS)
            self.vals[key] = got
        return got


class _Node(NamedTuple):
    """What the solver reads off one formula node, once per structure."""

    formula: Formula
    fv: frozenset[str]
    names: tuple[str, ...]  # fv sorted: the order of the values in a verdict key
    rules: tuple[_Rule, ...]  # of an equation
    pair: Optional[tuple[str, str]]  # of a disjunction that is a valid-pair relativizer
    sides: Optional[tuple[_Term, _Term]]  # of an equation, interned


class EvalCache:
    """Shared memo for bounded evaluation, keyed by formula structure.

    Structurally equal formulas share every entry, so the conjuncts
    ``_normalize`` rebuilds for each set of names in scope share one node.
    Every distinct term is interned once (``term``) and memoizes its own
    values; equations compare their memoized sides and so are kept out of
    the verdict table, whose keys hold the search space.  Spaces are on
    point ranks and values are cell masks over them, so every pool and
    assignment of one order type shares the same entries.
    """

    def __init__(self) -> None:
        self._vals: dict[tuple, bool] = {}
        self._norm: dict[tuple, tuple[tuple[str, ...], tuple[_Node, ...]]] = {}
        self._nodes: dict[Formula, _Node] = {}
        self._terms: dict[Term, _Term] = {}

    def term(self, t: Term) -> _Term:
        """The one interned ``_Term`` of ``t`` and of every term equal to it."""
        got = self._terms.get(t)
        if got is None:
            args = tuple(map(self.term, t.args)) if isinstance(t, App) else ()
            got = self._terms[t] = _Term(t, args)
        return got

    def node(self, f: Formula) -> _Node:
        """The solver's bundle for ``f`` and every formula equal to it."""
        got = self._nodes.get(f)
        if got is None:
            fv = frozenset(free_vars(f))
            atomic = isinstance(f, Atomic)
            rules = _atom_rules(f, self.term) if atomic else ()
            pair = _match_valid_pair(f) if isinstance(f, Or) else None
            sides = (self.term(f.lhs), self.term(f.rhs)) if atomic else None
            got = self._nodes[f] = _Node(f, fv, tuple(sorted(fv)), rules, pair, sides)
        return got

    def normalized(self, f: Formula, taken: frozenset[str]) -> tuple[tuple[str, ...], tuple[_Node, ...]]:
        """Solver normal form of ``f``, memoized: the conjuncts of its negation
        normal form, existentials hoisted.  The result depends on the names
        in scope but never on their values."""
        key = (f, taken)
        hit = self._norm.get(key)
        if hit is None:
            hoisted: list[str] = []
            conjuncts = _normalize(hoisted, nnf(f), set(taken))
            hit = self._norm[key] = (tuple(hoisted), tuple(self.node(c) for c in conjuncts))
        return hit


def eval_bounded(
    f: Formula,
    a: Assignment,
    pool: WitnessPool,
    sig: Optional[Signature] = None,
    cache: Optional[EvalCache] = None,
) -> bool:
    if sig is None:
        sig = _infer_sig(f, a)
    if cache is None:
        cache = EvalCache()
    missing = cache.node(f).fv - a.keys()
    if missing:
        raise EvalError(f"assignment is missing {sorted(missing)}")
    want = FinSet if sig.finite_sets else FciSet
    for name, val in a.items():
        if not isinstance(val, want):
            raise EvalError(f"{name} is bound to {type(val).__name__}, expected {want.__name__}")
    env, space = _rank_assignment(a, pool, sig.finite_sets)
    return _eval(f, env, space, cache)


def _eval(f: Formula, env: dict, space: _Space, cache: EvalCache) -> bool:
    node = cache.node(f)
    if node.sides is not None:
        lhs, rhs = node.sides
        return lhs.value(env, space.finite_sets) == rhs.value(env, space.finite_sets)
    key = (f, tuple(env[n] for n in node.names), space)
    hit = cache._vals.get(key)
    if hit is not None:
        return hit
    if isinstance(f, Not):
        out = not _eval(f.body, env, space, cache)
    elif isinstance(f, And):
        out = _eval(f.lhs, env, space, cache) and _eval(f.rhs, env, space, cache)
    elif isinstance(f, Or):
        out = _eval(f.lhs, env, space, cache) or _eval(f.rhs, env, space, cache)
    elif isinstance(f, Implies):
        out = not _eval(f.lhs, env, space, cache) or _eval(f.rhs, env, space, cache)
    elif isinstance(f, (Exists, Forall)):
        negate = isinstance(f, Forall)
        vars, items = cache.normalized(Not(f) if negate else f, frozenset(env))
        found = _assign(list(vars), list(items), env, space, cache)
        out = not found if negate else found
    else:
        raise EvalError(f"cannot evaluate {type(f).__name__}")
    cache._vals[key] = out
    return out


def _normalize(vars: list[str], f: Formula, taken: set[str]) -> list[Formula]:
    """The conjuncts of ``f``, which is in negation normal form, with each
    existential hoisted into the block and renamed apart from the names
    in scope.  Mutates ``vars`` as binders are hoisted."""
    out: list[Formula] = []
    queue = deque([f])
    while queue:
        c = queue.popleft()
        if isinstance(c, And):
            queue.appendleft(c.rhs)
            queue.appendleft(c.lhs)
        elif isinstance(c, Exists):
            name, body = c.var, c.body
            if name in taken or name in vars:
                name = FreshNames(taken | set(vars) | free_vars(body)).fresh(name)
                body = substitute(body, {c.var: Var(name)})
            vars.append(name)
            queue.appendleft(body)
        else:
            out.append(c)
    return out


def _assign(vars: list[str], items: list[_Node], env: dict, space: _Space, cache: EvalCache) -> bool:
    """Is there an assignment of pool values to ``vars`` satisfying all
    conjuncts?  Expects ``cache.node`` bundles in solver normal form.
    Each call takes the first step that applies, in this order: ready
    checks, pin, disjunction split, valid pair, guard, universe."""
    keys = env.keys()
    ready, pending = [], []
    for it in items:
        (ready if it.fv <= keys else pending).append(it)
    for it in ready:
        if not _eval(it.formula, env, space, cache):
            return False
    if not pending:
        return True
    if not vars:
        loose = set().union(*(it.fv for it in pending)) - keys
        raise EvalError(f"unbound variables {sorted(loose)}")

    vars_set = set(vars)
    live = [r for it in pending for r in it.rules if r.var in vars_set and r.need <= keys]
    pin = _find_pin(live, env, space)
    if pin is not None:
        v, candidates = pin
        rest = [u for u in vars if u != v]
        return any(_assign(rest, pending, {**env, v: val}, space, cache) for val in candidates)

    # split disjunctions only after the pins, which every branch shares; an
    # endpoint-pair relativizer stays whole for the joint enumeration below
    for i, it in enumerate(pending):
        if isinstance(it.formula, Or) and not (
            space.finite_sets and it.pair is not None and set(it.pair) <= vars_set
        ):
            taken = frozenset(env) | vars_set
            rest = pending[:i] + pending[i + 1 :]
            return any(
                _assign(vars + list(hoisted), rest + list(extra), env, space, cache)
                for hoisted, extra in (cache.normalized(p, taken) for p in operands(it.formula, Or))
            )

    if space.finite_sets:
        for it in pending:
            if it.pair is not None and set(it.pair) <= vars_set:
                v1, v2 = it.pair
                rest = [u for u in vars if u not in (v1, v2)]
                return any(
                    _assign(rest, pending, {**env, v1: b, v2: r}, space, cache)
                    for b, r in _endpoint_pairs(space)
                )

    # the fewest candidates win; ties go to the earlier variable, then rule;
    # only the winner builds its candidates
    best_v: Optional[str] = None
    best: Optional[tuple[int, Callable[[], Iterable[Value]]]] = None
    for v in vars:
        for r in live:
            got = _guard(r, env, space) if r.var == v else None
            if got is not None and (best is None or got[0] < best[0]):
                best_v, best = v, got
    if best is None:
        occurrences = {v: sum(1 for it in pending if v in it.fv) for v in vars}
        best_v = max(vars, key=lambda v: occurrences[v])
        candidates = _masks(space)
    else:
        candidates = best[1]()
    rest = [u for u in vars if u != best_v]
    return any(_assign(rest, pending, {**env, best_v: val}, space, cache) for val in candidates)


# -- pins and guards: conjuncts that force or bound a variable's value ---------------


class _Rule(NamedTuple):
    """One pattern an equation offers for block variable ``var``, read off
    the syntax once.  ``need`` holds the variables of ``terms``, so a rule
    is usable as soon as they are bound.  Pins (``_find_pin``):

    - ``eq``: ``var = t``
    - ``l``, ``r``: ``l(var) = t``, ``r(var) = t``; both of one variable
      pin it through the endpoint lemma
    - ``plus``, ``disj``: ``cup(cap(t1, t2), var) = t1`` and
      ``cap(t2, var) = bot``; the two together pin ``var`` to ``t1``
      minus ``t2``

    Guards (``_guard``), each sized before it is built; only the one with
    the fewest candidates builds them:

    - ``minself``: ``min(var) = var``, so ``var`` is empty or one point
    - ``lreq``: ``l(var) = r(var)``, so ``var`` is an embedded finite set
    - ``capself``: ``cap(var, t) = var``, so ``var`` lies below ``t``
    """

    kind: str
    var: str
    terms: tuple[_Term, ...]
    need: frozenset[str]


def _atom_rules(atom: Atomic, intern: Callable[[Term], _Term]) -> tuple[_Rule, ...]:
    """The rules of ``atom``, their terms interned by ``intern``."""
    out: list[_Rule] = []

    def rule(kind: str, var: str, *terms: Term) -> None:
        interned = tuple(map(intern, terms))
        out.append(_Rule(kind, var, interned, frozenset().union(*(t.names for t in interned))))

    for a, b in ((atom.lhs, atom.rhs), (atom.rhs, atom.lhs)):
        if isinstance(a, Var) and a != b:
            rule("eq", a.name, b)
        if not isinstance(a, App):
            continue
        if a.op in ("l", "r") and isinstance(a.args[0], Var):
            rule(a.op, a.args[0].name, b)
            if a.op == "l" and isinstance(b, App) and b.op == "r" and a.args == b.args:
                rule("lreq", a.args[0].name)
        if (
            a.op == "cup"
            and isinstance(a.args[0], App)
            and a.args[0].op == "cap"
            and isinstance(a.args[1], Var)
        ):
            x, y = a.args[0].args
            if b in (x, y):
                rule("plus", a.args[1].name, b, y if b == x else x)
        if a.op == "cap":
            x, y = a.args
            if isinstance(b, App) and b.op == "bot":
                for t, v in ((x, y), (y, x)):
                    if isinstance(v, Var):
                        rule("disj", v.name, t)
            elif isinstance(b, Var) and b in a.args:
                rule("capself", b.name, y if x == b else x)
        if a.op == "min" and isinstance(b, Var) and a.args == (b,):
            rule("minself", b.name)
    return tuple(out)


def _find_pin(live: list[_Rule], env: dict, space: _Space):
    w = space.finite_sets

    def pinned(v: str, val: Optional[int]) -> tuple[str, list[int]]:
        return v, ([val] if val is not None and _in_universe(val, space) else [])

    for r in live:
        if r.kind == "eq":
            return pinned(r.var, r.terms[0].value(env, w))

    # both endpoint maps of one variable pinned: the endpoint lemma gives
    # the unique interval union, or rules one out
    if not w:
        ends: dict[str, dict[str, _Term]] = {"l": {}, "r": {}}
        for r in live:
            if r.kind in ends:
                ends[r.kind][r.var] = r.terms[0]
        for v, lt in ends["l"].items():
            if v in ends["r"]:
                return pinned(v, _from_endpoints(lt.value(env, w), ends["r"][v].value(env, w)))

    # interned terms: identity within one cache is structural equality
    disjoint = {(r.var, r.terms[0]) for r in live if r.kind == "disj"}
    for r in live:
        if r.kind == "plus" and (r.var, r.terms[1]) in disjoint:
            x = r.terms[0].value(env, w)
            y = r.terms[1].value(env, w)
            return pinned(r.var, _difference_closed(x, y))
    return None


def _at_most(n: int, k: int) -> int:
    """How many subsets of an n-element set have at most k elements."""
    return sum(comb(n, i) for i in range(min(n, k) + 1))


def _guard(r: _Rule, env: dict, space: _Space) -> Optional[tuple[int, Callable[[], Iterable[int]]]]:
    """The candidate count of a guard rule and a function building the
    candidates, in universe order; None when ``r`` is no guard here."""
    w = space.finite_sets
    ranks = space.points
    if r.kind == "minself":
        # a one-point interval union is one segment
        singles = ranks if w or space.max_segments else ()
        return len(singles) + 1, lambda: [0] + [1 << 2 * p for p in singles]
    if r.kind == "lreq" and not w:
        inside = ranks
    elif r.kind == "capself":
        bound = r.terms[0].value(env, w)
        # every endpoint of a sub-union lies in the bound, and fewer points
        # keep the binary counting order of the universe
        inside = [p for p in ranks if bound >> 2 * p & 1]
        if w:
            return 1 << len(inside), lambda: subset_masks(inside)
        if bound & bound >> 1:  # not a finite set
            subs = [u for u in fci_masks(inside, space.max_segments, space.allow_ray) if not u & ~bound]
            return len(subs), lambda: subs
    else:
        return None
    # an embedded finite set of at most max_segments points
    most = space.max_segments
    return _at_most(len(inside), most), lambda: [s for s in subset_masks(inside) if s.bit_count() <= most]


def _match_valid_pair(c: Or) -> Optional[tuple[str, str]]:
    """Recognize the relativizer marking two variables as the endpoint
    pair of one interval union, so they can be enumerated jointly."""
    both_bot = c.rhs
    if not isinstance(both_bot, And):
        return None
    sides = (both_bot.lhs, both_bot.rhs)
    if not all(isinstance(at, Atomic) and isinstance(at.lhs, Var) for at in sides):
        return None
    v1, v2 = (at.lhs.name for at in sides)
    return (v1, v2) if v1 != v2 and c == valid_pair(v1, v2) else None
