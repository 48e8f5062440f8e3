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
``_Rule`` lists the pin, pair and guard patterns, each read off one
equation.  Every guard is sized before any candidate is built, and only
the smallest is built, so a pool over an enumeration cap is refused only
when the chosen step must enumerate it.
An ``EvalCache`` interns each distinct term once and memoizes the values
it takes, so the solver computes a repeated subterm once per set of
values.  Term values are all it memoizes: an equation compares its two
memoized sides, and a connective or quantifier is decided afresh on every
call.  A quantifier-free formula handed to ``eval_bounded`` meets each
set of values once, so ``EvalCache.compiled`` composes it, once per
structure, into one closure over its equations' term closures
(``_Term.closure``), which memoize nothing, a chain of ``&`` or ``|``
into one closure over its operands; the search, and ``eval_qf``
on its fresh cache, walk formulas (``_eval``) and keep the term memo.

There is one evaluator: ``eval_term``, ``eval_qf`` and ``eval_bounded``
all evaluate through ``EvalCache``'s interned terms (``_Term``) and
``_eval``, in the structure the caller names by its signature; none
guesses one.  Each entry point checks its inputs once, before evaluating
(``_check``: every name bound, every value of the structure's sort), so
evaluation itself meets neither error; ``eval_bounded`` reads the names
off the formula's cached ``free_vars`` and checks each value's sort as it
encodes it, with ``_check``'s messages in ``_check``'s order.  An
unknown operation, or one of the other structure, is refused only where
evaluation reaches it, by a closure as by ``_eval``.

The solver works on cell masks (see ``cells``): ``eval_bounded`` ranks
the points of the pool and of the assigned values, 0 keeping rank 0,
and the search reads one ``_Space``, the pool's ranked points and
bounds and the structure, so every pool and assignment of one order type
shares one space, its universes and every ``EvalCache`` entry.  A pool
keeps its ranking from its first use (``_pool_ranks``), and equal pools
share one: a function from a point to its rank by the point's exact key
(``cells.ranking``), through which each value object is encoded once and
kept with the ranking; a value with a point outside the pool puts the
pool's points and the values on one grid (``_grid``) for that call
alone.  No step hashes a ``Fraction``.  Pins, guards and universes are
masks in the enumerators' order.  ``eval_term`` and ``eval_qf`` put 0
and their assignment on one grid the same way and evaluate there with a
fresh cache, ``eval_qf`` in a fixed space per structure (no quantifier
reads its points); ``eval_term`` and ``universe`` return
``FinSet``/``FciSet`` values.  ``_spaces`` keeps one pair of space
objects per order type.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence, Union

from . import cells
from .cells import OPS, fci_masks, subset_masks
from .fci import FciSet, _decode_fci
from .finset import FinSet, _decode_finset
from .order import ZERO, Point, above, midpoint
from .oracle import enum_fcis, enum_finsets
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
    Signature,
    Term,
    Var,
    bound_vars,
    free_vars,
    nnf,
    operands,
    subformulas,
    substitute,
    term_vars,
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

    def __getstate__(self) -> dict:
        # the ranking ``_pool_ranks`` keeps on the pool memoizes values by
        # object id, which a copy must not inherit; the copy ranks afresh
        return {k: v for k, v in self.__dict__.items() if k != "_ranks"}


def widened(points: Iterable[Point]) -> FinSet:
    """The points, the midpoint of each neighbouring pair, and one point
    above the largest."""
    ordered = sorted(set(points))
    if not ordered:
        raise ValueError("cannot widen an empty set of points")
    # in order by construction: each point, then the midpoint above it
    out = [p for x, y in zip(ordered, ordered[1:]) for p in (x, midpoint(x, y))]
    return cells.build(FinSet, elements=(*out, ordered[-1], above(ordered[-1])))


def default_pool(a: Assignment) -> WitnessPool:
    """Zero and every boundary point of the assigned values, widened."""
    pts = {ZERO}
    for v in a.values():
        if not isinstance(v, (FinSet, FciSet)):
            raise TypeError(f"assignment values must be FinSet or FciSet, got {type(v).__name__}")
        pts.update(cells.ends(v))
    points = widened(pts)
    return WitnessPool(points=points, max_segments=len(points), allow_ray=True)


# -- term and quantifier-free evaluation -------------------------------------------


def _check(names: Iterable[str], a: Assignment, sig: Signature) -> None:
    """The one input check of every entry point: each of ``names`` is
    bound, and every value is of the structure's sort, so evaluation meets
    neither an unbound name nor a value of the other structure.
    ``eval_bounded`` makes the same checks in the same order, the sorts
    while it encodes the values (``_rank_assignment``)."""
    missing = set(names) - a.keys()
    if missing:
        raise EvalError(f"assignment is missing {sorted(missing)}")
    want = FinSet if sig.finite_sets else FciSet
    for name, val in a.items():
        if not isinstance(val, want):
            raise _wrong_sort(name, val, want)


def _wrong_sort(name: str, val: Any, want: type) -> EvalError:
    return EvalError(f"{name} is bound to {type(val).__name__}, expected {want.__name__}")


def _grid(a: Assignment, extra: Sequence[Point]) -> tuple[list[Point], dict]:
    """The grid of ``extra`` and the assigned values' points, and each
    value's cells on it."""
    return cells.apply(lambda *masks: dict(zip(a, masks)), *a.values(), extra=extra)


def eval_term(t: Term, a: Assignment, sig: Signature) -> Value:
    _check(term_vars(t), a, sig)
    pts, env = _grid(a, (ZERO,))
    mask = EvalCache().term(t).value(env, sig.finite_sets)
    return _decode_finset(pts, mask) if sig.finite_sets else _decode_fci(pts, mask)


def eval_qf(f: Formula, a: Assignment, sig: Signature) -> bool:
    for g in subformulas(f):
        if isinstance(g, (Exists, Forall)):
            raise EvalError(f"quantifier on {g.var} in a quantifier-free evaluation")
    _check(free_vars(f), a, sig)
    return _eval(f, _grid(a, (ZERO,))[1], _QF_SPACES[sig.finite_sets], EvalCache())


# -- witness universes --------------------------------------------------------------


def universe(pool: WitnessPool, sig: Signature) -> tuple[Value, ...]:
    """Every value a quantified variable ranges over."""
    if sig.finite_sets:
        return tuple(enum_finsets(pool.points))
    return tuple(enum_fcis(pool.points, pool.max_segments, pool.allow_ray))


# -- the search space on point ranks ------------------------------------------------

# Order types and pools a caller is still using stay cached; a caller that
# builds a pool per item (the pipeline suite does) must not grow these
# tables forever, nor one that ranks a fresh value per call a pool's value
# memo: past this many values it starts afresh (a census suite keeps at
# most 1,596 apiece).  A pool keeps its own ranking besides, so a pool
# evaluated on again never looks it up here.
_POOL_CACHE_SIZE, _VALUE_MEMO_SIZE = 32, 4096


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
    if space.finite_sets:
        return cells.within(x, space.cells)
    ends = cells.right(x)
    return (
        cells.within(cells.left(x) | ends, space.cells)
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
    return tuple((cells.left(u), cells.right(u)) for u in fci_masks(pairs, len(pairs), True))


class _Ranks(NamedTuple):
    """The rank of each point, as a function, the pool's space per
    structure (interval side first) and, by the id of every value object
    already seen, that object and its mask."""

    rank: Callable[[Point], int]
    spaces: tuple[_Space, _Space]
    values: dict[int, tuple[Value, int]]


def _ranks(pool: WitnessPool, grid: Sequence[Point]) -> _Ranks:
    """The pool ranked on ``grid``, distinct points in order that hold
    every point of the pool."""
    rank = cells.ranking(grid)
    return _ranked(pool, rank, tuple(map(rank, pool.points.elements)))


def _ranked(pool: WitnessPool, rank: Callable[[Point], int], ranked: tuple[int, ...]) -> _Ranks:
    """The pool's spaces, its points having the ranks ``ranked`` under ``rank``."""
    pairs = ranked if pool.pair_points is None else tuple(map(rank, pool.pair_points.elements))
    return _Ranks(rank, _spaces(ranked, pool.max_segments, pool.allow_ray, pairs), {})


@lru_cache(maxsize=_POOL_CACHE_SIZE)
def _spaces(
    ranked: tuple[int, ...], max_segments: int, allow_ray: bool, pairs: tuple[int, ...]
) -> tuple[_Space, _Space]:
    # one pair of spaces per order type, however many pools have it
    point_cells = sum(map(cells.point, ranked))
    return tuple(_Space(ranked, max_segments, allow_ray, pairs, w, point_cells) for w in (False, True))


def _pool_ranks(pool: WitnessPool) -> _Ranks:
    """The pool's ranking, kept on the pool object from its first use, so
    a pool is hashed at most once however often it is evaluated on."""
    got = pool.__dict__.get("_ranks")
    if got is None:
        got = _shared_ranks(pool)
        object.__setattr__(pool, "_ranks", got)
    return got


@lru_cache(maxsize=_POOL_CACHE_SIZE)
def _shared_ranks(pool: WitnessPool) -> _Ranks:
    # equal pools share one ranking and its value memo, and a pool's points
    # are sorted, so the i-th one has rank i
    points = pool.points.elements
    return _ranked(pool, cells.ranking(points), tuple(range(len(points))))


# eval_qf's space per structure: no quantifier reads its points
_QF_SPACES = _ranks(WitnessPool(points=FinSet((ZERO,)), max_segments=0), (ZERO,)).spaces


def _rank_assignment(a: Assignment, pool: WitnessPool, finite_sets: bool) -> tuple[dict, _Space]:
    """The assignment as masks and the pool's space in the structure, each
    point renamed to its rank among the pool's points and the values'.
    Refuses a value of the other structure's sort as ``_check`` does,
    before its memo entry is read: the cells of a value do not tell the
    structures apart."""
    ranks = _pool_ranks(pool)
    memo, want = ranks.values, FinSet if finite_sets else FciSet
    env, outside = {}, False
    # suites reuse a value across many assignments; the memo is keyed by
    # the value object, which its entry keeps alive, so nothing is hashed
    for name, v in a.items():
        if not isinstance(v, want):
            raise _wrong_sort(name, v, want)
        got = memo.get(id(v))
        if got is None:
            try:
                mask = cells.encode(v, ranks.rank)
            except KeyError:
                outside = True
                continue
            if len(memo) >= _VALUE_MEMO_SIZE:
                memo.clear()
            got = memo[id(v)] = (v, mask)
        env[name] = got[1]
    if outside:
        # a point outside the pool: rank this call's points afresh on one
        # grid, keep nothing
        grid, env = _grid(a, pool.points.elements)
        ranks = _ranks(pool, grid)
    return env, ranks.spaces[finite_sets]


# -- the solver ---------------------------------------------------------------------


class _Term:
    """One term interned in an ``EvalCache``, with the values it has taken:
    the one evaluator of terms, which ``eval_term``, ``eval_qf`` and the
    solver all call, through ``value`` or ``closure``.

    An application binds its ``cells.OPS`` entry when it is interned, so an
    unknown operation is refused there, never stored and refused again on
    every call.  ``vals`` maps the values of the term's variables (sorted)
    and ``finite_sets`` to the term's value, so a subterm repeated across
    conjuncts and assignments is computed once per set of values; each
    miss checks that the operation belongs to the structure, which the key
    keeps apart.  Values are cell masks, as everywhere in the solver, so
    ``cz`` is 1.  Every variable is bound when ``value`` is called: the
    entry points check their inputs once (``_check``), and the solver
    evaluates a term only once its variables are assigned.

    ``closure`` gives the same mask with no memo, built once per structure:
    ``itemgetter`` of a variable, a constant, or the operation over its
    arguments' closures; an operation outside the structure gives one
    that raises what ``value`` raises."""

    __slots__ = ("var", "op", "only", "fn", "args", "_key", "vals", "_closures")

    def __init__(self, t: Term, args: tuple[_Term, ...]) -> None:
        self.var = t.name if isinstance(t, Var) else None
        self.op = None if self.var is not None else t.op
        if self.op is not None:
            try:
                self.only, self.fn = OPS[self.op]
            except KeyError:
                raise EvalError(f"unknown operation {self.op}") from None
        self.args = args
        names = sorted(term_vars(t))
        self._key = itemgetter(*names) if names else (lambda env: ())
        self.vals: dict[tuple, int] = {}
        self._closures: list[Optional[Callable[[dict], int]]] = [None, None]

    def _refused(self, finite_sets: bool) -> Optional[str]:
        """Why the operation cannot be applied in the structure, or None
        when it is one of the structure's."""
        if self.only is None or self.only == finite_sets:
            return None
        structure = "finite-set" if finite_sets else "interval"
        return f"{self.op} is not an operation of the {structure} structure"

    def value(self, env: dict, finite_sets: bool) -> int:
        """What ``eval_term`` returns for this term, as a mask."""
        if self.var is not None:
            return env[self.var]
        key = (self._key(env), finite_sets)
        got = self.vals.get(key)
        if got is None:
            if (refused := self._refused(finite_sets)) is not None:
                raise EvalError(refused)
            got = self.vals[key] = self.fn(*[a.value(env, finite_sets) for a in self.args])
        return got

    def closure(self, finite_sets: bool) -> Callable[[dict], int]:
        """``value`` in the structure as a function of ``env`` alone."""
        got = self._closures[finite_sets]
        if got is None:
            got = self._closures[finite_sets] = self._compose(finite_sets)
        return got

    def _compose(self, finite_sets: bool) -> Callable[[dict], int]:
        if self.var is not None:
            return itemgetter(self.var)
        refused = self._refused(finite_sets)
        if refused is not None:
            return _refusal(refused)
        fn, args = self.fn, self.args
        if not args:
            const = fn()
            return lambda env: const
        x = args[0].closure(finite_sets)
        if len(args) == 1:
            return lambda env: fn(x(env))
        y = args[1].closure(finite_sets)
        if len(args) == 2:
            return lambda env: fn(x(env), y(env))
        rest = [a.closure(finite_sets) for a in args]
        return lambda env: fn(*[z(env) for z in rest])


def _refusal(message: str) -> Callable[[dict], Any]:
    # an error the walk meets only where it evaluates, kept until then
    def refuse(env: dict) -> Any:
        raise EvalError(message)

    return refuse


class _Node(NamedTuple):
    """What the solver reads off one formula node, once per structure."""

    formula: Formula
    fv: frozenset[str]
    rules: tuple[_Rule, ...]  # of an equation
    sides: Optional[tuple[_Term, _Term]]  # of an equation, interned


class EvalCache:
    """Shared memo for bounded evaluation, keyed by formula structure.

    Structurally equal formulas share every entry, so the conjuncts
    ``_normalize`` rebuilds for each set of names in scope share one node.
    Every distinct term is interned once (``term``) and memoizes its own
    values, the only values kept: no verdict of a formula is stored.
    Values are cell masks over point ranks, so every pool and assignment
    of one order type shares the same entries.  A quantifier-free formula
    is composed once per structure into one closure (``compiled``), kept
    per structure and keyed by formula structure like the nodes.
    """

    def __init__(self) -> None:
        self._norm: dict[tuple, tuple[tuple[str, ...], tuple[_Node, ...]]] = {}
        self._nodes: dict[Formula, _Node] = {}
        self._terms: dict[Term, _Term] = {}
        self._compiled: tuple[dict, dict] = ({}, {})  # per structure, interval side first

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
            fv = free_vars(f)
            atomic = isinstance(f, Atomic)
            rules = _atom_rules(f, self.term) if atomic else ()
            sides = (self.term(f.lhs), self.term(f.rhs)) if atomic else None
            got = self._nodes[f] = _Node(f, fv, rules, sides)
        return got

    def compiled(self, f: Formula, finite_sets: bool) -> Optional[Callable[[dict], bool]]:
        """What ``_eval`` returns for ``f`` in the structure, as one
        function of ``env`` composed of its atoms' term closures, built
        once; None when ``f`` has a quantifier."""
        table = self._compiled[finite_sets]
        try:
            return table[f]
        except KeyError:
            got = table[f] = None if bound_vars(f) else self._compose(f, finite_sets)
            return got

    def _compose(self, f: Formula, finite_sets: bool) -> Callable[[dict], bool]:
        kind = f.__class__
        if kind is Atomic:
            # the sides alone: the rules ``node`` reads are the search's
            try:
                lhs, rhs = self.term(f.lhs), self.term(f.rhs)
            except EvalError:
                # an unknown operation, named as the walk names it: the
                # first one ``node`` interns
                try:
                    self.node(f)
                except EvalError as error:
                    return _refusal(str(error))
            x, y = lhs.closure(finite_sets), rhs.closure(finite_sets)
            return lambda env: x(env) == y(env)
        if kind is Not:
            x = self._compose(f.body, finite_sets)
            return lambda env: not x(env)
        # a chain of one connective is one closure, so its length costs no
        # depth, here or where the closure runs
        xs = [self._compose(g, finite_sets) for g in operands(f, kind)]
        if kind is And:

            def every(env: dict) -> bool:
                for x in xs:
                    if not x(env):
                        return False
                return True

            return every

        def some(env: dict) -> bool:
            for x in xs:
                if x(env):
                    return True
            return False

        return some

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
    sig: Signature,
    cache: Optional[EvalCache] = None,
) -> bool:
    if cache is None:
        cache = EvalCache()
    fv = free_vars(f)
    if not a.keys() >= fv:
        _check(fv, a, sig)  # names what is missing; the sorts are checked as they are encoded
    env, space = _rank_assignment(a, pool, sig.finite_sets)
    run = cache.compiled(f, sig.finite_sets)
    return _eval(f, env, space, cache) if run is None else run(env)


def _eval(f: Formula, env: dict, space: _Space, cache: EvalCache) -> bool:
    if isinstance(f, Atomic):
        lhs, rhs = cache.node(f).sides
        return lhs.value(env, space.finite_sets) == rhs.value(env, space.finite_sets)
    if isinstance(f, Not):
        return not _eval(f.body, env, space, cache)
    if isinstance(f, And):
        return _eval(f.lhs, env, space, cache) and _eval(f.rhs, env, space, cache)
    if isinstance(f, Or):
        return _eval(f.lhs, env, space, cache) or _eval(f.rhs, env, space, cache)
    if isinstance(f, Exists):
        vars, items = cache.normalized(f, frozenset(env))
        return _assign(list(vars), list(items), env, space, cache)
    if isinstance(f, Forall):
        vars, items = cache.normalized(Not(f), frozenset(env))
        return not _assign(list(vars), list(items), env, space, cache)
    raise EvalError(f"cannot evaluate {type(f).__name__}")


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

    # split disjunctions only after the pins, which every branch shares
    for i, it in enumerate(pending):
        if isinstance(it.formula, Or):
            taken = frozenset(env) | vars_set
            rest = pending[:i] + pending[i + 1 :]
            return any(
                _assign(vars + list(hoisted), rest + list(extra), env, space, cache)
                for hoisted, extra in (cache.normalized(p, taken) for p in operands(it.formula, Or))
            )

    if space.finite_sets:
        for r in live:
            if r.kind == "pair" and r.terms[0].var in vars_set:
                v1, v2 = r.var, r.terms[0].var
                rest = [u for u in vars if u not in (v1, v2)]
                return any(
                    _assign(rest, pending, {**env, v1: b, v2: c}, space, cache)
                    for b, c in _endpoint_pairs(space)
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
    is usable as soon as they are bound; a ``pair`` rule needs none.
    Pins (``_find_pin``):

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

    Pair (``_assign``): ``valid_pair(var, v)`` with ``terms`` the variable
    v, so (var, v) ranges jointly over the endpoint pairs of the unions
    over the pair points; v is assigned with ``var``, hence no ``need``.
    """

    kind: str
    var: str
    terms: tuple[_Term, ...]
    need: frozenset[str]


def _atom_rules(atom: Atomic, intern: Callable[[Term], _Term]) -> tuple[_Rule, ...]:
    """The rules of ``atom``, their terms interned by ``intern``."""
    out: list[_Rule] = []
    kept = atom.rhs  # valid_pair(v1, v2) ends in "= diff(v1, v2)"
    if isinstance(kept, App) and kept.op == "diff" and all(isinstance(x, Var) for x in kept.args):
        v1, v2 = kept.args
        if v1 != v2 and atom == valid_pair(v1.name, v2.name):
            out.append(_Rule("pair", v1.name, (intern(v2),), frozenset()))

    def rule(kind: str, var: str, *terms: Term) -> None:
        interned = tuple(map(intern, terms))
        out.append(_Rule(kind, var, interned, frozenset().union(*map(term_vars, terms))))

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
                return pinned(v, cells.from_endpoints(lt.value(env, w), ends["r"][v].value(env, w)))

    # interned terms: identity within one cache is structural equality
    disjoint = {(r.var, r.terms[0]) for r in live if r.kind == "disj"}
    for r in live:
        if r.kind == "plus" and (r.var, r.terms[1]) in disjoint:
            x = r.terms[0].value(env, w)
            y = r.terms[1].value(env, w)
            return pinned(r.var, cells.difference_closed(x, y))
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
        return len(singles) + 1, lambda: [0] + [cells.point(p) for p in singles]
    if r.kind == "lreq" and not w:
        inside = ranks
    elif r.kind == "capself":
        bound = r.terms[0].value(env, w)
        # every endpoint of a sub-union lies in the bound, and fewer points
        # keep the binary counting order of the universe
        inside = [p for p in ranks if bound & cells.point(p)]
        if w:
            return 1 << len(inside), lambda: subset_masks(inside)
        if not cells.finite(bound):
            subs = [u for u in fci_masks(inside, space.max_segments, space.allow_ray) if cells.within(u, bound)]
            return len(subs), lambda: subs
    else:
        return None
    # an embedded finite set of at most max_segments points
    most = space.max_segments
    return _at_most(len(inside), most), lambda: [s for s in subset_masks(inside) if s.bit_count() <= most]
