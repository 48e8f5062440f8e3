"""Helpers that only the tests use: a closed-form count of the interval
unions ``enum_fcis`` yields, a seeded random finite set, seeded random
formulas, and a call on a fresh stack at the default recursion limit."""

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

from intlat.finset import FinSet
from intlat.order import Point
from intlat.syntax import And, App, Atomic, Exists, Formula, Not, Or, Term, Var, bot, cz

# the operations of generated terms, of the interval and of the finite-set
# signature
INTERVAL_OPS = ("l", "r", "min", "max", "cup", "cap")
FINITE_SET_OPS = ("ips", "min", "max", "cup", "cap")


def count_fcis(n_points: int, max_segments: int, allow_ray: bool) -> int:
    """Closed-form count of what enum_fcis yields for a pool of the given size.

    With k segments the used endpoints form a multiset counted by
    C(n+k, 2k); appending a ray start gives C(n+k, 2k+1).
    """
    total = 0
    for k in range(max_segments + 1):
        total += math.comb(n_points + k, 2 * k)
        if allow_ray:
            total += math.comb(n_points + k, 2 * k + 1)
    return total


def random_finset(rng: random.Random, points: Iterable[Point]) -> FinSet:
    return FinSet.of(p for p in points if rng.random() < 0.5)


def generated_term(rng: random.Random, depth: int, names: tuple, ops: tuple = INTERVAL_OPS) -> Term:
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([Var(v) for v in names] + [bot(), cz()])
    op = rng.choice(ops)
    arity = 2 if op in ("cup", "cap", "ips") else 1
    return App(op, tuple(generated_term(rng, depth - 1, names, ops) for _ in range(arity)))


def generated_formula(rng: random.Random, depth: int, names: tuple, ops: tuple = INTERVAL_OPS) -> Formula:
    """A small formula over ``names``: equations between nested terms of
    ``ops`` under ``&``, ``|``, ``!`` and ``E`` over Y or Z, which may bind
    a name again."""
    if depth == 0 or rng.random() < 0.3:
        return Atomic(generated_term(rng, 2, names, ops), generated_term(rng, 1, names, ops))
    kind = rng.choice("&|!EE")
    if kind == "!":
        return Not(generated_formula(rng, depth - 1, names, ops))
    if kind == "E":
        v = rng.choice("YZ")
        return Exists(v, generated_formula(rng, depth - 1, names + (v,), ops))
    parts = (generated_formula(rng, depth - 1, names, ops), generated_formula(rng, depth - 1, names, ops))
    return And(*parts) if kind == "&" else Or(*parts)


def on_fresh_stack(fn):
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
