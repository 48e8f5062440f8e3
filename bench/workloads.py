"""The three benchmark workloads and the references that gate them.

Each workload is built from a freshly imported ``intlat`` (a namespace of
its modules, see ``run.load_intlat``) and a seed.  Building it is the
set-up: parse the corpora, rewrite each corpus formula once, and lay out
the fixed, seeded item list, split into rounds.  A round is a batch of
items that shares its ``EvalCache``s: one per formula and side, as the
suites scope them, kept in a per-round ``scope`` dict that ``run`` fills.

Every item is a small tuple; ``run`` does the timed work for one item and
returns its verdict, ``check`` compares that verdict with a reference the
benchmark computes itself (never with the code under test alone).  Values
are generated here from plain ``(lo, hi)`` part lists, so membership,
containment, endpoints and the pipeline-corpus verdicts are computed without
the kernels; the ``L2W_CORPUS`` predicates use the kernels' value-level
methods, as the suites do.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

ZERO = Fraction(0)

# A value is a tuple of parts (lo, hi), sorted and strictly separated;
# hi is None for the closing ray [lo, *).
Parts = tuple


# -- independent value-level references ------------------------------------------


def parts_contain(parts: Parts, p: Fraction) -> bool:
    return any(lo <= p and (hi is None or p <= hi) for lo, hi in parts)


def parts_subset(xs: Parts, ys: Parts) -> bool:
    """Every part of xs fits inside one part of ys (parts are maximal)."""
    for lo, hi in xs:
        if not any(
            a <= lo and (b is None or (hi is not None and hi <= b)) for a, b in ys
        ):
            return False
    return True


def left_points(parts: Parts) -> tuple:
    return tuple(lo for lo, _ in parts)


def right_points(parts: Parts) -> tuple:
    return tuple(hi for _, hi in parts if hi is not None)


def boundary_points(parts: Parts) -> set:
    return set(left_points(parts)) | set(right_points(parts))


def _all_points(parts: Parts) -> bool:
    return all(hi == lo for lo, hi in parts)


def _single_point(parts: Parts) -> bool:
    return len(parts) == 1 and parts[0][1] == parts[0][0]


# Verdicts of PIPELINE_CORPUS, worked out by hand from the formulas' meaning.
PIPELINE_REFERENCE: dict[str, Callable[[Parts], bool]] = {
    "X = bot": lambda x: not x,
    "l(X) = r(X)": _all_points,
    "!(X = bot)": bool,
    "l(X) = r(X) & !(X = bot)": lambda x: bool(x) and _all_points(x),
    "min(X) = cz | X = bot": lambda x: not x or x[0][0] == ZERO,
    "E Y. l(Y) = r(Y) & min(X) = Y": lambda x: True,
    "E Y. E W. min(X) = Y & cup(Y, cz) = W & max(W) = Y": bool,
    "max(X) = bot & !(X = bot)": lambda x: bool(x) and x[-1][1] is None,
    "min(X) = max(X)": lambda x: not x or _single_point(x),
    "E Y. E W. min(X) = Y & max(X) = W & cap(Y, W) = bot": lambda x: not _single_point(x),
    "r(X) = cz | !(min(X) = bot)": bool,
}


def deck(rng: random.Random, cards, n: int) -> list:
    """n draws dealt from freshly shuffled copies of ``cards``, so every card
    appears equally often up to the last, partial deck."""
    out: list = []
    while len(out) < n:
        copy = list(cards)
        rng.shuffle(copy)
        out.extend(copy)
    return out[:n]


# -- formula structure -------------------------------------------------------------


def count_nodes(node) -> int:
    """AST nodes of a formula or term: connectives, quantifiers, equations,
    applications and variables each count one."""
    total = 0
    stack = [node]
    while stack:
        n = stack.pop()
        total += 1
        kind = type(n).__name__
        if kind == "Var":
            continue
        if kind == "App":
            stack.extend(n.args)
        elif kind in ("Atomic", "And", "Or", "Implies"):
            stack.append(n.lhs)
            stack.append(n.rhs)
        else:  # Not, Exists, Forall
            stack.append(n.body)
    return total


def alpha_equal(a, b) -> bool:
    """Structural equality up to renaming of bound variables."""

    def walk(x, y, bx: dict, by: dict) -> bool:
        kind = type(x).__name__
        if kind != type(y).__name__:
            return False
        if kind == "Var":
            return bx.get(x.name, x.name) == by.get(y.name, y.name)
        if kind == "App":
            return x.op == y.op and len(x.args) == len(y.args) and all(
                walk(s, t, bx, by) for s, t in zip(x.args, y.args)
            )
        if kind in ("Atomic", "And", "Or", "Implies"):
            return walk(x.lhs, y.lhs, bx, by) and walk(x.rhs, y.rhs, bx, by)
        if kind == "Not":
            return walk(x.body, y.body, bx, by)
        mark = ("bound", len(bx))
        return walk(x.body, y.body, {**bx, x.var: mark}, {**by, y.var: mark})

    return walk(a, b, {}, {})


# -- interval-solve ----------------------------------------------------------------

# Shapes of the assigned interval union X: p a point, s a segment, r the
# closing ray; a leading 0 starts the first part at zero.  The base point
# count (2 per segment, 1 per point or ray) runs from 1 to 6.  A single point
# and a ray are the slow cases of the heaviest corpus formula (about a second
# each).  The empty set, slower still on that formula, is left out: its one
# item took half of a round, so the round's time rode on a single timing.
TEMPLATES = ("p", "s", "r", "ps", "sp", "pp", "0s", "ss", "sps", "sss")


def random_parts(rng: random.Random, template: str) -> Parts:
    zero = template.startswith("0")
    kinds = template.lstrip("0")
    need = sum(2 if k == "s" else 1 for k in kinds)
    found: set = set()
    while len(found) < need:
        found.add(Fraction(rng.randint(1, 24), rng.randint(1, 8)))
    pts = sorted(found)
    if zero:
        pts[0] = ZERO
    parts, i = [], 0
    for k in kinds:
        if k == "p":
            parts.append((pts[i], pts[i]))
            i += 1
        elif k == "s":
            parts.append((pts[i], pts[i + 1]))
            i += 2
        else:
            parts.append((pts[i], None))
            i += 1
    return tuple(parts)


def to_fci(m, parts: Parts):
    Segment, FciSet = m.fci.Segment, m.fci.FciSet
    segs = tuple(Segment(lo, hi) for lo, hi in parts if hi is not None)
    ray = parts[-1][0] if parts and parts[-1][1] is None else None
    return FciSet(segs, ray)


def pipeline_pool(m, parts: Parts):
    """Zero, the boundary of X and one point above: the pipeline suite's pool."""
    pts = {ZERO} | boundary_points(parts)
    pts.add(max(pts) + 1)
    points = m.finset.FinSet(tuple(sorted(pts)))
    return m.semantics.WitnessPool(points=points, max_segments=len(points), allow_ray=True)


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    name: str
    pass_rounds: int  # rounds in one pass
    pass_seconds: float  # the share of --seconds one pass stands for (README.md)
    rejected = 0  # FragmentError refusals during set-up

    def outcome(self, verdict):
        """What the traced and untraced passes must agree on."""
        return verdict

    def refused(self, verdict) -> int:
        return 0

    def semantic_check(self) -> dict:
        """Extra checks outside the timed loop, as counts."""
        return {}


class IntervalSolve(Workload):
    """PIPELINE_CORPUS formulas and their pipeline outputs, evaluated on
    seeded random interval unions, each item with its own pool."""

    name = "interval-solve"
    pass_rounds = 1
    pass_seconds = 6.0
    templates = TEMPLATES

    def __init__(self, m, seed: int, rounds: int) -> None:
        self.m = m
        sig = m.syntax.SIG_L
        self.formulas = []
        nodes_in = nodes_out = 0
        for text in m.suites.PIPELINE_CORPUS:
            f = m.syntax.parse(text, sig)
            g = m.transforms.pipeline(f)
            self.formulas.append((text, f, g))
            nodes_in += count_nodes(f)
            nodes_out += count_nodes(g)
        self.rejected = 0
        for text in m.suites.PIPELINE_REJECTS:
            try:
                m.transforms.pipeline(m.syntax.parse(text, sig))
            except m.transforms.FragmentError:
                self.rejected += 1
        self.nodes_in, self.nodes_out = nodes_in, nodes_out
        self.rounds = []
        for r in range(rounds):
            rng = random.Random(f"interval-solve/{seed}/{r}")
            items = []
            for k in range(len(self.formulas)):
                for t in self.templates:
                    parts = random_parts(rng, t)
                    items.append((k, parts, {"X": to_fci(m, parts)}, pipeline_pool(m, parts)))
            self.rounds.append(items)

    def run(self, item, scope: dict):
        k, _, env, pool = item
        _, f, g = self.formulas[k]
        sem = self.m.semantics
        caches = scope.get(k)
        if caches is None:
            caches = scope[k] = (sem.EvalCache(), sem.EvalCache())
        sig = self.m.syntax.SIG_L
        lhs = sem.eval_bounded(f, env, pool, sig, cache=caches[0])
        rhs = sem.eval_bounded(g, env, pool, sig, cache=caches[1])
        return (lhs, rhs)

    def check(self, item, verdict) -> bool:
        k, parts = item[0], item[1]
        want = PIPELINE_REFERENCE[self.formulas[k][0]](parts)
        return verdict == (want, want)


# -- coords-solve ------------------------------------------------------------------

GRID = tuple(Fraction(i) for i in range(4))


def grid_family(points: tuple, max_segments: int) -> list[Parts]:
    """Every interval union with endpoints on the points: at most
    ``max_segments`` segments (points count) plus an optional closing ray."""
    out: list[Parts] = []

    def rec(i: int, acc: tuple, segs: int) -> None:
        out.append(acc)
        for j in range(i, len(points)):
            lo = points[j]
            out.append(acc + ((lo, None),))
            if segs < max_segments:
                for k in range(j, len(points)):
                    rec(k + 1, acc + ((lo, points[k]),), segs + 1)

    rec(0, (), 0)
    return out


class CoordsSolve(Workload):
    """translate_L_to_W outputs of L2W_CORPUS plus phi_subseteq and phi_in,
    evaluated over endpoint coordinates on one shared dense pool."""

    name = "coords-solve"
    pass_rounds = 1
    pass_seconds = 6.0

    def __init__(self, m, seed: int, rounds: int) -> None:
        self.m = m
        syn, tr = m.syntax, m.transforms
        FinSet = m.finset.FinSet
        self.family = grid_family(GRID, 2)
        pts = list(GRID)
        dense = sorted(set(pts) | {(a + b) / 2 for a, b in zip(pts, pts[1:])} | {pts[-1] + 1})
        self.pool = m.semantics.WitnessPool(
            points=FinSet(tuple(dense)), max_segments=len(dense), pair_points=FinSet(GRID)
        )
        # (label, formula, interval variables, reference on part lists)
        self.formulas = []
        nodes_in = nodes_out = 0
        for text, predicate in m.suites.L2W_CORPUS:
            f = syn.parse(text, syn.SIG_L)
            g = tr.translate_L_to_W(f)
            names = tuple(sorted(syn.free_vars(f)))
            coords = {n + side for n in names for side in "lr"}
            if not syn.free_vars(g) <= coords:
                raise RuntimeError(f"unexpected coordinate names in the translation of {text!r}")
            self.formulas.append((text, g, names, self._on_fcis(predicate, names)))
            nodes_in += count_nodes(f)
            nodes_out += count_nodes(g)
        sub = tr.phi_subseteq()
        self.formulas.append(("phi_subseteq", sub, ("X", "Y"), lambda v: parts_subset(v["X"], v["Y"])))
        member = tr.phi_in()
        self.formulas.append(("phi_in", member, ("X", "Z"), lambda v: parts_contain(v["X"], v["Z"])))
        nodes_out += count_nodes(sub) + count_nodes(member)
        self.nodes_in, self.nodes_out = nodes_in, nodes_out

        # warm the pool-keyed universes once, as a long-lived caller would
        empty = self._env(("X", "Y"), {"X": (), "Y": ()})
        empty["Z"] = FinSet((ZERO,))
        for _, g, _, _ in self.formulas:
            m.semantics.eval_bounded(g, empty, self.pool, syn.SIG_W, cache=m.semantics.EvalCache())

        self.rounds = []
        n = len(self.family)
        for r in range(rounds):
            rng = random.Random(f"coords-solve/{seed}/{r}")
            items = []
            for k, (_, _, names, _) in enumerate(self.formulas):
                xs = rng.sample(self.family, n)
                if names == ("X",):
                    values = [{"X": x} for x in xs]
                elif names == ("X", "Y"):
                    ys = rng.sample(self.family, n)
                    values = [{"X": x, "Y": y} for x, y in zip(xs, ys)]
                else:
                    # two points per union: 92 items, so the round's median
                    # falls inside this cluster, not between two formulas
                    xs = xs + rng.sample(self.family, n)
                    values = [{"X": x, "Z": z} for x, z in zip(xs, deck(rng, dense, 2 * n))]
                for v in values:
                    items.append((k, v, self._env(names, v)))
            self.rounds.append(items)

    def _on_fcis(self, predicate, names):
        """An L2W_CORPUS predicate, read on the part lists as FciSets."""
        return lambda values: bool(predicate({n: to_fci(self.m, values[n]) for n in names}))

    def _env(self, names, values: dict) -> dict:
        """The coordinate assignment: Xl, Xr per interval variable, Z a point."""
        FinSet = self.m.finset.FinSet
        env = {}
        for n in names:
            if n == "Z":
                env["Z"] = FinSet((values["Z"],))
            else:
                env[n + "l"] = FinSet(left_points(values[n]))
                env[n + "r"] = FinSet(right_points(values[n]))
        return env

    def run(self, item, scope: dict):
        k, _, env = item
        sem = self.m.semantics
        cache = scope.get(k)
        if cache is None:
            cache = scope[k] = sem.EvalCache()
        return sem.eval_bounded(self.formulas[k][1], env, self.pool, self.m.syntax.SIG_W, cache=cache)

    def check(self, item, verdict) -> bool:
        k, values, _ = item
        return verdict == self.formulas[k][3](values)


# -- rewrite -----------------------------------------------------------------------

MAX_PARTS = 6


class Rewrite(Workload):
    """Seeded compositions of corpus formulas through every rewrite, then
    printed and parsed back; nothing is evaluated in the timed loop."""

    name = "rewrite"
    pass_rounds = 12
    pass_seconds = 10.0
    per_size = 2

    def __init__(self, m, seed: int, rounds: int) -> None:
        self.m, self.seed = m, seed
        syn = m.syntax
        su = m.suites
        corpora = {
            "w": list(su.POSEX_CORPUS) + list(su.W2L_CORPUS),
            "l": list(su.PIPELINE_CORPUS) + [t for t, _ in su.L2W_CORPUS],
        }
        sigs = {"w": syn.SIG_W, "l": syn.SIG_L}
        # components with their free variables, for quantifying one of them
        self.components = {
            side: [(t, sorted(syn.free_vars(syn.parse(t, sigs[side])))) for t in texts]
            for side, texts in corpora.items()
        }
        # each corpus formula through its rewrites once: the output_nodes corpus
        nodes_in = nodes_out = rejected = 0
        for side, comps in self.components.items():
            for text, _ in comps:
                f = syn.parse(text, sigs[side])
                outs, refused = self._rewrite(side, f)
                nodes_in += count_nodes(f)
                nodes_out += sum(count_nodes(o) for o, _, _ in outs)
                rejected += refused
        self.nodes_in, self.nodes_out = nodes_in, nodes_out
        self.rejected = rejected
        self.rounds = []
        for r in range(rounds):
            rng = random.Random(f"rewrite/{seed}/{r}")
            sizes = [size for size in range(1, MAX_PARTS + 1) for _ in range(self.per_size)]
            joins = sum(sizes) - len(sizes)
            by_side = []
            for side in ("w", "l"):
                # every component, connective and wrapper in fixed shares per
                # round and side, so rounds differ in how they combine, not in
                # what they are made of
                parts = iter(deck(rng, self.components[side], sum(sizes)))
                ops = iter(deck(rng, "&|", joins))
                wraps = iter(deck(rng, "!EE" + "." * 7, joins))
                by_side.append(
                    [(side, self._compose(rng, [next(parts) for _ in range(n)], ops, wraps)) for n in sizes]
                )
            # growing size, the two sides alternating in steps of one size
            w, l, step = by_side[0], by_side[1], self.per_size
            self.rounds.append([it for k in range(0, len(sizes), step) for it in w[k : k + step] + l[k : k + step]])

    @staticmethod
    def _compose(rng: random.Random, parts: list, ops, wraps) -> str:
        text, free = parts[0][0], set(parts[0][1])
        for t, fv in parts[1:]:
            text, free = f"({text}) {next(ops)} ({t})", free | set(fv)
            wrap = next(wraps)
            if wrap == "!":
                text = f"!({text})"
            elif wrap == "E" and free:
                v = rng.choice(sorted(free))
                text, free = f"E {v}. ({text})", free - {v}
        return text

    def _rewrite(self, side: str, f):
        """The rewrites of one parsed formula, as (output, signature,
        allowed classes) triples, and whether a FragmentError refused one."""
        syn, tr = self.m.syntax, self.m.transforms
        existential = ("existential", "positive_existential", "quantifier_free")
        outs = []
        if side == "l":
            outs.append((tr.simplify(tr.translate_L_to_W(f)), syn.SIG_W_DIFF, None))
            try:
                outs.append((tr.pipeline(f), syn.SIG_L, existential))
            except tr.FragmentError:
                return outs, 1
            return outs, 0
        try:
            p = tr.to_positive_existential(f)
        except tr.FragmentError:
            return outs, 1
        outs.append((p, syn.SIG_W, ("positive_existential",)))
        outs.append((tr.simplify(tr.translate_W_to_L(p)), syn.SIG_L, existential))
        return outs, 0

    def run(self, item, scope: dict):
        side, text = item
        syn = self.m.syntax
        f = syn.parse(text, syn.SIG_L if side == "l" else syn.SIG_W)
        outs, refused = self._rewrite(side, f)
        printed = []
        for o, sig, classes in outs:
            s = syn.format_formula(o)
            printed.append((o, syn.parse(s, sig), classes))
        return refused, printed

    def check(self, item, verdict) -> bool:
        _, printed = verdict
        for o, back, classes in printed:
            if not alpha_equal(o, back):
                return False
            if classes is not None and self.m.syntax.classify(o) not in classes:
                return False
        return True

    def semantic_check(self) -> dict:
        """Evaluate the one- and two-part items of the first round against
        their inputs, outside the timed loop: the pipeline output on the
        interval side, the negation-free output on the finite-set side (the
        suites already cover translate_W_to_L, whose outputs can take the
        solver tens of seconds).

        Counts agreements, disagreements, and outputs the solver could not
        evaluate (an EvalError on the output while the input evaluated)."""
        m = self.m
        syn, sem, FinSet = m.syntax, m.semantics, m.finset.FinSet
        rng = random.Random(f"rewrite-check/{self.seed}")
        grid = FinSet(GRID)
        wpool = sem.WitnessPool(points=grid, max_segments=len(grid))
        counts = {"checked": 0, "failed": 0, "eval_errors": 0}

        def verdict(f, env, pool, sig):
            return sem.eval_bounded(f, env, pool, sig, cache=sem.EvalCache())

        for side, text in self.rounds[0][: 4 * self.per_size]:  # sizes 1 and 2, both sides
            f = syn.parse(text, syn.SIG_L if side == "l" else syn.SIG_W)
            outs, refused = self._rewrite(side, f)
            if refused:
                continue
            names = sorted(syn.free_vars(f))
            for _ in range(2):
                if side == "l":
                    parts = {v: random_parts(rng, rng.choice(("p", "s", "r", "ps"))) for v in names}
                    env = {v: to_fci(m, p) for v, p in parts.items()}
                    pool = pipeline_pool(m, tuple(q for p in parts.values() for q in p))
                    want = verdict(f, env, pool, syn.SIG_L)
                    checks = [(outs[1][0], env, pool, syn.SIG_L)]
                else:
                    sets = {v: FinSet(tuple(p for p in GRID if rng.random() < 0.5)) for v in names}
                    want = verdict(f, sets, wpool, syn.SIG_W)
                    checks = [(outs[0][0], sets, wpool, syn.SIG_W)]
                for g, env, pool, sig in checks:
                    counts["checked"] += 1
                    try:
                        counts["failed"] += verdict(g, env, pool, sig) != want
                    except sem.EvalError:
                        counts["eval_errors"] += 1
        return counts

    def outcome(self, verdict):
        refused, printed = verdict
        return refused, tuple(count_nodes(o) for o, _, _ in printed)

    def refused(self, verdict) -> int:
        return verdict[0]


WORKLOADS = {w.name: w for w in (IntervalSolve, CoordsSolve, Rewrite)}
