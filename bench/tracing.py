"""Timing wrappers around the layers' public functions, for the traced run.

``Tracer.install`` replaces each traced function or method with a wrapper
everywhere a caller looks the name up: every ``intlat`` module attribute
bound to the same object, and the class attribute for methods.  A wrapper
opens a span under the innermost open span, runs the original, and closes
the span into in-memory aggregates: per span calls, inclusive time and self
time (inclusive minus the time covered by child spans), and per (parent
span, span) the self time.  Generators are timed across each resumption
and also count the values they yield.  Nothing is written until
``per_layer`` is read at the end, and ``uninstall`` puts every original
back.

While ``enabled`` is false the wrappers only forward the call, so the
benchmark's own reference checks stay out of the numbers.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns

# (module, owner, attribute, kind); owner None means a module function, kind
# "gen" a generator, "sized" a function whose result's length is counted as
# values.
TARGETS = [
    ("semantics", None, "eval_bounded", "call"),
    ("semantics", None, "eval_term", "call"),
    ("semantics", None, "universe", "sized"),
    ("oracle", None, "enum_finsets", "gen"),
    ("oracle", None, "enum_fcis", "gen"),
    *[
        ("finset", "FinSet", op, "call")
        for op in ("union", "intersect", "difference", "min_set", "max_set", "ips", "issubset", "__hash__")
    ],
    *[
        ("fci", "FciSet", op, "call")
        for op in (
            "union", "intersect", "min_set", "max_set", "left_endpoints", "right_endpoints",
            "boundary", "issubset", "__hash__",
        )
    ],
    ("fci", None, "normalize", "call"),
    ("fci", None, "build_from_endpoints", "call"),
    ("fci", None, "endpoint_condition", "call"),
    ("syntax", None, "parse", "call"),
    ("syntax", None, "format_formula", "call"),
    ("syntax", None, "free_vars", "call"),
    ("syntax", None, "substitute", "call"),
    ("transforms", None, "to_positive_existential", "call"),
    ("transforms", None, "translate_W_to_L", "call"),
    ("transforms", None, "translate_L_to_W", "call"),
    ("transforms", None, "pipeline", "call"),
    ("transforms", None, "simplify", "call"),
]

# span names that differ from "<module>.<attribute>" (dunders lose their underscores)
SHORT = {
    "format_formula": "format",
    "to_positive_existential": "posex",
    "translate_W_to_L": "w2l",
    "translate_L_to_W": "l2w",
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{SHORT.get(attr, attr.strip('_'))}"


ROOT = "<root>"


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        # span name -> [calls, inclusive ns of outermost calls, self ns]
        self.spans: dict[str, list[int]] = {}
        # (parent span, span) -> self ns
        self.edges: Counter = Counter()
        self.values: Counter = Counter()
        self._stack: list[list] = [[ROOT, 0]]
        self._restore: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------------

    def _close(self, name: str, frame: list, t0: int, calls: int) -> None:
        dt = perf_counter_ns() - t0
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        parent[1] += dt
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0, 0]
        rec[0] += calls
        if parent[0] != name:
            rec[1] += dt
        rec[2] += dt - frame[1]
        self.edges[(parent[0], name)] += dt - frame[1]

    def _wrap_call(self, name: str, fn, sized: bool):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0]
            tracer._stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, t0, 1)
            if sized:
                tracer.values[name] += len(out)
            return out

        return traced

    def _wrap_gen(self, name: str, fn):
        tracer = self

        def resumed(it):
            while True:
                frame = [name, 0]
                tracer._stack.append(frame)
                t0 = perf_counter_ns()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(name, frame, t0, 0)
                tracer.values[name] += 1
                yield value

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.enabled:
                return it
            tracer.spans.setdefault(name, [0, 0, 0])[0] += 1
            return resumed(it)

        return traced

    # -- patching ---------------------------------------------------------------

    def install(self, m) -> None:
        """Wrap every target of the intlat namespace ``m`` (see run.load_intlat)."""
        modules = list(vars(m).values())
        for mod_name, owner, attr, kind in TARGETS:
            name = span_name(mod_name, attr)
            mod = getattr(m, mod_name)
            if owner is None:
                orig = getattr(mod, attr)
            else:
                cls = getattr(mod, owner)
                orig = cls.__dict__[attr]
            if kind == "gen":
                wrapped = self._wrap_gen(name, orig)
            else:
                wrapped = self._wrap_call(name, orig, kind == "sized")
            if owner is not None:
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, wrapped)
                continue
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._restore.append((other, key, orig))
                        setattr(other, key, wrapped)

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def calls(self, name: str) -> int:
        rec = self.spans.get(name)
        return rec[0] if rec else 0

    def self_ms(self, prefix: str) -> float:
        return sum(rec[2] for n, rec in self.spans.items() if n.startswith(prefix)) / 1e6

    def mean(self, name: str, scale: float) -> float:
        rec = self.spans.get(name)
        if not rec or not rec[0]:
            return 0.0
        return rec[1] / rec[0] / scale

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """The traced run's per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for f in ("eval_bounded", "eval_term"):
            out[f"semantics.{f}.calls"] = (self.calls(f"semantics.{f}"), "count")
            out[f"semantics.{f}.self_ms"] = (self.self_ms(f"semantics.{f}"), "ms")
        for f in ("semantics.universe", "oracle.enum_finsets", "oracle.enum_fcis"):
            out[f"{f}.calls"] = (self.calls(f), "count")
            out[f"{f}.values"] = (self.values[f], "count")
        for op in ("union", "intersect", "ips", "issubset"):
            out[f"finset.{op}.us"] = (self.mean(f"finset.{op}", 1e3), "us")
        out["finset.ops.self_ms"] = (self.self_ms("finset."), "ms")
        out["finset.hash.calls"] = (self.calls("finset.hash"), "count")
        for op in ("union", "intersect", "min_set", "max_set", "left_endpoints", "right_endpoints", "normalize"):
            out[f"fci.{op}.us"] = (self.mean(f"fci.{op}", 1e3), "us")
        out["fci.build_from_endpoints.calls"] = (self.calls("fci.build_from_endpoints"), "count")
        out["fci.ops.self_ms"] = (self.self_ms("fci."), "ms")
        out["fci.hash.calls"] = (self.calls("fci.hash"), "count")
        for f in ("parse", "format"):
            out[f"syntax.{f}.ms"] = (self.mean(f"syntax.{f}", 1e6), "ms")
        for f in ("free_vars", "substitute"):
            out[f"syntax.{f}.calls"] = (self.calls(f"syntax.{f}"), "count")
        for f in ("posex", "w2l", "l2w", "pipeline", "simplify"):
            out[f"transforms.{f}.ms"] = (self.mean(f"transforms.{f}", 1e6), "ms")
        return out
