"""Command line front end.

Subcommands: ``parse``, ``eval``, ``translate``, ``posex``, ``pipeline``
and ``check``.  Exit codes: 0 success, 1 a check found a counterexample,
2 usage, parse or evaluation error or a formula nested too deeply, 3 input
outside the supported fragment, 4 an unexpected internal error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Optional

from .fci import FciSet, format_fci, parse_fci
from .finset import FinSet, format_finset, parse_finset
from .semantics import EvalError, WitnessPool, default_pool, eval_bounded
from .suites import SUITES
from .syntax import (
    SIG_L,
    SIG_W,
    ParseError,
    format_formula,
    parse,
)
from .transforms import (
    FragmentError,
    pipeline,
    to_positive_existential,
    translate_L_to_W,
    translate_W_to_L,
)

_SIGS = {"w": SIG_W, "l": SIG_L}


def _positive(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {text}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="intlat",
        description="finite sets and finite unions of closed intervals over "
        "the nonnegative rationals: parse, evaluate, translate",
    )
    top.add_argument("--json", action="store_true", help="emit a JSON envelope")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print it back")
    p.add_argument("--sig", choices=("w", "l"), required=True)
    p.add_argument("formula")

    p = sub.add_parser("eval", help="evaluate a formula under an assignment")
    p.add_argument("--sig", choices=("w", "l"), required=True)
    p.add_argument(
        "--let",
        action="append",
        default=[],
        metavar="X=SET",
        help="bind a variable; finite sets like {1, 3/2}, interval unions "
        "like [1,2]+{3}+[4,*) or empty",
    )
    p.add_argument(
        "--pool",
        metavar="POINTS",
        help="witness pool points as a finite set, e.g. {0, 1, 2}",
    )
    p.add_argument("formula")

    p = sub.add_parser("translate", help="translate between the two sorts")
    p.add_argument("--dir", choices=("w2l", "l2w"), required=True)
    p.add_argument("formula")

    p = sub.add_parser("posex", help="eliminate negations from a finite-set formula")
    p.add_argument("formula")

    p = sub.add_parser("pipeline", help="rewrite an interval formula to an existential one")
    p.add_argument("formula")

    p = sub.add_parser("check", help="run a named equivalence suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--pool-size", type=_positive, default=None, help="points of the suite's pool")
    p.add_argument("--seed", type=int, default=None, help="seed of a suite that draws at random")
    return top


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, FinSet):
        return format_finset(value)
    if isinstance(value, FciSet):
        return format_fci(value)
    return str(value)


def _render_assignment(a: dict) -> str:
    return " ".join(f"{k}={_render(v)}" for k, v in sorted(a.items()))


def _emit(args, result: str, failures: Optional[list] = None) -> None:
    if args.json:
        envelope = {
            "command": args.command,
            "result": result,
            "failures": [
                {"assignment": {k: _render(v) for k, v in sorted(a.items())},
                 "lhs": _render(x), "rhs": _render(y)}
                for a, x, y in (failures or [])
            ],
        }
        print(json.dumps(envelope, sort_keys=True))
    else:
        print(result)
        for a, x, y in failures or []:
            print(
                f"counterexample: {_render_assignment(a)} "
                f"lhs={_render(x)} rhs={_render(y)}"
            )


def _cmd_parse(args) -> int:
    f = parse(args.formula, _SIGS[args.sig])
    _emit(args, format_formula(f))
    return 0


def _cmd_eval(args) -> int:
    sig = _SIGS[args.sig]
    f = parse(args.formula, sig)
    assignment = {}
    for binding in args.let:
        name, eq, text = binding.partition("=")
        if not eq or not name.strip():
            raise ValueError(f"--let expects X=SET, got {binding!r}")
        name = name.strip()
        if name in assignment:
            raise ValueError(f"--let binds {name} more than once")
        assignment[name] = parse_fci(text) if args.sig == "l" else parse_finset(text)
    if args.pool is not None:
        points = parse_finset(args.pool)
        pool = WitnessPool(points=points, max_segments=len(points))
    else:
        pool = default_pool(assignment)
    result = eval_bounded(f, assignment, pool, sig)
    _emit(args, _render(result))
    return 0


def _cmd_translate(args) -> int:
    if args.dir == "w2l":
        f = parse(args.formula, SIG_W)
        _emit(args, format_formula(translate_W_to_L(f)))
    else:
        f = parse(args.formula, SIG_L)
        _emit(args, format_formula(translate_L_to_W(f)))
    return 0


def _cmd_posex(args) -> int:
    f = parse(args.formula, SIG_W)
    _emit(args, format_formula(to_positive_existential(f)))
    return 0


def _cmd_pipeline(args) -> int:
    f = parse(args.formula, SIG_L)
    _emit(args, format_formula(pipeline(f)))
    return 0


def _cmd_check(args) -> int:
    suite = SUITES[args.suite]
    seed = {} if args.seed is None else {"seed": args.seed}
    if seed and "seed" not in inspect.signature(suite).parameters:
        raise ValueError(f"suite {args.suite} is exhaustive and takes no --seed")
    report = suite(pool_size=args.pool_size, **seed)
    _emit(args, report.summary(), report.failures[:1])
    return 0 if report.ok else 1


_DISPATCH = {
    "parse": _cmd_parse,
    "eval": _cmd_eval,
    "translate": _cmd_translate,
    "posex": _cmd_posex,
    "pipeline": _cmd_pipeline,
    "check": _cmd_check,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except FragmentError as e:
        print(f"fragment error: {e}", file=sys.stderr)
        return 3
    except (ParseError, EvalError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
