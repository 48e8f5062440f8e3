"""End-to-end benchmark of intlat, with an optional traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload interval-solve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30     # every workload, one table
    python3 bench/run.py --census                        # every named suite once

One process, one client, one item at a time (a closed loop) over a fixed,
seeded item list: one pass.  A run repeats the pass, each time on a fresh
import.  ``--seconds`` sets how many times: the run length divided by the
workload's reference pass time, rounded up, at least MIN_PASSES.  So two
versions of the program always run identical items, however fast either is.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same items twice, each time on a fresh import: first plain, then with
timing wrappers on every layer function (see tracing.py), and reports the
per-layer metrics; both passes must give identical verdicts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
package sources next to this directory the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
SETUPS_PER_PASS = 2
MODULES = ("order", "finset", "fci", "syntax", "oracle", "semantics", "transforms", "suites")

# ROADMAP contract: checked= per suite, member+subset and w2l+l2w summed
CENSUS_CONTRACT = {
    "notbot": 32,
    "posex": 1627,
    "ipschar": 5201,
    "endpoints": 2180,
    "member+subset": 19019,
    "w2l+l2w": 22476,
    "pipeline": 2214,
}


class SetupError(RuntimeError):
    pass


def load_intlat() -> SimpleNamespace:
    """Import intlat afresh from this checkout's sources.

    Dropping the package from ``sys.modules`` first re-executes every module,
    so each call pays the import again and starts with empty module-level
    caches."""
    if not (SRC / "intlat" / "__init__.py").is_file():
        raise SetupError(f"no intlat sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "intlat" or n.startswith("intlat.")]:
        del sys.modules[name]
    pkg = importlib.import_module("intlat")
    if Path(pkg.__file__).resolve().parent != SRC / "intlat":
        raise SetupError(f"imported intlat from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"intlat.{name}") for name in MODULES}
    return SimpleNamespace(intlat=pkg, **mods)


def build(name: str, seed: int, tracer: Tracer | None = None):
    """One set-up: import, parse and rewrite the corpus, lay out the items."""
    m = load_intlat()
    if tracer is not None:
        tracer.install(m)
        tracer.enabled = True
    try:
        workload = WORKLOADS[name]
        return workload(m, seed, workload.pass_rounds)
    finally:
        if tracer is not None:
            tracer.enabled = False


def run_pass(wl, tracer: Tracer | None = None) -> dict:
    """Time every item of every round; check each verdict against its
    reference outside the timed region (and outside the tracer)."""
    gc.collect()
    latencies, outcomes = [], []
    failed = 0
    rejected = wl.rejected
    for items in wl.rounds:
        scope: dict = {}
        for item in items:
            if tracer is not None:
                tracer.enabled = True
            error = None
            t0 = time.perf_counter()
            try:
                verdict = wl.run(item, scope)
            except Exception as exc:  # a crash fails the item, not the run
                error = f"error: {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.enabled = False
            if error is not None:
                failed += 1
                outcomes.append(error)
                continue
            failed += not wl.check(item, verdict)
            rejected += wl.refused(verdict)
            outcomes.append(wl.outcome(verdict))
    return {
        "latencies": latencies,
        "outcomes": outcomes,
        "failed": failed,
        "rejected": rejected,
        "wall": sum(latencies),
    }


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def passes_for(name: str, seconds: int) -> int:
    return max(MIN_PASSES, math.ceil(seconds / WORKLOADS[name].pass_seconds))


def allowed_cpus() -> list:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(cpus) -> None:
    """Keep this process on the given CPUs (where the platform allows it)."""
    if cpus and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, set(cpus))


def measure(name: str, seed: int, seconds: int) -> dict:
    """The timed passes of a run over the same items, each after
    SETUPS_PER_PASS timed set-ups (the last one is used).  An item's latency
    is its fastest pass: the host only ever adds time, so the fastest
    timing is the one least disturbed by other tenants.

    Pass i and its set-ups run pinned to the i-th allowed CPU.  On a shared
    host one CPU can run this code far slower than another for tens of
    seconds (a busy hardware sibling); a run left on one CPU lands on either
    speed, while a run spread over them takes each item from the faster."""
    cpus = allowed_cpus()
    setups, passes = [], []
    try:
        for i in range(passes_for(name, seconds)):
            pin(cpus[i % len(cpus) :][:1] if cpus else [])
            for _ in range(SETUPS_PER_PASS):
                wl = None  # drop the previous set-up before timing the next
                gc.collect()
                t0 = time.perf_counter()
                wl = build(name, seed)
                setups.append(time.perf_counter() - t0)
            passes.append(run_pass(wl))
    finally:
        pin(cpus)
    # the high-water mark of set-up and passes, before the benchmark's own checks
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = wl.semantic_check()
    n = len(passes[0]["latencies"])
    lat_ms = [min(p["latencies"][i] for p in passes) * 1e3 for i in range(n)]
    # verdicts are deterministic: an item that differs between passes fails
    unstable = sum(len({repr(p["outcomes"][i]) for p in passes}) > 1 for i in range(n))
    attempted = n * len(passes) + extra.get("checked", 0)
    failed = sum(p["failed"] for p in passes) + unstable + extra.get("failed", 0)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (n / (sum(lat_ms) / 1e3), "1/s"),
        "latency_ms_p50": (quantile(lat_ms, 50), "ms"),
        "latency_ms_p90": (quantile(lat_ms, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "output_nodes": (wl.nodes_out, "count"),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "rounds_per_pass": wl.pass_rounds,
            "passes": len(passes),
            "latency_samples": n,
            "failed_ratio": failed / attempted,
            "rejected": passes[0]["rejected"],
            "pass_seconds": [round(p["wall"], 2) for p in passes],
            **{f"semantic_{k}": v for k, v in extra.items()},
        },
    }


def measure_traced(name: str, seed: int) -> dict:
    """One pass of the untraced run's items, untraced and then traced, each
    on a fresh import."""
    plain = run_pass(build(name, seed))
    tracer = Tracer()
    wl = build(name, seed, tracer)
    try:
        traced = run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    same = plain["outcomes"] == traced["outcomes"] and plain["rejected"] == traced["rejected"]
    metrics = tracer.per_layer()
    metrics["transforms.nodes_out"] = (wl.nodes_out, "count")
    metrics["transforms.growth"] = (wl.nodes_out / wl.nodes_in, "ratio")
    metrics["transforms.rejected"] = (traced["rejected"], "count")
    metrics["trace.overhead_ratio"] = (traced["wall"] / plain["wall"], "ratio")
    n = len(traced["outcomes"])
    failed = traced["failed"] + (0 if same else n)
    return {
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "rounds_per_pass": wl.pass_rounds,
            "latency_samples": n,
            "failed_ratio": failed / n,
            "rejected": traced["rejected"],
            "verdicts_match_untraced": same,
            "top_self_ms_by_caller": [
                (f"{parent} > {span}", round(ns / 1e6, 1)) for (parent, span), ns in tracer.edges.most_common(8)
            ],
        },
    }


def print_result(workload: str, result: dict) -> None:
    for key, (value, unit) in result["metrics"].items():
        print(f"{workload:15s} {key:34s} {value:14.4f} {unit}")
    for key, value in result["info"].items():
        print(f"{workload:15s} {key:34s} {value}")


def contract_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }
    )


def census() -> dict:
    """Every named suite plus the negation-elimination suite, once each."""
    m = load_intlat()
    suites = dict(m.suites.SUITES)
    suites["posex"] = m.suites.suite_posex
    rows = {}
    for name, suite in suites.items():
        t0 = time.perf_counter()
        report = suite()
        rows[name] = {
            "seconds": round(time.perf_counter() - t0, 3),
            "checked": report.checked,
            "failures": len(report.failures),
        }
    checked = {name: row["checked"] for name, row in rows.items()}
    checked["member+subset"] = checked.pop("member") + checked.pop("subset")
    checked["w2l+l2w"] = checked.pop("w2l") + checked.pop("l2w")
    compare = {
        name: {"checked": checked.get(name), "contract": want, "same": checked.get(name) == want}
        for name, want in CENSUS_CONTRACT.items()
    }
    return {"suites": rows, "contract": compare, "environment": environment()}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for key, val in part["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--census", action="store_true", help="run every named suite once instead")
    args = ap.parse_args(argv)
    try:
        if args.census:
            print(json.dumps(census(), indent=1))
            return 0
        if args.workload == "all":
            return run_all(args)
        if args.trace:
            result = measure_traced(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result["info"]["environment"] = environment()
    print_result(args.workload, result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
