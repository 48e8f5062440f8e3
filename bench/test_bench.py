"""Self-tests of the benchmark: run with ``python3 -m pytest bench``.

Each workload runs on a small slice of its first round, once plain and
once traced, on fresh imports; both must agree item by item and fail
nothing.  The value-level references are checked against the kernels on
the coordinate grid, where both are cheap.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent


def _slice(wl) -> None:
    """Keep a cheap but varied slice of the first round."""
    items = wl.rounds[0]
    if wl.name == "coords-solve":
        items = items[::23]
    wl.rounds = [items]


def _tiny(name: str, tracer: Tracer | None = None) -> dict:
    wl = run.build(name, 3, tracer)
    _slice(wl)
    try:
        return {"wl": wl, "pass": run.run_pass(wl, tracer)}
    finally:
        if tracer is not None:
            tracer.uninstall()


@pytest.fixture(autouse=True)
def cheap_passes(monkeypatch):
    # bounded shapes with several parts: every formula stays under ~0.2 s
    monkeypatch.setattr(workloads.IntervalSolve, "templates", ("s", "pp"))
    monkeypatch.setattr(workloads.Rewrite, "pass_rounds", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_agree(name):
    plain = _tiny(name)["pass"]
    tracer = Tracer()
    traced = _tiny(name, tracer)["pass"]
    assert plain["outcomes"] == traced["outcomes"]
    assert plain["rejected"] == traced["rejected"]
    assert plain["failed"] == traced["failed"] == 0
    assert len(plain["outcomes"]) >= 20
    layer = tracer.per_layer()
    if name == "rewrite":
        assert layer["semantics.eval_bounded.calls"][0] == 0
        assert layer["transforms.pipeline.ms"][0] > 0
    else:
        assert layer["semantics.eval_bounded.calls"][0] >= len(plain["outcomes"])
        assert layer["finset.hash.calls"][0] > 0


def test_tracer_puts_every_original_back():
    m = run.load_intlat()
    before = {id(m.semantics.eval_term), id(m.transforms.free_vars), id(m.finset.FinSet.__hash__)}
    tracer = Tracer()
    tracer.install(m)
    assert id(m.transforms.free_vars) not in before
    tracer.uninstall()
    after = {id(m.semantics.eval_term), id(m.transforms.free_vars), id(m.finset.FinSet.__hash__)}
    assert before == after


def test_rewrite_semantic_sample_has_no_wrong_verdicts():
    wl = run.build("rewrite", 3)
    counts = wl.semantic_check()
    assert counts["checked"] > 0
    assert counts["failed"] == 0


def test_grid_family_matches_the_enumerator():
    m = run.load_intlat()
    ours = {workloads.to_fci(m, p) for p in workloads.grid_family(workloads.GRID, 2)}
    grid = m.finset.FinSet(workloads.GRID)
    assert ours == set(m.oracle.enum_fcis(grid, 2, True))
    assert len(ours) == len(workloads.grid_family(workloads.GRID, 2))


def test_part_list_references_match_the_kernel():
    m = run.load_intlat()
    family = workloads.grid_family(workloads.GRID, 2)
    probes = sorted({p / 2 for p in range(9)})
    for xs in family:
        x = workloads.to_fci(m, xs)
        assert workloads.left_points(xs) == x.left_endpoints().elements
        assert workloads.right_points(xs) == x.right_endpoints().elements
        for p in probes:
            assert workloads.parts_contain(xs, p) == x.contains(p)
        for ys in family:
            assert workloads.parts_subset(xs, ys) == x.issubset(workloads.to_fci(m, ys))


def test_alpha_equal_ignores_bound_names_only():
    m = run.load_intlat()
    sig = m.syntax.SIG_L
    a = m.syntax.parse("E Y. cap(Y, X) = Y", sig)
    b = m.syntax.parse("E W. cap(W, X) = W", sig)
    c = m.syntax.parse("E W. cap(W, Z) = W", sig)
    assert workloads.alpha_equal(a, b)
    assert not workloads.alpha_equal(a, c)


def test_without_the_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rewrite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_the_contract(capsys, trace, section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    args = ["--workload", "rewrite", "--seed", "2", "--seconds", "1", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
