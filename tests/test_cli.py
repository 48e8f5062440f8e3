"""Command line interface: exit codes, output shape, and determinism."""

import json
import time

import pytest

from intlat import cli
from intlat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_prints_the_formula_back(capsys):
    code, out, err = run(capsys, "parse", "--sig", "w", "min(X)=cz & !(X=bot)")
    assert code == 0
    assert out.strip() == "min(X) = cz & !X = bot"
    assert err == ""


def test_parse_error_goes_to_stderr_with_position(capsys):
    code, out, err = run(capsys, "parse", "--sig", "w", "min(X")
    assert code == 2
    assert out == ""
    assert "position" in err


def test_wrong_signature_symbol_is_a_usage_error(capsys):
    code, _, err = run(capsys, "parse", "--sig", "w", "l(X) = r(X)")
    assert code == 2
    assert "l" in err


def test_eval_interval_formula(capsys):
    code, out, _ = run(
        capsys, "eval", "--sig", "l", "--let", "X=[1,2]+[4,*)", "max(X) = bot"
    )
    assert code == 0
    assert out.strip() == "true"


def test_eval_finite_set_formula_with_quantifier(capsys):
    code, out, _ = run(
        capsys, "eval", "--sig", "w", "--let", "X={0,2}", "E Y. cap(Y, X) = Y & min(Y) = cz & !Y = bot"
    )
    assert code == 0
    assert out.strip() == "true"


def test_eval_false_result(capsys):
    code, out, _ = run(capsys, "eval", "--sig", "l", "--let", "X=[0,1]", "X = bot")
    assert code == 0
    assert out.strip() == "false"


def test_eval_with_explicit_pool(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--sig", "w", "--let", "X={1}", "--pool", "{0, 1, 2}",
        "E Y. cup(X, Y) = Y & !max(Y) = max(X)",
    )
    assert code == 0
    assert out.strip() == "true"


def test_eval_rejects_malformed_binding(capsys):
    # the binding is no formula text, so the message names no position in one
    for binding in ("X", " ={1}"):
        code, out, err = run(capsys, "eval", "--sig", "w", "--let", binding, "X = bot")
        assert (code, out) == (2, "")
        assert err == f"error: --let expects X=SET, got {binding!r}\n"


def test_eval_rejects_a_repeated_binding(capsys):
    code, out, err = run(
        capsys, "eval", "--sig", "w", "--let", "X={1}", "--let", "X={2}", "X = bot"
    )
    assert code == 2
    assert out == ""
    assert "X" in err and "more than once" in err


@pytest.mark.parametrize(
    "formula",
    ["E X. !(X = bot)", "E X. E Y. !(X = Y) & cap(X, Y) = X"],
)
def test_eval_of_a_positive_existential_rewrite(capsys, formula):
    # the rewrite's difference pins read both sides of cup(cap(t1, t2), V) = t1
    code, rewritten, _ = run(capsys, "posex", formula)
    assert code == 0
    code, out, err = run(capsys, "eval", "--sig", "w", rewritten.strip())
    assert (code, out.strip(), err) == (0, "true", "")


def test_translate_w2l_emits_interval_syntax(capsys):
    code, out, _ = run(capsys, "translate", "--dir", "w2l", "ips(X, Y) = Z")
    assert code == 0
    assert "l(" in out and "ips(" not in out


@pytest.mark.parametrize(
    "formula, expected",
    [("!!(X = bot)", "X = bot"), ("E Y. !!(Y = X)", "E Y. l(Y) = r(Y) & Y = X")],
)
def test_translate_w2l_looks_through_double_negation(capsys, formula, expected):
    code, out, err = run(capsys, "translate", "--dir", "w2l", formula)
    assert (code, out.strip(), err) == (0, expected, "")


def test_translate_w2l_keeps_a_negated_equation(capsys):
    code, out, err = run(capsys, "translate", "--dir", "w2l", "!X = bot")
    assert (code, out.strip(), err) == (0, "!X = bot", "")


def test_too_deep_formula_is_an_error_not_a_counterexample(capsys):
    code, out, err = run(capsys, "parse", "--sig", "w", " & ".join(["X = bot"] * 5000))
    assert code == 2
    assert out == ""
    assert err.strip() == "error: formula nested too deeply"


def test_translate_l2w_emits_coordinate_pairs(capsys):
    code, out, _ = run(capsys, "translate", "--dir", "l2w", "X = bot")
    assert code == 0
    assert "Xl" in out and "Xr" in out


def test_posex_output_reparses_positive(capsys):
    code, out, _ = run(capsys, "posex", "!(min(X) = cz)")
    assert code == 0
    assert "!" not in out


def test_pipeline_rejects_universal_input_with_exit_3(capsys):
    code, _, err = run(capsys, "pipeline", "A Y. (Y sub X -> Y = X)")
    assert code == 3
    assert "fragment error" in err


def test_pipeline_takes_a_negated_containment(capsys):
    code, out, err = run(capsys, "pipeline", "!(X sub Y)")
    assert code == 0
    assert out.strip()
    assert err == ""


def test_pipeline_emits_an_interval_formula(capsys):
    code, out, _ = run(capsys, "pipeline", "l(X) = r(X)")
    assert code == 0
    assert out.strip()


def test_check_notbot_summary(capsys):
    code, out, _ = run(capsys, "check", "--suite", "notbot")
    assert code == 0
    assert out.strip() == "checked=32 failures=0"


def test_check_posex_summary(capsys):
    code, out, _ = run(capsys, "check", "--suite", "posex")
    assert code == 0
    assert out.strip() == "checked=1627 failures=0"


def test_check_is_deterministic(capsys):
    _, first, _ = run(capsys, "check", "--suite", "endpoints")
    _, second, _ = run(capsys, "check", "--suite", "endpoints")
    assert first == second


def test_check_accepts_pool_size_and_seed(capsys):
    code, out, _ = run(capsys, "check", "--suite", "notbot", "--pool-size", "4")
    assert code == 0
    assert out.strip() == "checked=16 failures=0"


@pytest.mark.parametrize("size", ["0", "-1"])
@pytest.mark.parametrize("suite", ["ipschar", "member", "subset", "l2w"])
def test_check_takes_only_a_positive_pool_size(capsys, suite, size):
    with pytest.raises(SystemExit) as ei:
        main(["check", "--suite", suite, "--pool-size", size])
    err = capsys.readouterr().err
    assert ei.value.code == 2
    assert "internal error" not in err
    # argparse prints the usage above its one error line
    errors = [line for line in err.splitlines() if "error" in line]
    assert errors == [f"intlat check: error: argument --pool-size: expected a positive count, got {size}"]


@pytest.mark.parametrize("suite", ["notbot", "ipschar", "endpoints", "posex", "member", "subset", "w2l", "l2w"])
def test_check_refuses_a_seed_for_an_exhaustive_suite(capsys, suite):
    code, out, err = run(capsys, "check", "--suite", suite, "--seed", "3")
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: suite {suite} is exhaustive and takes no --seed"]


def test_check_passes_the_seed_to_the_pipeline_suite(capsys):
    code, out, _ = run(capsys, "check", "--suite", "pipeline", "--seed", "7")
    assert code == 0
    assert out.strip() == "checked=2214 failures=0"


def test_check_refuses_more_pipeline_points_than_it_can_draw(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--suite", "pipeline", "--pool-size", "200")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: cannot draw 200 distinct points: the bounds allow 126"]


def test_check_draws_pipeline_values_on_a_large_pool_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", "--suite", "pipeline", "--pool-size", "40")
    assert time.perf_counter() - start < 10
    assert code == 0
    assert out.strip().endswith("failures=0")


def test_json_envelope(capsys):
    code, out, _ = run(capsys, "--json", "eval", "--sig", "l", "--let", "X=[1,2]", "X = bot")
    assert code == 0
    got = json.loads(out)
    assert got == {"command": "eval", "result": "false", "failures": []}


def test_json_envelope_on_check(capsys):
    code, out, _ = run(capsys, "--json", "check", "--suite", "notbot")
    assert code == 0
    got = json.loads(out)
    assert got["command"] == "check"
    assert got["result"] == "checked=32 failures=0"
    assert got["failures"] == []


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["check", "--suite", "nonsense"])
    assert ei.value.code == 2


def test_eval_lists_the_sub_unions_of_a_bound_not_the_universe(capsys):
    # the default pool has 12 points, over the interval enumeration cap;
    # the sub-unions of X use only the 7 pool points inside X
    code, out, err = run(
        capsys, "eval", "--sig", "l", "--let", "X=[1,2]+[3,4]+{5}", "E Y. Y sub X & !(Y = X)"
    )
    assert (code, out.strip(), err) == (0, "true", "")


@pytest.mark.parametrize(
    "last, expected",
    [("!(Y = bot)", "true"), ("min(Y) = cz", "false")],
)
def test_eval_builds_only_the_chosen_guard(capsys, last, expected):
    # l(Y) = r(Y) would enumerate the 16-point default pool, over the
    # finite-set cap; cap(Y, l(X)) = Y has 2^4 candidates and wins
    formula = f"E Y. l(Y) = r(Y) & cap(Y, l(X)) = Y & {last}"
    code, out, err = run(capsys, "eval", "--sig", "l", "--let", "X=[1,2]+[3,4]+[5,6]+{7}", formula)
    assert (code, out.strip(), err) == (0, expected, "")


def test_unexpected_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(args):
        raise TypeError("boom")

    monkeypatch.setitem(cli._DISPATCH, "parse", broken)
    code, out, err = run(capsys, "parse", "--sig", "w", "X = bot")
    assert (code, out) == (4, "")
    assert err.strip() == "internal error: TypeError: boom"
