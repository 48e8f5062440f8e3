"""Command line interface: exit codes, output shape, and determinism."""

import json
import random
import time

import pytest
from helpers import FINITE_SET_OPS, INTERVAL_OPS, generated_formula

from intlat import cli
from intlat.cli import main
from intlat.syntax import SIG_L, SIG_W, format_formula, parse
from intlat.transforms import simplify, translate_L_to_W


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
    "value, message",
    [("[1]", "a segment must read [a,b], got '[1]'"), ("[1)", "a ray must read [a,*), got '[1)'")],
)
def test_eval_names_a_malformed_interval_part(capsys, value, message):
    code, out, err = run(capsys, "eval", "--sig", "l", "--let", f"X={value}", "X = X")
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
    code, out, err = run(capsys, "pipeline", " & ".join(["X = bot"] * 5000))
    assert code == 2
    assert out == ""
    assert err.strip() == "error: formula nested too deeply"


def test_parse_prints_back_the_longest_chain_it_reads(capsys):
    # the printer keeps its own stack, so it takes every depth parse takes
    text = " & ".join(["X = bot"] * 5000)
    code, out, err = run(capsys, "parse", "--sig", "w", text)
    assert code == 0
    assert err == ""
    # the chain prints as it is written and reads back to the same text
    assert out.strip() == text
    assert format_formula(parse(out, SIG_W)) == text


def test_translate_l2w_emits_coordinate_pairs(capsys):
    code, out, _ = run(capsys, "translate", "--dir", "l2w", "X = bot")
    assert code == 0
    assert "Xl" in out and "Xr" in out


def test_translate_l2w_prints_the_simplified_coordinate_form(capsys):
    # as pipeline and the tests read it: the raw translation of X sub Y has
    # 395 nodes and terms such as cap(Xl, Xl) that simplify folds away
    code, out, _ = run(capsys, "--json", "translate", "--dir", "l2w", "X sub Y")
    assert code == 0
    got = json.loads(out)
    assert got["result"] == format_formula(simplify(translate_L_to_W(parse("X sub Y", SIG_L))))
    assert got["nodes_out"] == 291
    assert "cap(Xl, Xl)" not in got["result"]


def test_posex_output_reparses_positive(capsys):
    code, out, _ = run(capsys, "posex", "!(min(X) = cz)")
    assert code == 0
    assert "!" not in out


def test_pipeline_rejects_universal_input_with_exit_3(capsys):
    code, _, err = run(capsys, "pipeline", "A Y. (Y sub X -> Y = X)")
    assert code == 3
    assert "fragment error" in err


def test_pipeline_decides_a_universal_by_its_coordinate_form(capsys):
    code, out, err = run(capsys, "--json", "pipeline", "A Y. (l(Y) = l(X) & r(Y) = r(X) -> Y = X)")
    assert (code, err) == (0, "")
    got = json.loads(out)
    assert (got["result"], got["nodes_out"]) == ("bot = bot", 3)


def test_pipeline_names_a_universal_it_cannot_decide_in_one_line(capsys):
    code, out, err = run(capsys, "pipeline", "A Y. cup(Y, cz) = cz")
    assert (code, out) == (3, "")
    assert err == "fragment error: universal quantifier on Y cannot be eliminated\n"


def test_pipeline_refuses_a_finite_set_symbol_in_one_line(capsys):
    # the interval parser refuses ips before pipeline sees the formula
    code, out, err = run(capsys, "pipeline", "ips(X, Y) = Z")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "unknown symbol 'ips'" in err


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


def test_json_envelope_of_a_rewrite_counts_nodes(capsys):
    # a variable a finite value defines is inlined, and the coordinatewise
    # cap folds back: 17 nodes in, 7 out
    formula = "E Y. E W. min(X) = Y & max(X) = W & cap(Y, W) = bot"
    code, out, _ = run(capsys, "--json", "pipeline", formula)
    assert code == 0
    got = json.loads(out)
    assert got["result"] == "cap(min(X), max(X)) = bot"
    assert (got["nodes_in"], got["nodes_out"]) == (17, 7)
    for argv in (["translate", "--dir", "l2w"], ["translate", "--dir", "w2l"], ["posex"]):
        code, out, _ = run(capsys, "--json", *argv, "min(X) = X")
        assert code == 0 and json.loads(out)["nodes_in"] == 4, argv


_FUZZ_TOKENS = (
    "X", "Y", "Z", "E", "A", "bot", "cz", "min", "max", "l", "r", "ips", "cup", "cap", "diff", "sub",
    "(", ")", ",", ".", "=", "!", "&", "|", "->", "-", "1", "#",
)
_FUZZ_COMMANDS = (
    ["parse", "--sig", "w"],
    ["parse", "--sig", "l"],
    ["posex"],
    ["pipeline"],
    ["translate", "--dir", "w2l"],
    ["translate", "--dir", "l2w"],
)


def _fuzz_inputs() -> list:
    """200 seeded inputs: random token strings, and as many generated
    formulas, interval and finite-set ones in turn, printed."""
    rng = random.Random("cli-fuzz")
    texts = [" ".join(rng.choice(_FUZZ_TOKENS) for _ in range(rng.randint(1, 12))) for _ in range(100)]
    for i in range(100):
        ops = INTERVAL_OPS if i % 2 else FINITE_SET_OPS
        texts.append(format_formula(generated_formula(rng, 3, ("X",), ops)))
    return texts


def test_no_input_crashes_a_rewrite_or_parse(capsys):
    # exit 0, 2 (parse error) or 3 (outside the fragment), never 4 and
    # never a traceback; "--" keeps a formula that starts with "-" an
    # argument
    seen = set()
    for text in _fuzz_inputs():
        for argv in _FUZZ_COMMANDS:
            code, _, err = run(capsys, *argv, "--", text)
            assert code in (0, 2, 3) and "Traceback" not in err, (argv, text, err)
            seen.add(code)
    assert seen == {0, 2, 3}
