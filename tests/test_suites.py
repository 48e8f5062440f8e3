"""The named suites and their check harness.

The suites are the proof that the lemmas hold, so these tests check the
harness itself: a wrong rewrite is caught and named by its formula, the
count does not depend on the verdicts, and the coordinate suites read
their references off the unions they enumerate, never rebuilding them
from endpoints.
"""

import pytest

from intlat import fci, suites
from intlat.finset import FinSet
from intlat.oracle import enum_finsets
from intlat.suites import EquivReport, check_equiv
from intlat.syntax import SIG_W, parse

fs = FinSet.of

WRONG = parse("cz = bot", SIG_W)


def test_report_summary_format():
    r = EquivReport()
    assert r.summary() == "checked=0 failures=0"
    assert r.ok


def test_check_equiv_confirms_a_true_equivalence():
    pool = fs([0, 1, 2])
    f = parse("cup(X, Y) = cup(Y, X)", SIG_W)
    cases = [({"X": a, "Y": b}, True) for a in enum_finsets(pool) for b in enum_finsets(pool)]
    report = EquivReport()
    check_equiv(report, "commutes", f, cases, SIG_W)
    assert report.ok
    assert report.checked == 64


def test_check_equiv_catches_a_wrong_expected_verdict():
    # same formula, but the expected verdict forgets the empty case
    f = parse("cap(X, X) = X", SIG_W)
    report = EquivReport()
    report.add({"side": "shape"}, True, True)
    check_equiv(report, "idempotent", f, [({"X": s}, bool(s)) for s in enum_finsets(fs([0, 1]))], SIG_W)
    assert report.failures == [({"X": FinSet(), "formula": "idempotent"}, False, True)]
    assert report.summary() == "checked=5 failures=1"


def test_check_equiv_wraps_evaluation_errors_with_the_assignment():
    f = parse("cap(X, Y) = X", SIG_W)
    with pytest.raises(RuntimeError, match="assignment"):
        check_equiv(EquivReport(), "unbound Y", f, [({"X": FinSet()}, True)], SIG_W)


def _wrong_l2w(real):
    return lambda f: (WRONG, real(f)[1])


@pytest.mark.parametrize(
    "suite, count, patch, note",
    [
        ("posex", 1627, ("to_positive_existential", lambda real: lambda f: WRONG), suites.POSEX_CORPUS[0]),
        ("l2w", 5244, ("_l2w", _wrong_l2w), suites.L2W_CORPUS[0][0] + " (coordinates)"),
    ],
)
def test_a_wrong_rewrite_is_counted_and_named_by_its_formula(monkeypatch, suite, count, patch, note):
    name, wrong = patch
    monkeypatch.setattr(suites, name, wrong(getattr(suites, name)))
    report = suites.SUITES[suite]()
    assert report.checked == count
    assert not report.ok
    assert report.failures[0][0]["formula"] == note


@pytest.mark.parametrize("suite, pool_size", [("member", 3), ("subset", 3), ("l2w", 2)])
def test_coordinate_suites_never_rebuild_a_union_from_its_endpoints(monkeypatch, suite, pool_size):
    def refuse(b, c):
        raise AssertionError("rebuilt a union the suite had enumerated")

    monkeypatch.setattr(fci, "build_from_endpoints", refuse)
    monkeypatch.setattr(suites, "build_from_endpoints", refuse)
    assert suites.SUITES[suite](pool_size).ok


def test_ipschar_takes_witnesses_with_a_segment_per_point():
    # on 5 points, A = {0,...,4}, B = {1,...,4}, C = {0,...,3} holds only
    # with a witness of 4 segments
    assert suites.suite_ipschar(5).summary() == "checked=39731 failures=0"
