"""End-to-end acceptance checks.

Each test runs one of the advertised equivalences at full advertised
scale (exhaustive where the docs say exhaustive, seeded random where
they say random) and prints a single PASS/FAIL line so the outcome is
visible in the terminal even when pytest captures output.
"""

import random
from fractions import Fraction

from helpers import count_fcis, random_finset
from intlat.fci import EMPTY_FCI, format_fci, normalize, parse_fci
from intlat.finset import EMPTY_FS, FinSet, format_finset, parse_finset
from intlat.oracle import (
    enum_fcis,
    enum_finsets,
    random_fciset,
    random_points,
)
from intlat.suites import (
    L2W_CORPUS,
    EquivReport,
    PIPELINE_CORPUS,
    POSEX_CORPUS,
    W2L_CORPUS,
    suite_endpoints,
    suite_ipschar,
    suite_l2w,
    suite_member,
    suite_notbot,
    suite_pipeline,
    suite_posex,
    suite_subset,
    suite_w2l,
)
from intlat.syntax import SIG_L, SIG_W, format_formula, parse

F = Fraction
fs = FinSet.of


def _verdict(capsys, label: str, report: EquivReport) -> None:
    line = f"{label}: {'PASS' if report.ok else 'FAIL'} [{report.summary()}]"
    with capsys.disabled():
        print(line, flush=True)
    assert report.ok, (label, report.failures[:3])


def test_nonempty_rewrite_exhaustive(capsys):
    _verdict(
        capsys,
        "nonempty-test rewrite, all 32 subsets of {0, 1, 2, 5/2, 4}",
        suite_notbot(),
    )


def test_negation_elimination_corpus(capsys):
    assert len(POSEX_CORPUS) >= 10
    _verdict(
        capsys,
        "negation elimination, %d formulas over a 4-point pool" % len(POSEX_CORPUS),
        suite_posex(),
    )


def test_successor_preimage_characterization(capsys):
    _verdict(
        capsys,
        "successor-preimage characterization, both directions, 4-point pool",
        suite_ipschar(),
    )


def test_endpoint_reconstruction(capsys):
    _verdict(
        capsys,
        "endpoint maps determine the union, both directions, 5-point pool",
        suite_endpoints(),
    )


def test_membership_and_containment_formulas(capsys):
    _verdict(capsys, "membership through endpoint coordinates", suite_member())
    _verdict(capsys, "containment through endpoint coordinates", suite_subset())


def test_translations_agree_both_ways(capsys):
    assert len(W2L_CORPUS) >= 10 and len(L2W_CORPUS) >= 10
    _verdict(
        capsys,
        "finite-set to interval translation on %d formulas, exhaustive 4-point assignments" % len(W2L_CORPUS),
        suite_w2l(),
    )
    _verdict(
        capsys,
        "interval to finite-set translation on %d formulas, exhaustive 4-point assignments" % len(L2W_CORPUS),
        suite_l2w(),
    )


def test_pipeline_on_seeded_random_assignments(capsys):
    assert len(PIPELINE_CORPUS) >= 10
    _verdict(
        capsys,
        "interval-to-existential rewrite, 200 seeded assignments per formula",
        suite_pipeline(),
    )


def test_kernel_laws(capsys):
    report = EquivReport()

    def lattice_laws(values: list, empty) -> None:
        for a in values:
            for b in values:
                for c in values:
                    ok = (
                        a.union(b) == b.union(a)
                        and a.intersect(b) == b.intersect(a)
                        and a.union(b).union(c) == a.union(b.union(c))
                        and a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
                        and a.union(a) == a
                        and a.intersect(a) == a
                        and a.union(a.intersect(b)) == a
                        and a.intersect(a.union(b)) == a
                        and a.union(empty) == a
                        and a.intersect(empty) == empty
                    )
                    report.add({"law": "lattice", "a": a, "b": b, "c": c}, True, ok)

    # exhaustive lattice laws on both sorts
    lattice_laws(list(enum_finsets(fs([0, 1, 2]))), EMPTY_FS)
    lattice_laws(list(enum_fcis(fs([0, 1]), 2, True)), EMPTY_FCI)

    # normal forms are canonical and unique: the enumeration never
    # repeats a value, re-normalizing a value's own parts is the
    # identity, and distinct normal forms differ at some sample point
    family = list(enum_fcis(fs([0, 1, 2]), 3, True))
    assert len(family) == count_fcis(3, 3, True)
    report.add({"law": "no-duplicates"}, True, len(set(family)) == len(family))
    samples = [F(0), F(1, 2), F(1), F(3, 2), F(2), F(3)]
    profiles = {}
    for u in family:
        rays = [] if u.ray_lo is None else [u.ray_lo]
        renormalized = normalize([(s.lo, s.hi) for s in u.segments], rays=rays)
        report.add({"law": "renormalize", "value": u}, True, renormalized == u)
        profiles.setdefault(tuple(u.contains(p) for p in samples), []).append(u)
    for profile, group in profiles.items():
        report.add({"law": "uniqueness", "group": group}, True, len(group) == 1)

    # parse/print round-trips: exhaustive over the enumerated family,
    # then 1000 seeded random values with larger rational endpoints
    for u in family:
        report.add({"law": "fci-round-trip", "value": u}, True, parse_fci(format_fci(u)) == u)
    for s in enum_finsets(fs([0, F(1, 2), 2, 3])):
        report.add({"law": "finset-round-trip", "value": s}, True, parse_finset(format_finset(s)) == s)
    rng = random.Random(1000)
    pts = random_points(rng, 8)
    for _ in range(1000):
        u = random_fciset(rng, pts)
        s = random_finset(rng, pts)
        report.add({"law": "fci-round-trip", "value": u}, True, parse_fci(format_fci(u)) == u)
        report.add({"law": "finset-round-trip", "value": s}, True, parse_finset(format_finset(s)) == s)

    # formula layer: printing and re-parsing is the identity on both corpora
    for text in POSEX_CORPUS + W2L_CORPUS:
        f = parse(text, SIG_W)
        report.add({"law": "formula-round-trip", "text": text}, True, parse(format_formula(f), SIG_W) == f)
    for text in PIPELINE_CORPUS + [t for t, _ in L2W_CORPUS]:
        f = parse(text, SIG_L)
        report.add({"law": "formula-round-trip", "text": text}, True, parse(format_formula(f), SIG_L) == f)

    _verdict(capsys, "kernel laws: lattice axioms, normal forms, round-trips", report)
