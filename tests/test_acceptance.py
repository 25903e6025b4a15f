"""Acceptance gate: one pass/fail line per criterion.

Each test prints a single summary line (visible even under output capture)
and then asserts.  Criteria 1-5 sweep every permutation of S_n for n up to
6; criterion 8 extends the sweep to S_7 and runs only when the environment
variable SCHUBSING_N7 is set (minutes of single-core runtime), and also
compares the pattern route of ``singular-locus`` there with an independent
classification of the kernel's tangent counts.
"""

import hashlib
import itertools
import json
import os
import time
from math import comb

import pytest

from schubsing import kl
from schubsing.components import (
    classify_component,
    components_from_patterns,
    verify_formulas,
)
from schubsing.kl import kl_recursion
from schubsing.patterns import is_smooth
from schubsing.perms import Permutation, length, make_permutation
from schubsing.slices import (
    DEFAULT_SEED,
    build_slice,
    free_coordinates,
    verify_slice,
)
from schubsing.sweep import component_pairs, verify_all
from schubsing.symgroup import symmetric_group
from schubsing.tangent import (
    component_counts,
    singular_components,
    singular_points,
    tangent_dimension,
)
from test_components import reference_classify, route_key

SWEEP_SIZES = (2, 3, 4, 5, 6)


def _report(capsys, criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] criterion {criterion}: {status} - {detail}")


def is_smooth_tangent(w):
    """Smoothness decided by tangent dimensions alone: no singular points."""
    return not singular_points(w)


def _all_perms(n):
    return [Permutation(values) for values in itertools.permutations(range(1, n + 1))]


def haiman_smooth_counts(nmax: int) -> list[int]:
    """Coefficients of x^0 .. x^nmax in Haiman's generating function.

    (1 - 5x + 3x^2 + x^2 sqrt(1 - 4x)) / (1 - 6x + 8x^2 - 4x^3) counts the
    smooth Schubert varieties of S_n (Bona, Electron. J. Combin. 5, 1998).
    The series is expanded in exact integers with
    sqrt(1 - 4x) = 1 - 2 sum_{k >= 1} C_{k-1} x^k, C the Catalan numbers;
    nothing in it depends on this package.
    """
    catalan = [comb(2 * k, k) // (k + 1) for k in range(nmax + 1)]
    sqrt = [1] + [-2 * catalan[k - 1] for k in range(1, nmax + 1)]
    numerator = [0] * (nmax + 3)
    for k, coeff in enumerate((1, -5, 3)):
        numerator[k] += coeff
    for k in range(nmax + 1):
        numerator[k + 2] += sqrt[k]
    denominator = (1, -6, 8, -4)
    series: list[int] = []
    for k in range(nmax + 1):
        series.append(
            numerator[k]
            - sum(denominator[i] * series[k - i] for i in range(1, 4) if i <= k)
        )
    return series


def test_pattern_smooth_counts_match_haiman_series():
    """The 3412/4231 pattern scan counts smooth w in S_1 .. S_8 as Haiman's series."""
    expected = haiman_smooth_counts(8)
    assert expected[1:] == [1, 2, 6, 22, 88, 366, 1552, 6652]
    for n in range(1, 9):
        count = sum(
            1 for values in itertools.permutations(range(1, n + 1))
            if is_smooth(Permutation(values))
        )
        assert count == expected[n], n


def test_criterion_1_smoothness_equivalence(capsys):
    """Pattern test and tangent oracle agree on every w, n <= 6."""
    start = time.perf_counter()
    total = 0
    mismatches = []
    # The sweep's smooth_count: w smooth by both pattern and tangent oracle.
    smooth_counts = {}
    for n in SWEEP_SIZES:
        smooth_counts[n] = 0
        for w in _all_perms(n):
            total += 1
            pattern, tangent = is_smooth(w), is_smooth_tangent(w)
            if pattern != tangent:
                mismatches.append(w.values)
            smooth_counts[n] += pattern and tangent
    elapsed = time.perf_counter() - start
    haiman = haiman_smooth_counts(max(SWEEP_SIZES))
    counts_ok = all(smooth_counts[n] == haiman[n] for n in SWEEP_SIZES)
    ok = not mismatches and counts_ok and elapsed < 120.0
    _report(
        capsys,
        1,
        ok,
        f"smoothness equivalence on {total} permutations, "
        f"{len(mismatches)} mismatches, smooth counts {list(smooth_counts.values())} "
        f"{'match' if counts_ok else 'DIFFER FROM'} Haiman's series, "
        f"{elapsed:.1f}s (budget 120s)",
    )
    assert not mismatches, mismatches[:5]
    assert counts_ok, (smooth_counts, haiman)
    assert elapsed < 120.0


def test_criterion_2_classification_exhaustive(capsys):
    """Every component pair classifies into one type with exact formulas."""
    pairs = 0
    failures = []
    for n in SWEEP_SIZES:
        for w, c in component_pairs(n):
            pairs += 1
            if c.ctype not in ("4231", "3412*", "3412empty"):
                failures.append((w.values, c.v.values, "unknown type"))
            elif not verify_formulas(c, w):
                failures.append((w.values, c.v.values, "formulas"))
    ok = pairs > 0 and not failures
    _report(
        capsys,
        2,
        ok,
        f"classification and double equalities on {pairs} component pairs, "
        f"{len(failures)} failures",
    )
    assert ok, failures[:5]


def test_criterion_3_kl_closed_form(capsys):
    """Closed-form KL polynomials match the recursion on every pair."""
    pairs = 0
    failures = []
    for n in SWEEP_SIZES:
        for w, c in component_pairs(n):
            pairs += 1
            if c.kl_closed_form() != kl_recursion(c.v, w):
                failures.append((w.values, c.v.values))
    spot = (
        kl_recursion(make_permutation([2, 1, 4, 3]), make_permutation([4, 2, 3, 1]))
        == kl_recursion(make_permutation([1, 3, 2, 4]), make_permutation([3, 4, 1, 2]))
        == (1, 1)
    )
    ok = pairs > 0 and not failures and spot
    _report(
        capsys,
        3,
        ok,
        f"KL closed form vs recursion on {pairs} component pairs, "
        f"{len(failures)} mismatches, spot values 1+q {'ok' if spot else 'WRONG'}",
    )
    assert ok, failures[:5]


def test_criterion_4_free_count_identity(capsys):
    """|free coordinates| = tangent dimension - l(v) on every component pair."""
    pairs = 0
    failures = []
    for n in SWEEP_SIZES:
        for w, c in component_pairs(n):
            pairs += 1
            expected = tangent_dimension(c.v, w).dim - length(c.v)
            if len(free_coordinates(c.v, w)) != expected:
                failures.append((w.values, c.v.values))
    ok = pairs > 0 and not failures
    _report(
        capsys,
        4,
        ok,
        f"free-coordinate count identity on {pairs} component pairs, "
        f"{len(failures)} exceptions",
    )
    assert ok, failures[:5]


def test_criterion_5_slice_verification(capsys):
    """All five slice checks pass with trials=50 and the fixed default seed."""
    start = time.perf_counter()
    pairs = 0
    failures = []
    for n in SWEEP_SIZES:
        for w, c in component_pairs(n):
            pairs += 1
            verdict = verify_slice(build_slice(c, w), trials=50, seed=DEFAULT_SEED)
            if not verdict.ok:
                failures.append((w.values, c.v.values, verdict.failures))
    elapsed = time.perf_counter() - start
    ok = pairs > 0 and not failures
    _report(
        capsys,
        5,
        ok,
        f"slice verification (containment, exclusion, dimension, tangent, "
        f"model equivalence) on {pairs} component pairs, trials=50, "
        f"seed={DEFAULT_SEED}, {len(failures)} failures, {elapsed:.1f}s",
    )
    assert ok, failures[:3]


def test_criterion_6_spot_values(capsys):
    """The two base singular varieties have their textbook local models."""
    problems = []

    w = make_permutation([4, 2, 3, 1])
    comps = singular_components(w)
    if {v.values for v in comps} != {(2, 1, 4, 3)}:
        problems.append("4231 components wrong")
    else:
        c = classify_component(make_permutation([2, 1, 4, 3]), w)
        if (c.ctype, c.l, c.m, c.codim, c.excess) != ("4231", 1, 1, 3, 1):
            problems.append("4231 classification wrong")
        model = build_slice(c, w)
        if len(model.free) != 4 or len(model.closed_equations) != 1:
            problems.append("4231 slice is not a 2x2 rank-one cone")

    w = make_permutation([3, 4, 1, 2])
    comps = singular_components(w)
    if {v.values for v in comps} != {(1, 3, 2, 4)}:
        problems.append("3412 components wrong")
    else:
        c = classify_component(make_permutation([1, 3, 2, 4]), w)
        if (c.ctype, c.l, c.codim, c.excess) != ("3412*", 0, 3, 1):
            problems.append("3412 classification wrong")
        verdict = verify_slice(build_slice(c, w), trials=20, seed=DEFAULT_SEED)
        if not verdict.dim_ok or length(w) - length(c.v) != 3:
            problems.append("3412 quadric cone dimension is not 3")

    ok = not problems
    _report(
        capsys,
        6,
        ok,
        "spot values for the two base singular varieties"
        + ("" if ok else f": {problems}"),
    )
    assert ok, problems


def test_criterion_7_s4_smooth_count(capsys):
    count = sum(1 for w in _all_perms(4) if is_smooth(w))
    ok = count == 22
    _report(capsys, 7, ok, f"S_4 smooth count = {count} (expected 22)")
    assert count == 22


@pytest.mark.skipif(
    not os.environ.get("SCHUBSING_N7"),
    reason="extended S_7 sweep runs only with SCHUBSING_N7=1",
)
def test_criterion_8_extended_sweep(capsys):
    """Criteria 1-5 over all of S_7 (flag-gated; minutes of runtime)."""
    start = time.perf_counter()
    jobs = int(os.environ.get("SCHUBSING_JOBS", "1"))
    report = verify_all(7, trials=50, seed=DEFAULT_SEED, jobs=jobs)
    # The pattern route of singular-locus against the reference classification
    # of the kernel's tangent counts, per w.
    route_mismatches = []
    for values in itertools.permutations(range(1, 8)):
        w = Permutation(values)
        slow = [reference_classify(v, w, dim) for v, dim in component_counts(w)]
        if [route_key(c) for c in components_from_patterns(w)] != slow:
            route_mismatches.append(values)
    # Every table of S_7, built in this process: 98 distinct polynomials.  A
    # table stores P(v, w) only at the coset tops, which take every value
    # P(., w) does.
    group = symmetric_group(7)
    polys = set()
    for wi in range(group.order):
        _, ids, _ = kl._kl_table(group, wi)
        polys.update(kl._polys[i] for i in ids)
    elapsed = time.perf_counter() - start
    summary = report["summary"]
    ok = report["ok"] and not route_mismatches
    _report(
        capsys,
        8,
        ok,
        f"extended S_7 sweep: {summary['permutations_checked']} permutations, "
        f"{summary['component_pairs']} component pairs, "
        f"{report['failures']} failures, "
        f"{len(route_mismatches)} pattern-route mismatches, "
        f"{len(polys)} distinct KL polynomials, {elapsed / 60:.1f} min",
    )
    assert report["ok"], report["failure_witnesses"][:5]
    assert not route_mismatches, route_mismatches[:5]
    # The bytes `verify-all --n 7` prints: trials and seed are the defaults.
    stdout = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.md5(stdout.encode()).hexdigest() == "d96a5355ef5d79bffad9e9a52349bae1"
    assert summary["permutations_checked"] == 5040
    assert summary["smooth_count"] == haiman_smooth_counts(7)[7] == 1552
    assert summary["component_pairs"] == 8426
    assert summary["components_by_type"] == {"3412*": 3450, "3412empty": 988, "4231": 3988}
    assert len(polys) == 98
