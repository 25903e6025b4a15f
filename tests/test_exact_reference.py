"""Integer slice verification against the rational-arithmetic reference.

The slice checks run in Python ints: integral cone samples (the 3412*
sampler scales its point by a0 to clear the one denominator), fraction-free
elimination in ``in_schubert``, in the chart template ``verify_slice`` tests
its points with, and in ``matrix_rank``.  The reference functions
below are the ``fractions.Fraction`` versions they replaced; every verdict
and rank must agree with them.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schubsing import components
from schubsing.components import QuadricComponent
from schubsing.linalg import matrix_rank
from schubsing.perms import rank_table
from schubsing.slices import (
    _membership,
    _rng,
    _sample_off_cone,
    build_slice,
    embed_point,
    free_coordinates,
    in_schubert,
    sample_cone,
)
from schubsing.sweep import component_pairs

SEED = 101
TRIALS = 5


def reference_rank(rows):
    """Rank over the rationals by Gaussian elimination on Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        inv = Fraction(1, 1) / prow[col]
        for r in range(rank + 1, len(work)):
            factor = work[r][col] * inv
            if factor:
                row = work[r]
                for c in range(col, ncols):
                    row[c] -= factor * prow[c]
        rank += 1
        if rank == len(work):
            break
    return rank


def reference_in_schubert(w, rows):
    """Membership of the flag with these generator rows in X_w, over Fractions."""
    n = w.n
    rw = rank_table(w)
    pivots = {}
    for p in range(1, n + 1):
        row = [Fraction(x) for x in rows[p - 1]]
        while True:
            lead = next((col for col in range(n - 1, -1, -1) if row[col]), None)
            if lead is None:
                break
            existing = pivots.get(lead)
            if existing is None:
                pivots[lead] = row
                break
            factor = row[lead] / existing[lead]
            for col in range(lead + 1):
                row[col] -= factor * existing[col]
        suffix = [0] * (n + 1)
        for col in pivots:
            suffix[col] += 1
        for col in range(n - 1, -1, -1):
            suffix[col] += suffix[col + 1]
        for q in range(1, n):
            if p - suffix[q] < rw[p][q]:
                return False
    return True


def reference_rows(model, point):
    """The chart of v filled with a point of the slice, built cell by cell."""
    n = model.v.n
    rows = [[Fraction(int(k == model.v(j))) for k in range(1, n + 1)] for j in range(1, n + 1)]
    for value, (j, k) in zip(point, model.free, strict=True):
        rows[j - 1][k - 1] = Fraction(value)
    return rows


def reference_quadric_sample(frame, free, rng):
    """The unscaled 3412* cone point: the solved coordinate is -rest / a0."""
    pairs = frame.pairs
    solved = pairs[0][1]
    values = {cell: Fraction(rng.randint(-9, 9)) for cell in free}
    while values[pairs[0][0]] == 0:
        values[pairs[0][0]] = Fraction(rng.randint(-9, 9))
    rest = sum((values[a] * values[b] for a, b in pairs[1:]), Fraction(0))
    values[solved] = -rest / values[pairs[0][0]]
    return tuple(values[cell] for cell in free)


@pytest.fixture(scope="module")
def small_pairs():
    """Every component pair of S_2 .. S_6."""
    pairs = [pair for n in (2, 3, 4, 5, 6) for pair in component_pairs(n)]
    assert len(pairs) == 656
    return pairs


def test_membership_matches_fraction_reference(small_pairs):
    """``in_schubert`` and the chart-template path of ``verify_slice`` on every point."""
    cone_points = off_points = 0
    for w, c in small_pairs:
        model = build_slice(c, w)  # its determinantal model is never read here
        member = _membership(model)
        cone = sample_cone(model, TRIALS, SEED)
        if isinstance(c, QuadricComponent):
            rng = _rng(SEED, "cone", c.v, w)
            a_index = model.free.index(model.frame.pairs[0][0])
            reference = []
            for point in cone:
                old = reference_quadric_sample(model.frame, model.free, rng)
                # The draws are unchanged; the point is scaled by a0.
                assert point == tuple(old[a_index] * x for x in old)
                reference.append(old)
        else:
            reference = cone
        for point, old in zip(cone, reference):
            assert all(type(x) is int for x in point)
            flag = embed_point(model, point)
            expected = reference_in_schubert(w, reference_rows(model, old))
            assert in_schubert(w, flag) == expected, (w.values, c.v.values, point)
            assert member(point) == expected, (w.values, c.v.values, point)
            cone_points += 1
        for point in _sample_off_cone(model, TRIALS, SEED):
            assert all(type(x) is int for x in point)
            flag = embed_point(model, point)
            expected = reference_in_schubert(w, reference_rows(model, point))
            assert in_schubert(w, flag) == expected, (w.values, c.v.values, point)
            assert member(point) == expected, (w.values, c.v.values, point)
            off_points += 1
    assert cone_points == off_points == TRIALS * len(small_pairs)


def test_jacobian_rank_matches_fraction_reference(small_pairs, monkeypatch):
    """The ``dim`` check's ranks: rank-one Jacobians and quadric coefficient matrices."""
    jacobians = []

    def recording_rank(rows):
        jacobians.append(rows)
        return matrix_rank(rows)

    monkeypatch.setattr(components, "matrix_rank", recording_rank)
    for w, c in small_pairs:
        free = free_coordinates(c.v, w)
        c.dim_rank(c.fit_frame(free), free, _rng(SEED, "jac", c.v, w))
    assert len(jacobians) == len(small_pairs)
    for rows in jacobians:
        assert all(type(x) is int for row in rows for x in row)
        assert matrix_rank(rows) == reference_rank(rows)


_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _rational_matrices(draw):
    """Products (m x r)(r x ncols), so ranks below full occur often.

    Half the matrices hold plain ints, half ``Fraction`` entries.
    """
    entries = st.integers(-6, 6) if draw(st.booleans()) else _rationals
    zero = Fraction(0) if entries is _rationals else 0
    ncols = draw(st.integers(1, 5))
    inner = draw(st.integers(1, 3))
    nrows = draw(st.integers(0, 5))
    basis = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(inner)]
    coeffs = [draw(st.lists(entries, min_size=inner, max_size=inner)) for _ in range(nrows)]
    return [
        [sum((a * row[col] for a, row in zip(coeff, basis)), zero) for col in range(ncols)]
        for coeff in coeffs
    ]


@given(_rational_matrices())
def test_rational_matrix_rank_matches_fraction_reference(rows):
    assert matrix_rank(rows) == reference_rank(rows)
