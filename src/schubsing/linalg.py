"""Exact integer linear algebra and multilinear polynomial scraps.

Everything the slice geometry needs and nothing more: fraction-free row
reduction over the integers (matrix rank, and the echelon form the
membership test reads its rank conditions from), plus a tiny representation
for the polynomials that show up as slice equations.

Those polynomials are always multilinear with integer coefficients: every
variable is one matrix entry, and a determinant uses each entry at most
once.  A polynomial is a dict mapping a sorted tuple of variable ids to its
integer coefficient; the empty tuple is the constant term.
"""

from __future__ import annotations

from math import gcd, lcm
from numbers import Rational
from operator import attrgetter
from typing import Mapping, Sequence

__all__ = [
    "Poly",
    "integer_row",
    "matrix_rank",
    "poly_add",
    "poly_canonical",
    "poly_eval",
    "poly_is_homogeneous_quadratic",
    "poly_mul",
    "poly_scale",
    "poly_to_string",
    "poly_var",
    "reduce_row",
    "sym_det",
]

Poly = dict[tuple[int, ...], int]

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def integer_row(row: Sequence[Rational]) -> list[int]:
    """A rational row scaled to ints by the least common multiple of its denominators.

    Scaling never changes the span, so rank conditions read off the scaled
    rows are those of the original rows.
    """
    den = lcm(*map(_denominator, row))
    if den == 1:
        return list(map(_numerator, row))
    return [x.numerator * (den // x.denominator) for x in row]


def reduce_row(pivots: dict[int, list[int]], row: list[int]) -> int | None:
    """Reduce one int row against an echelon basis, fraction-free.

    ``pivots`` maps a column to the stored basis row whose last nonzero
    entry sits in it.  Each step replaces the row by a.row - b.pivot, which
    zeroes its last nonzero entry (Bareiss-style: no division, so ints stay
    ints).  Entries right of a row's lead are zero in both rows, so a step
    rewrites only the columns left of the lead, and rows (the input and the
    stored ones) may be short: a missing entry is zero.  A row left nonzero
    joins the basis, cut after its lead and divided by the gcd of its
    entries, and its column is returned; a row in the span returns None.
    The basis spans the same space as the rows fed in.  Rational rows go
    through :func:`integer_row` first.
    """
    work = row
    lead = len(work) - 1
    while lead >= 0:
        if not work[lead]:
            lead -= 1
            continue
        pivot = pivots.get(lead)
        if pivot is None:
            work = work[: lead + 1]
            g = gcd(*work)
            pivots[lead] = [x // g for x in work] if g != 1 else work
            return lead
        a, b = pivot[lead], work[lead]
        g = gcd(a, b)
        a, b = a // g, b // g
        work = [a * x - b * y for x, y in zip(work[:lead], pivot)]
        lead -= 1
    return None


def matrix_rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Rank of a small dense matrix over the rationals, by integer elimination."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        reduce_row(pivots, integer_row(row))
    return len(pivots)


def poly_var(i: int) -> Poly:
    return {(i,): 1}


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, coeff in b.items():
        new = out.get(mono, 0) + coeff
        if new:
            out[mono] = new
        else:
            out.pop(mono, None)
    return out


def poly_scale(a: Poly, k: int) -> Poly:
    if k == 0:
        return {}
    return {mono: k * coeff for mono, coeff in a.items()}


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            merged = tuple(sorted(ma + mb))
            if len(set(merged)) != len(merged):
                raise ValueError("repeated variable; product is not multilinear")
            new = out.get(merged, 0) + ca * cb
            if new:
                out[merged] = new
            else:
                out.pop(merged, None)
    return out


def poly_eval(p: Poly, values: Sequence[int]) -> int:
    total = 0
    for mono, term in p.items():
        for i in mono:
            term *= values[i]
        total += term
    return total


def poly_is_homogeneous_quadratic(p: Poly) -> bool:
    return bool(p) and all(len(mono) == 2 for mono in p)


def poly_canonical(p: Poly) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Hashable normal form with the overall sign fixed by the leading term."""
    items = sorted(p.items())
    if items and items[0][1] < 0:
        items = [(mono, -coeff) for mono, coeff in items]
    return tuple(items)


def sym_det(matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix of multilinear polynomials.

    Cofactor expansion, always along the sparsest remaining row; the
    matrices here are small (at most 7 x 7) and mostly zero.
    """
    size = len(matrix)
    if size == 0:
        return {(): 1}

    def expand(rows: tuple[int, ...], cols: tuple[int, ...]) -> Poly:
        if not rows:
            return {(): 1}
        best = min(
            rows, key=lambda r: sum(1 for c in cols if matrix[r][c])
        )
        rest_rows = tuple(r for r in rows if r != best)
        sign = 1 if rows.index(best) % 2 == 0 else -1
        total: Poly = {}
        for pos, c in enumerate(cols):
            entry = matrix[best][c]
            if not entry:
                continue
            rest_cols = cols[:pos] + cols[pos + 1 :]
            term = poly_mul(entry, expand(rest_rows, rest_cols))
            total = poly_add(total, poly_scale(term, sign if pos % 2 == 0 else -sign))
        return total

    index = tuple(range(size))
    return expand(index, index)


def poly_to_string(p: Poly, names: Mapping[int, str]) -> str:
    """Render as a sum of monomials, deterministically ordered."""
    if not p:
        return "0"
    parts: list[str] = []
    for mono, coeff in sorted(p.items()):
        body = "*".join(names[i] for i in mono) if mono else "1"
        mag = abs(coeff)
        term = body if mag == 1 and mono else f"{mag}*{body}" if mono else str(mag)
        if not parts:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
    return " ".join(parts)
