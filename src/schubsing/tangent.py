"""Tangent-space dimensions of Schubert varieties at torus-fixed points.

For v <= w, the Zariski tangent space of the Schubert variety X_w at the
fixed point of v has dimension

    m(w, v) = #{ transpositions t : v.t <= w }

with t acting by multiplication on the right (swap two positions of v's
one-line notation).  The excess m(w, v) - length(w) is nonnegative, zero
exactly at smooth points, and this count is the ground truth the rest of the
package is verified against: no pattern data and no slice geometry enters
here.

``tangent_dimension`` tests each v.t by rank-table domination, as
``bruhat_leq`` does, on v's one-line list with positions a < b swapped in
place.  Only rank rows a + 1..b differ from v's, which dominate w's: it
grows them one p at a time from v's row a, compares each with w's row and
stops at the first that falls short, then swaps back.  It builds no
permutation and reads no group, so it stays an oracle.  The singular
points and components of w come from :mod:`schubsing.symgroup` instead,
which counts v.t <= w on one interval mask of w, walking v.t along its
left-multiplication table.  m(w, v) is constant on each left coset
W_D v, D the left descents of w (Billey-Lakshmibai, *Singular Loci of
Schubert Varieties*, 2000), so ``component_counts`` counts only at the
coset tops the group reads off (``SymmetricGroup.coset_tops``, the same
tops the KL tables store), and ``SymmetricGroup.maximal`` keeps the
Bruhat-maximal singular tops.  ``singular_points`` counts at every v <= w.
This module only decides which points are singular: it holds masks as the
group gives them and never reads their layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, ge

from .perms import Permutation, bruhat_leq, length, rank_table
from .symgroup import symmetric_group

__all__ = [
    "TangentReport",
    "component_counts",
    "singular_components",
    "singular_points",
    "tangent_dimension",
]


@dataclass(frozen=True)
class TangentReport:
    """Tangent dimension ``dim`` = m(w, v) and ``excess`` = m(w, v) - length(w)."""

    dim: int
    excess: int


def tangent_dimension(v: Permutation, w: Permutation) -> TangentReport:
    """Count transpositions t with v.t <= w; requires v <= w.

    >>> from .perms import make_permutation
    >>> tangent_dimension(make_permutation([2, 1, 4, 3]), make_permutation([4, 2, 3, 1])).dim
    6
    """
    if not bruhat_leq(v, w):
        raise ValueError(
            f"{v.values} is not Bruhat-below {w.values}; "
            "tangent dimensions are defined only on the lower interval"
        )
    n, rv, rw = v.n, rank_table(v), rank_table(w)
    # A row p whose value is x adds one to r(p, q) for every q >= x.
    steps = [(0,) * x + (1,) * (n + 1 - x) for x in range(n + 1)]
    values = list(v.values)
    count = 0
    for a in range(n - 1):
        for b in range(a + 1, n):
            values[a], values[b] = values[b], values[a]
            # Rows p <= a and p > b of v.t are v's, which dominate w's, so
            # rank rows a + 1..b are grown from v's row a, one p at a time.
            row = rv[a]
            for x, rwp in zip(values[a:b], rw[a + 1 : b + 1]):
                row = tuple(map(add, row, steps[x]))
                if not all(map(ge, row, rwp)):
                    break
            else:
                count += 1
            values[a], values[b] = values[b], values[a]
    return TangentReport(count, count - length(w))


def singular_points(w: Permutation) -> set[Permutation]:
    """Fixed points v <= w where the tangent dimension exceeds length(w).

    Counts at every v of the interval.  No caller in the package: it is the
    tests' reference for :func:`component_counts`, and ``perfbench/traced.py``
    times it.
    """
    group = symmetric_group(w.n)
    wi = group.index_of(w.values)
    mask = group.lower_mask(wi)
    cands = group.indices(mask)
    counts = group.tangent_counts(mask, cands)
    lw = group.lengths[wi]
    return {group.perm(vi) for vi, count in zip(cands, counts) if count > lw}


def component_counts(w: Permutation) -> list[tuple[Permutation, int]]:
    """Each Bruhat-maximal singular point v with its tangent count m(w, v).

    Sorted by one-line notation of v; the points are those of
    :func:`singular_components`.  Only the tops of w's left descent cosets
    are counted: m(w, .) is constant on each coset, so every maximal
    singular point is a top, and a top below a singular point is below that
    point's top.
    """
    group = symmetric_group(w.n)
    wi = group.index_of(w.values)
    mask = group.lower_mask(wi)
    tops = group.coset_tops(mask, group.descents[wi])
    counts = group.tangent_counts(mask, tops)
    lw = group.lengths[wi]
    singular = {vi: count for vi, count in zip(tops, counts) if count > lw}
    return [(group.perm(vi), singular[vi]) for vi in group.maximal(singular)]


def singular_components(w: Permutation) -> set[Permutation]:
    """Bruhat-maximal singular points: one per component of the singular locus.

    The result is an antichain; it is empty exactly when X_w is smooth.
    """
    return {v for v, _ in component_counts(w)}
