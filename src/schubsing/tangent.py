"""Tangent-space dimensions of Schubert varieties at torus-fixed points.

For v <= w, the Zariski tangent space of the Schubert variety X_w at the
fixed point of v has dimension

    m(w, v) = #{ transpositions t : v.t <= w }

with t acting by multiplication on the right (swap two positions of v's
one-line notation).  The excess m(w, v) - length(w) is nonnegative, zero
exactly at smooth points, and this count is the ground truth the rest of the
package is verified against: no pattern data and no slice geometry enters
here.

``tangent_dimension`` tests each v.t with ``bruhat_leq``.  The singular
points and components of w come from :mod:`schubsing.symgroup` instead,
which counts v.t <= w on one interval mask of w, walking v.t along its
left-multiplication table.  m(w, v) is constant on each left coset
W_D v, D the left descents of w (Billey-Lakshmibai, *Singular Loci of
Schubert Varieties*, 2000), so ``component_counts`` counts only at the
coset tops the group reads off (``SymmetricGroup.coset_tops``, the same
tops the KL tables store), and each kept maximal point's own mask rules
out the points below it.  ``singular_points`` counts at every v <= w.
Points sort by length, then by group index, which is one-line order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .perms import Permutation, all_transpositions, bruhat_leq, compose, length
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

    v: Permutation
    w: Permutation
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
    count = sum(1 for t in all_transpositions(v.n) if bruhat_leq(compose(v, t), w))
    return TangentReport(v, w, count, count - length(w))


def singular_points(w: Permutation) -> set[Permutation]:
    """Fixed points v <= w where the tangent dimension exceeds length(w).

    Counts at every v of the interval.  No caller in the package: it is the
    tests' reference for :func:`component_counts`, and ``perfbench/traced.py``
    times it.
    """
    group = symmetric_group(w.n)
    wi = group.index_of(w.values)
    mask = group.lower_mask(wi)
    cands = list(compress(range(group.order), mask))
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
    # Scan by decreasing length; a point is maximal iff it is not below any
    # already-kept maximal point, that is, outside the union of their masks.
    kept: list[int] = []
    covered = bytes(group.order)
    for vi in sorted(singular, key=lambda vi: (-group.lengths[vi], vi)):
        if covered[vi]:
            continue
        kept.append(vi)
        union = int.from_bytes(covered, "big") | int.from_bytes(group.lower_mask(vi), "big")
        covered = union.to_bytes(group.order, "big")
    return [(group.perm(vi), singular[vi]) for vi in sorted(kept)]


def singular_components(w: Permutation) -> set[Permutation]:
    """Bruhat-maximal singular points: one per component of the singular locus.

    The result is an antichain; it is empty exactly when X_w is smooth.
    """
    return {v for v, _ in component_counts(w)}
