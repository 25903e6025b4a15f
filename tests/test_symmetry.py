"""The singular locus commutes with the two symmetries of Bruhat order.

iota(w) = w^-1 and kappa(w) = w0.w.w0 are length-preserving automorphisms of
Bruhat order that map transpositions to transpositions, so they carry the
components of Sing(X_w) onto those of Sing(X_iota(w)) and Sing(X_kappa(w)),
with the same family and the same tangent counts.  iota keeps each ordered
side pair (l, m).  kappa reverses positions and values, so it keeps 4231's
sorted (l, m) and 3412*'s l, and swaps 3412empty's l (maxima left of the
square) with m (minima right of it).

Both symmetries also keep Kazhdan-Lusztig polynomials, P(v, w) =
P(iota v, iota w) = P(kappa v, kappa w), and carry a component's slice onto
the image's: the same number of free coordinates, fitted by the same cone.

These checks see only errors that break the symmetry: they add to the
exhaustive oracles and replace none.  The pattern-route check needs no
symmetric group, so it also runs on seeded w at n = 12, 16 and 20.
"""

import dataclasses
import itertools
import random

import pytest

from schubsing import components
from schubsing.components import TYPE_3412_EMPTY, TYPE_3412_STAR, TYPE_4231
from schubsing.kl import kl_recursion
from schubsing.perms import Permutation, inverse
from schubsing.slices import free_coordinates
from schubsing.symgroup import symmetric_group
from schubsing.tangent import component_counts


def _kappa(w):
    """w0.w.w0: reverse the positions and the values."""
    return Permutation(tuple(w.n + 1 - x for x in reversed(w.values)))


def _kappa_sides(c):
    if c.ctype == TYPE_3412_EMPTY:
        return c.m, c.l
    return c.l, c.m


SYMMETRIES = [("iota", inverse, lambda c: (c.l, c.m)), ("kappa", _kappa, _kappa_sides)]


def _all_perms(n):
    return (Permutation(values) for values in itertools.permutations(range(1, n + 1)))


def _route_mismatches(w):
    """The symmetries under which the pattern route of w does not map onto that of its image.

    Each component c of w must go to the component of the image at the
    image of c.v, with c's family and c's sides as the symmetry moves them.
    """
    route = components.components_from_patterns
    mine = route(w)
    bad = []
    for name, sym, sides in SYMMETRIES:
        expected = sorted((sym(c.v).values, c.ctype, sides(c)) for c in mine)
        theirs = sorted((c.v.values, c.ctype, (c.l, c.m)) for c in route(sym(w)))
        if expected != theirs:
            bad.append(name)
    return bad


def _mismatch_count(max_n):
    return sum(len(_route_mismatches(w)) for n in range(2, max_n + 1) for w in _all_perms(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_pattern_route_commutes_with_both_symmetries(n):
    for w in _all_perms(n):
        assert not _route_mismatches(w), w.values


def test_kappa_swaps_the_3412empty_sides():
    """Each 3412empty component of S_5..S_7 with l != m has its sides swapped by kappa.

    A check that read only l + m would pass an l and m exchanged everywhere;
    this pins the orientation, and the count pins that none is skipped.
    """
    swapped = 0
    for n in (5, 6, 7):
        for w in _all_perms(n):
            theirs = {c.v: c for c in components.components_from_patterns(_kappa(w))}
            for c in components.components_from_patterns(w):
                if c.ctype == TYPE_3412_EMPTY and c.l != c.m:
                    image = theirs[_kappa(c.v)]
                    assert (image.l, image.m) == (c.m, c.l), (w.values, c.v.values)
                    swapped += 1
    assert swapped == 1008


@pytest.mark.parametrize("n", [12, 16, 20])
def test_pattern_route_commutes_on_seeded_large_w(n):
    rng = random.Random(n)
    families = set()
    for _ in range(10):
        values = list(range(1, n + 1))
        rng.shuffle(values)
        w = Permutation(tuple(values))
        assert not _route_mismatches(w), w.values
        families.update(c.ctype for c in components.components_from_patterns(w))
    assert families == {TYPE_4231, TYPE_3412_STAR, TYPE_3412_EMPTY}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_component_counts_commute_with_both_symmetries(n):
    for w in _all_perms(n):
        mine = component_counts(w)
        for _, sym, _ in SYMMETRIES:
            expected = sorted((sym(v).values, dim) for v, dim in mine)
            assert [(v.values, dim) for v, dim in component_counts(sym(w))] == expected


def _kl_mismatches(pairs):
    """The (v, w) among ``pairs`` whose polynomial differs from that of an image pair."""
    return [
        (v.values, w.values)
        for v, w in pairs
        if any(kl_recursion(sym(v), sym(w)) != kl_recursion(v, w) for _, sym, _ in SYMMETRIES)
    ]


def test_kl_recursion_is_invariant_on_every_pair_of_s5():
    """All 4,017 pairs v <= w of S_1..S_5."""
    pairs = []
    for n in range(1, 6):
        group = symmetric_group(n)
        for wi in range(group.order):
            pairs += [(group.perm(vi), group.perm(wi)) for vi in group.interval(wi)]
    assert len(pairs) == 4017
    assert _kl_mismatches(pairs) == []


def test_kl_recursion_is_invariant_on_the_component_pairs_of_s6():
    pairs = [(c.v, w) for w in _all_perms(6) for c in components.components_from_patterns(w)]
    assert len(pairs) == 613
    assert _kl_mismatches(pairs) == []


def test_images_of_a_component_keep_its_family_and_slice_shape():
    """Each image pair is a component of the same family and the same slice shape.

    On all 656 component pairs of S_2..S_6: as many free coordinates, fitted
    by the same cone.
    """
    route = components.components_from_patterns
    pairs = 0
    for n in range(2, 7):
        for w in _all_perms(n):
            mine = route(w)
            for _, sym, _ in SYMMETRIES:
                theirs = {c.v: c for c in route(sym(w))}
                for c in mine:
                    image = theirs[sym(c.v)]
                    free = free_coordinates(c.v, w)
                    image_free = free_coordinates(image.v, sym(w))
                    assert image.ctype == c.ctype, (w.values, c.v.values)
                    assert len(image_free) == len(free), (w.values, c.v.values)
                    cones = type(image.fit_cone(image_free)), type(c.fit_cone(free))
                    assert cones[0] is cones[1], (w.values, c.v.values)
            pairs += len(mine)
    assert pairs == 656


# ---------------------------------------------------------------------------
# mutants that break the symmetry must be caught


def test_a_4231_drop_that_depends_on_w_is_caught(monkeypatch):
    """Dropping the 4231 components of w with w(1) < w(n): iota does not keep that condition.

    20 (w, symmetry) pairs of S_2..S_6 break.
    """
    real = components.components_from_patterns

    def mutant(w):
        comps = real(w)
        if w.values[0] < w.values[-1]:
            comps = [c for c in comps if c.ctype != TYPE_4231]
        return comps

    monkeypatch.setattr(components, "components_from_patterns", mutant)
    assert _mismatch_count(6) == 20


def test_a_side_count_that_depends_on_v_is_caught(monkeypatch):
    """l + 1 for components whose v fixes 1: kappa moves that condition to v(n) = n.

    164 (w, symmetry) pairs of S_2..S_6 break.
    """
    real = components.components_from_patterns

    def mutant(w):
        return [
            dataclasses.replace(c, l=c.l + 1) if c.v.values[0] == 1 else c for c in real(w)
        ]

    monkeypatch.setattr(components, "components_from_patterns", mutant)
    assert _mismatch_count(6) == 164
