"""Tests for the tangent-space oracle and singular locus enumeration."""

import itertools
import os

import pytest

from schubsing.patterns import is_smooth
from schubsing.perms import (
    Permutation,
    bruhat_leq,
    identity,
    inverse,
    length,
    make_permutation,
)
from schubsing.symgroup import SymmetricGroup, symmetric_group
from schubsing.tangent import (
    component_counts,
    singular_components,
    singular_points,
    tangent_dimension,
)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def test_frozen_example_4231():
    rep = tangent_dimension(make_permutation([2, 1, 4, 3]), make_permutation([4, 2, 3, 1]))
    assert rep.dim == 6
    assert rep.excess == 1


def test_frozen_example_3412():
    rep = tangent_dimension(make_permutation([1, 3, 2, 4]), make_permutation([3, 4, 1, 2]))
    assert rep.dim == 5
    assert rep.excess == 1


def test_incomparable_pair_rejected():
    with pytest.raises(ValueError):
        tangent_dimension(make_permutation([2, 1, 4, 3]), make_permutation([1, 3, 2, 4]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dimension_at_the_open_cell_is_the_length(n):
    """At v = w the variety is smooth, so the count equals l(w) exactly."""
    for w in all_perms(n):
        rep = tangent_dimension(w, w)
        assert rep.dim == length(w)
        assert rep.excess == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tangent_dimension_never_below_length(n):
    for w in all_perms(n):
        for v in all_perms(n):
            if bruhat_leq(v, w):
                assert tangent_dimension(v, w).dim >= length(w)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inversion_symmetry(n):
    for w in all_perms(n):
        for v in all_perms(n):
            if bruhat_leq(v, w):
                assert (
                    tangent_dimension(v, w).dim
                    == tangent_dimension(inverse(v), inverse(w)).dim
                )


def test_singular_points_of_4231():
    w = make_permutation([4, 2, 3, 1])
    points = {v.values for v in singular_points(w)}
    assert points == {(1, 2, 3, 4), (1, 2, 4, 3), (2, 1, 3, 4), (2, 1, 4, 3)}
    # the lower interval of 4231 is everything except 3412, 3421, 4312, 4321
    group = symmetric_group(4)
    assert len(group.interval(group.index_of((4, 2, 3, 1)))) == 20


def test_singular_points_of_3412():
    w = make_permutation([3, 4, 1, 2])
    assert make_permutation([1, 3, 2, 4]) in singular_points(w)
    group = symmetric_group(4)
    assert len(group.interval(group.index_of((3, 4, 1, 2)))) == 14


@pytest.mark.parametrize("n", [4, 5])
def test_smooth_means_no_singular_points(n):
    for w in all_perms(n):
        if is_smooth(w):
            assert singular_points(w) == set()


def test_components_frozen_examples():
    assert {v.values for v in singular_components(make_permutation([4, 2, 3, 1]))} == {
        (2, 1, 4, 3)
    }
    assert {v.values for v in singular_components(make_permutation([3, 4, 1, 2]))} == {
        (1, 3, 2, 4)
    }
    assert singular_components(identity(4)) == set()


@pytest.mark.parametrize("n", [4, 5])
def test_components_are_maximal_antichain(n):
    for w in all_perms(n):
        points = singular_points(w)
        comps = singular_components(w)
        assert comps <= points
        for a in comps:
            for b in comps:
                if a != b:
                    assert not bruhat_leq(a, b) and not bruhat_leq(b, a)
        # maximality: every singular point sits below some component
        for v in points:
            assert any(bruhat_leq(v, c) for c in comps)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_singular_points_form_lower_ideal(n):
    """Within the interval below w, the singular set is downward closed."""
    group = symmetric_group(n)
    for wi in range(group.order):
        lw = group.lengths[wi]
        interval = group.interval(wi)
        counts = group.tangent_counts(group.lower_mask(wi), interval)
        singular = [vi for vi, m in zip(interval, counts) if m > lw]
        if not singular:
            continue
        # Masks count bit v from the top.
        nonsingular_mask = 0
        sing_set = set(singular)
        for vi in interval:
            if vi not in sing_set:
                nonsingular_mask |= 1 << group.order - 1 - vi
        for vi in singular:
            assert group.lower_mask(vi) & nonsingular_mask == 0, (group.perm(wi), group.perm(vi))


def _covers(v):
    """The covers of v in Bruhat order: swap v(i) < v(j) when no value between them lies between."""
    for i, j in itertools.combinations(range(len(v)), 2):
        if v[i] < v[j] and not any(v[i] < x < v[j] for x in v[i + 1 : j]):
            yield v[:i] + (v[j],) + v[i + 1 : j] + (v[i],) + v[j + 1 :]


def reference_component_counts(w):
    """Counts over the whole interval, then the singular points, then the maximal ones.

    The singular points form a lower ideal of [e, w], so a singular point is
    maximal iff none of its covers below w is singular.
    """
    group = symmetric_group(w.n)
    wi = group.index_of(w.values)
    interval = group.interval(wi)
    counts = dict(zip(interval, group.tangent_counts(group.lower_mask(wi), interval)))
    lw = length(w)
    singular = {vi for vi, count in counts.items() if count > lw}
    return [
        (group.perm(vi), counts[vi])
        for vi in sorted(singular)
        if not any(group.index_of(u) in singular for u in _covers(group.perm(vi).values))
    ]


def _route_mismatches(n):
    """The w of S_n whose coset-top component counts differ from the full-interval route."""
    return [w for w in all_perms(n) if component_counts(w) != reference_component_counts(w)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_component_counts_match_full_interval_route(n):
    assert _route_mismatches(n) == []


@pytest.mark.skipif(
    not os.environ.get("SCHUBSING_N7"),
    reason="the S_7 full-interval route runs only with SCHUBSING_N7=1",
)
def test_component_counts_match_full_interval_route_s7():
    assert _route_mismatches(7) == []


def test_a_top_rule_demanding_a_missing_descent_is_caught(monkeypatch):
    """Tops that must also have the smallest descent w lacks lose components of S_5."""
    real = SymmetricGroup.coset_tops

    def demanding(self, mask, descents):
        lacking = ~descents & ((1 << self.n - 1) - 1)
        return real(self, mask, descents | (lacking & -lacking))

    monkeypatch.setattr(SymmetricGroup, "coset_tops", demanding)
    assert _route_mismatches(5)


def test_a_maximal_scan_that_never_covers_is_caught(mutate):
    """A ``maximal`` that never adds a kept point's mask keeps points below components of S_5."""
    mutate(SymmetricGroup, "maximal", "covered |= self.lower_mask(vi)", "pass")
    assert _route_mismatches(5)
