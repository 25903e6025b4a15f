"""Tests for Kazhdan-Lusztig polynomials: recursion oracle and closed forms."""

import itertools

import pytest

from schubsing.components import (
    QuadricComponent,
    RectangleComponent,
    TwoBlockComponent,
)
from schubsing.kl import kl_recursion
from schubsing.patterns import is_smooth
from schubsing.perms import (
    Permutation,
    bruhat_leq,
    identity,
    inverse,
    length,
    longest_element,
    make_permutation,
)
from schubsing.sweep import component_pairs


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def test_p_ww_is_one():
    for w in all_perms(4):
        assert kl_recursion(w, w) == (1,)


def test_incomparable_pair_rejected():
    with pytest.raises(ValueError):
        kl_recursion(make_permutation([2, 1, 4, 3]), make_permutation([1, 3, 2, 4]))


def test_classical_first_singular_values():
    assert kl_recursion(make_permutation([2, 1, 4, 3]), make_permutation([4, 2, 3, 1])) == (1, 1)
    assert kl_recursion(make_permutation([1, 3, 2, 4]), make_permutation([3, 4, 1, 2])) == (1, 1)
    assert kl_recursion(identity(4), make_permutation([4, 2, 3, 1])) == (1, 1)
    assert kl_recursion(identity(4), make_permutation([3, 4, 1, 2])) == (1, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_smooth_varieties_have_trivial_polynomials(n):
    for w in all_perms(n):
        if is_smooth(w):
            for v in all_perms(n):
                if bruhat_leq(v, w):
                    assert kl_recursion(v, w) == (1,)


@pytest.mark.parametrize("n", [3, 4])
def test_short_intervals_are_trivial(n):
    """Degree bound: codimension at most 2 forces the constant polynomial."""
    for w in all_perms(n):
        for v in all_perms(n):
            if bruhat_leq(v, w) and length(w) - length(v) <= 2:
                assert kl_recursion(v, w) == (1,)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_normalization_and_degree_bound(n):
    for w in all_perms(n):
        for v in all_perms(n):
            if not bruhat_leq(v, w):
                continue
            poly = kl_recursion(v, w)
            d = length(w) - length(v)
            assert poly[0] == 1
            assert poly[-1] != 0 or poly == (1,)
            assert all(c >= 0 for c in poly)
            assert len(poly) - 1 <= (d - 1) // 2 or d == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inversion_symmetry(n):
    for w in all_perms(n):
        for v in all_perms(n):
            if bruhat_leq(v, w):
                assert kl_recursion(v, w) == kl_recursion(inverse(v), inverse(w))


@pytest.mark.parametrize("n", [4, 5])
def test_singularity_detected_by_nontrivial_polynomial(n):
    """Deep cross-check: some polynomial exceeds 1 exactly when singular."""
    for w in all_perms(n):
        nontrivial = any(
            kl_recursion(v, w) != (1,)
            for v in all_perms(n)
            if bruhat_leq(v, w)
        )
        assert nontrivial == (not is_smooth(w))


def test_closed_forms_per_type():
    rect = RectangleComponent(v=make_permutation([2, 1, 4, 3]), l=2, m=3)
    assert rect.kl_closed_form() == (1, 1, 1)
    star = QuadricComponent(v=make_permutation([1, 3, 2, 4]), l=2, m=None)
    assert star.kl_closed_form() == (1, 0, 0, 1)
    empty = TwoBlockComponent(v=make_permutation([1, 3, 2, 4]), l=4, m=2)
    assert empty.kl_closed_form() == (1, 1)


@pytest.mark.parametrize("n", [4, 5])
def test_closed_form_matches_recursion(n):
    for w, c in component_pairs(n):
        assert c.kl_closed_form() == kl_recursion(c.v, w), (w.values, c.v.values)


def test_longest_element_interval_is_trivial():
    w0 = longest_element(5)
    for v in all_perms(5):
        assert kl_recursion(v, w0) == (1,)
