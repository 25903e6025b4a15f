"""Tests for pattern detection and the smoothness criterion."""

import itertools

import pytest

from schubsing.patterns import PATTERN_3412, PATTERN_4231, _scan, find_patterns, is_smooth
from schubsing.perms import (
    Permutation,
    compose,
    identity,
    inverse,
    longest_element,
    make_permutation,
)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def test_identity_has_no_patterns():
    assert find_patterns(identity(6)) == []
    assert is_smooth(identity(6))


def test_4231_is_its_own_witness():
    occs = find_patterns(make_permutation([4, 2, 3, 1]))
    assert len(occs) == 1
    assert occs[0].kind == PATTERN_4231
    assert occs[0].positions == (1, 2, 3, 4)


def test_3412_is_its_own_witness():
    occs = find_patterns(make_permutation([3, 4, 1, 2]))
    assert len(occs) == 1
    assert occs[0].kind == PATTERN_3412
    assert occs[0].positions == (1, 2, 3, 4)


def test_occurrence_defining_inequalities():
    """Each reported occurrence realizes its pattern's value ordering."""
    for w in all_perms(5):
        for occ in find_patterns(w):
            i, j, k, l = occ.positions
            assert i < j < k < l
            if occ.kind == PATTERN_4231:
                assert w(l) < w(j) < w(k) < w(i)
            else:
                assert w(k) < w(l) < w(i) < w(j)


def test_positions_in_lexicographic_order():
    w = make_permutation([5, 3, 4, 2, 1])
    positions = [occ.positions for occ in find_patterns(w)]
    assert positions == sorted(positions)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_groups_all_smooth(n):
    assert all(is_smooth(w) for w in all_perms(n))


def test_s4_smooth_count_is_22():
    smooth = [w for w in all_perms(4) if is_smooth(w)]
    assert len(smooth) == 22
    singular = {w.values for w in all_perms(4) if not is_smooth(w)}
    assert singular == {(4, 2, 3, 1), (3, 4, 1, 2)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_longest_element_is_smooth(n):
    assert is_smooth(longest_element(n))


def test_embedded_pattern_found_off_the_nose():
    w = make_permutation([5, 3, 2, 4, 1])
    occs = find_patterns(w)
    assert not is_smooth(w)
    assert any(occ.kind == PATTERN_4231 for occ in occs)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_smoothness_symmetries(n):
    """Smoothness is preserved by inversion and by conjugation with w_0."""
    w0 = longest_element(n)
    for w in all_perms(n):
        expected = is_smooth(w)
        assert is_smooth(inverse(w)) == expected
        assert is_smooth(compose(w0, compose(w, w0))) == expected


def test_is_smooth_matches_quadruple_scan():
    """The O(n^2) middle-pair test against the O(n^4) scan on all of S_1 .. S_8."""
    for n in range(1, 9):
        for values in itertools.permutations(range(1, n + 1)):
            w = Permutation(values)
            assert is_smooth(w) == (next(_scan(w), None) is None), values


def test_is_smooth_scales_to_long_words():
    # The quadruple scan would test C(500, 4) ~ 2.6e9 quadruples here.
    n = 500
    assert is_smooth(identity(n))
    assert is_smooth(longest_element(n))
    tail = tuple(range(1, n - 3)) + (n - 1, n, n - 3, n - 2)
    assert not is_smooth(Permutation(tail))
    tail = tuple(range(1, n - 3)) + (n, n - 2, n - 1, n - 3)
    assert not is_smooth(Permutation(tail))
