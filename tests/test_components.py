"""Tests for singular-locus component classification."""

import itertools
import random
from array import array

import pytest

from schubsing.components import (
    DIGITS,
    NONZERO_DIGITS,
    TYPE_3412_EMPTY,
    TYPE_3412_STAR,
    TYPE_4231,
    ClassificationError,
    QuadricComponent,
    RectangleComponent,
    TwoBlockComponent,
    classify_component,
    components_from_patterns,
    draw_values,
    enumerate_components,
    verify_formulas,
)
from schubsing.perms import Permutation, bruhat_leq, identity, length, make_permutation
from schubsing.slices import free_coordinates
from schubsing.sweep import component_pairs
from schubsing.symgroup import SymmetricGroup
from schubsing.tangent import singular_components, tangent_dimension


def test_classify_4231_component():
    c = classify_component(make_permutation([2, 1, 4, 3]), make_permutation([4, 2, 3, 1]))
    assert c.ctype == TYPE_4231
    assert (c.l, c.m, c.codim, c.excess) == (1, 1, 3, 1)


def test_classify_3412_star_component():
    c = classify_component(make_permutation([1, 3, 2, 4]), make_permutation([3, 4, 1, 2]))
    assert c.ctype == TYPE_3412_STAR
    assert (c.l, c.m, c.codim, c.excess) == (0, None, 3, 1)


def test_classify_3412_empty_components():
    """The two aggregate-1 components of S_5, found by exhaustive sweep."""
    first = classify_component(
        make_permutation([1, 3, 2, 5, 4]), make_permutation([3, 5, 1, 4, 2])
    )
    assert first.ctype == TYPE_3412_EMPTY
    assert (first.l, first.m, first.codim, first.excess) == (1, None, 4, 2)
    second = classify_component(
        make_permutation([2, 1, 4, 3, 5]), make_permutation([4, 2, 5, 1, 3])
    )
    assert second.ctype == TYPE_3412_EMPTY
    assert (second.l, second.m, second.codim, second.excess) == (1, None, 4, 2)


def test_smooth_point_pair_is_rejected():
    with pytest.raises(ClassificationError):
        classify_component(identity(4), identity(4))


def test_enumerate_components_smooth():
    assert enumerate_components(make_permutation([1, 2, 3, 4])) == []
    assert enumerate_components(make_permutation([4, 3, 2, 1])) == []


def test_enumerate_components_sorted_by_v():
    for _, comps in _grouped_pairs(5).items():
        values = [c.v.values for c in comps]
        assert values == sorted(values)


def _grouped_pairs(n):
    grouped = {}
    for w, c in component_pairs(n):
        grouped.setdefault(w.values, []).append(c)
    return grouped


@pytest.mark.parametrize("n", [4, 5])
def test_formulas_hold_exhaustively(n):
    for w, c in component_pairs(n):
        assert verify_formulas(c, w), (w.values, c.v.values, c.ctype)


def test_formulas_catch_a_wrong_kernel_count(monkeypatch):
    """Classification reads the kernel's count, verify_formulas the oracle's.

    With the kernel count shifted by 2, no S_5 component pair may both
    classify and pass its double equalities.
    """
    pairs = [(w, c.v) for w, c in component_pairs(5)]
    assert len(pairs) == 41
    kernel_count = SymmetricGroup.tangent_counts

    def shifted(self, wi, cands):
        return array("i", (count + 2 for count in kernel_count(self, wi, cands)))

    monkeypatch.setattr(SymmetricGroup, "tangent_counts", shifted)
    for w, v in pairs:
        try:
            c = classify_component(v, w)
        except ClassificationError:
            continue
        assert not verify_formulas(c, w), (w.values, v.values, c.ctype)


@pytest.mark.parametrize("n", [4, 5])
def test_type_signatures(n):
    for w, c in component_pairs(n):
        d, e = c.codim, c.excess
        if c.ctype == TYPE_4231:
            assert c.l >= 1 and c.m >= 1
            assert d == c.l + c.m + 1
            assert e == c.l * c.m
            assert c.l <= c.m
        elif c.ctype == TYPE_3412_STAR:
            assert c.l >= 0 and c.m is None
            assert d == 2 * c.l + 3
            assert e == 1
        else:
            assert c.ctype == TYPE_3412_EMPTY
            assert c.l >= 1 and c.m is None  # aggregate 0 lands in the star type
            assert d == c.l + 3
            assert e == c.l + 1


@pytest.mark.parametrize("n", [4, 5])
def test_excess_matches_oracle(n):
    for w, c in component_pairs(n):
        rep = tangent_dimension(c.v, w)
        assert rep.dim == length(w) + c.excess
        assert c.codim == length(w) - length(c.v)


def test_s5_component_census():
    """Frozen census from the exhaustive S_5 sweep."""
    counts = {}
    for _, c in component_pairs(5):
        counts[c.ctype] = counts.get(c.ctype, 0) + 1
    assert counts == {TYPE_4231: 20, TYPE_3412_STAR: 19, TYPE_3412_EMPTY: 2}


# ---------------------------------------------------------------------------
# the pattern route against the tangent-kernel route


def _assert_routes_agree(w):
    fast = [c.json_fields() for c in components_from_patterns(w)]
    slow = [c.json_fields() for c in enumerate_components(w)]
    assert fast == slow, w.values


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_pattern_route_matches_kernel_route(n):
    for values in itertools.permutations(range(1, n + 1)):
        _assert_routes_agree(Permutation(values))


def test_pattern_route_matches_kernel_route_s8_sample():
    perms = random.Random(8).sample(list(itertools.permutations(range(1, 9))), 40)
    for values in perms:
        _assert_routes_agree(Permutation(values))


def test_pattern_route_at_n12():
    """Beyond the symmetric-group kernel: each v is a component-shaped point.

    Every v lies below w, has the reported tangent excess by the slow
    transposition count, fits its family's slice frame, and no v lies below
    another.
    """
    rng = random.Random(12)
    seen = set()
    for _ in range(10):
        values = list(range(1, 13))
        rng.shuffle(values)
        w = Permutation(tuple(values))
        comps = components_from_patterns(w)
        for c in comps:
            seen.add(c.ctype)
            assert bruhat_leq(c.v, w)
            assert tangent_dimension(c.v, w).excess == c.excess
            c.fit_frame(free_coordinates(c.v, w))
        for first, second in itertools.permutations(comps, 2):
            assert not bruhat_leq(first.v, second.v), (w.values, first.v, second.v)
    assert seen == {TYPE_4231, TYPE_3412_STAR, TYPE_3412_EMPTY}


@pytest.mark.parametrize(
    ("family", "w"),
    [
        (RectangleComponent, (4, 2, 3, 1)),
        (QuadricComponent, (3, 4, 1, 2)),
        (TwoBlockComponent, (3, 5, 1, 4, 2)),
    ],
)
def test_pattern_route_checks_the_lengths(monkeypatch, family, w):
    monkeypatch.setattr(family, "formulas_hold", lambda self, lw, lv, dim: False)
    with pytest.raises(ClassificationError):
        components_from_patterns(Permutation(w))


def test_draw_values_match_randint_and_choice():
    """The samplers' one draw helper gives CPython's draws, draw for draw, on 500 seeds.

    The two generators must also end in the same state, so the draws that
    follow stay the same too.
    """
    for seed in range(500):
        for values, draw in (
            (DIGITS, lambda rng: rng.randint(-9, 9)),
            (NONZERO_DIGITS, lambda rng: rng.choice(NONZERO_DIGITS)),
        ):
            mine, theirs = random.Random(seed), random.Random(seed)
            for count in (1, 3, 40):
                assert draw_values(mine, values, count) == [draw(theirs) for _ in range(count)]
            assert mine.getstate() == theirs.getstate()


def test_enumerate_components_matches_classify_component():
    """Classifying from the sweep's own tangent counts equals the public route, on S_5."""
    for values in itertools.permutations(range(1, 6)):
        w = Permutation(values)
        vs = sorted(singular_components(w), key=lambda v: v.values)
        assert enumerate_components(w) == [classify_component(v, w) for v in vs]
