"""Tests for singular-locus component classification."""

import dataclasses
import itertools
import random
from array import array
from math import isqrt

import pytest

from schubsing import components
from schubsing.components import (
    DIGITS,
    NONZERO_DIGITS,
    TYPE_3412_EMPTY,
    TYPE_3412_STAR,
    TYPE_4231,
    ClassificationError,
    QuadricComponent,
    RectangleComponent,
    SliceStructureError,
    TwoBlockComponent,
    classify_component,
    components_from_patterns,
    draw_values,
    enumerate_components,
    verify_formulas,
)
from schubsing.patterns import is_smooth
from schubsing.perms import Permutation, bruhat_leq, identity, make_permutation
from schubsing.slices import free_coordinates
from schubsing.sweep import component_pairs
from schubsing.symgroup import SymmetricGroup
from schubsing.tangent import (
    component_counts,
    singular_components,
    singular_points,
    tangent_dimension,
)


def reference_classify(v, w, dim):
    """Classify v <= w from (d, e) and one frame test, with no pattern data.

    d = length(w) - length(v), e = dim - length(w) for the tangent count
    ``dim`` = m(w, v), and S = {i : v(i) != w(i)}.  When the first moved
    position carries the largest moved value of w the frame is 4231, and
    l <= m are the roots of x^2 - (d-1)x + e.  Otherwise e = 1 is 3412* with
    d = 2l + 3, and e = d - 2 is 3412empty with l + m = d - 3.  The
    signature (3, 1) fits both the smallest 4231 and the smallest 3412*; the
    frame test decides.

    The answer is a :func:`route_key`: (d, e) fixes only the sum of the
    3412empty sides.
    """
    lw = w.length
    d = lw - v.length
    e = dim - lw
    if e <= 0:
        raise ClassificationError(f"v={v.values} is a smooth point of X_{w.values} (excess {e})")
    moved = [i for i in range(1, w.n + 1) if v(i) != w(i)]
    if w(moved[0]) == max(w(i) for i in moved):
        disc = (d - 1) * (d - 1) - 4 * e
        root = isqrt(disc) if disc >= 0 else -1
        if root < 0 or root * root != disc or (d - 1 - root) % 2 or d - 1 - root < 2:
            raise ClassificationError(f"4231 frame without side counts >= 1: d={d}, e={e}")
        return TYPE_4231, v, (d - 1 - root) // 2, (d - 1 + root) // 2
    if e == 1:
        if d < 3 or (d - 3) % 2:
            raise ClassificationError(f"3412* frame with bad codimension d={d}")
        return TYPE_3412_STAR, v, (d - 3) // 2, None
    if e != d - 2:
        raise ClassificationError(f"3412empty frame needs e = d - 2, got d={d}, e={e}")
    return TYPE_3412_EMPTY, v, d - 3, None


def route_key(c):
    """(family, v, l, m) of a component, with 3412empty's sides summed into l."""
    if c.ctype == TYPE_3412_EMPTY:
        return c.ctype, c.v, c.l + c.m, None
    return c.ctype, c.v, c.l, c.m


def test_classify_4231_component():
    c = classify_component(make_permutation([2, 1, 4, 3]), make_permutation([4, 2, 3, 1]))
    assert c.ctype == TYPE_4231
    assert (c.l, c.m, c.codim, c.excess) == (1, 1, 3, 1)


def test_classify_3412_star_component():
    c = classify_component(make_permutation([1, 3, 2, 4]), make_permutation([3, 4, 1, 2]))
    assert c.ctype == TYPE_3412_STAR
    assert (c.l, c.m, c.codim, c.excess) == (0, None, 3, 1)


def test_classify_3412_empty_components():
    """The two 3412empty components of S_5, found by exhaustive sweep.

    In 35142 one minimum sits right of the square, in 42513 one maximum
    left of it; w0.w.w0 maps the first pair onto the second and swaps l, m.
    """
    first = classify_component(
        make_permutation([1, 3, 2, 5, 4]), make_permutation([3, 5, 1, 4, 2])
    )
    assert first.ctype == TYPE_3412_EMPTY
    assert (first.l, first.m, first.codim, first.excess) == (0, 1, 4, 2)
    second = classify_component(
        make_permutation([2, 1, 4, 3, 5]), make_permutation([4, 2, 5, 1, 3])
    )
    assert second.ctype == TYPE_3412_EMPTY
    assert (second.l, second.m, second.codim, second.excess) == (1, 0, 4, 2)


def test_two_block_fit_checks_each_side():
    """Each 3412empty pair of S_<=6 rejects its sides moved by one unit or swapped.

    Both keep l + m, which is all a check of the sum could see.  The 55
    pairs give 56 moved and 54 swapped sides.
    """
    moved = swapped = 0
    for n in range(4, 7):
        for w, c in component_pairs(n):
            if c.ctype != TYPE_3412_EMPTY:
                continue
            free = free_coordinates(c.v, w)
            c.fit_cone(free)
            moves = [(l, m) for l, m in ((c.l + 1, c.m - 1), (c.l - 1, c.m + 1)) if m >= 0 <= l]
            swaps = [(c.m, c.l)] if c.l != c.m else []
            for l, m in moves + swaps:
                with pytest.raises(SliceStructureError):
                    dataclasses.replace(c, l=l, m=m).fit_cone(free)
            moved += len(moves)
            swapped += len(swaps)
    assert (moved, swapped) == (56, 54)


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


def _singular_s5():
    perms = (Permutation(values) for values in itertools.permutations(range(1, 6)))
    return [w for w in perms if not is_smooth(w)]


def test_formulas_catch_a_wrong_kernel_count(monkeypatch):
    """With the kernel count shifted by 2, every singular w of S_5 is rejected.

    enumerate_components reads the kernel's count, verify_formulas the oracle's.
    """
    singular = _singular_s5()
    assert len(singular) == 32
    kernel_count = SymmetricGroup.tangent_counts

    def shifted(self, wi, cands):
        return array("i", (count + 2 for count in kernel_count(self, wi, cands)))

    monkeypatch.setattr(SymmetricGroup, "tangent_counts", shifted)
    for w in singular:
        with pytest.raises(ClassificationError):
            enumerate_components(w)


def test_enumerate_components_rejects_a_dropped_component(monkeypatch):
    """A pattern route that loses its last component fails every singular w of S_5."""
    singular = _singular_s5()
    real = components.components_from_patterns
    monkeypatch.setattr(components, "components_from_patterns", lambda w: real(w)[:-1])
    for w in singular:
        with pytest.raises(ClassificationError):
            enumerate_components(w)


def test_enumerate_components_rejects_a_wrong_side_count(monkeypatch):
    """A last component with l off by one fails the 18 w of S_5 whose excess moves with l.

    The 3412* excess is 1 whatever l is, so the kernel's count cannot see
    that mutant; emit and verify_formulas check its codimension instead.
    """
    lasts = {w: enumerate_components(w)[-1] for w in _singular_s5()}
    real = components.components_from_patterns

    def off_by_one(w):
        comps = real(w)
        return comps[:-1] + [dataclasses.replace(comps[-1], l=comps[-1].l + 1)]

    monkeypatch.setattr(components, "components_from_patterns", off_by_one)
    caught = 0
    for w, last in lasts.items():
        if last.ctype == TYPE_3412_STAR:
            continue
        with pytest.raises(ClassificationError):
            enumerate_components(w)
        caught += 1
    assert caught == 18


def test_non_component_singular_points_are_rejected():
    """A singular point below another one is no component: all 357 of S_4 and S_5."""
    rejected = 0
    for n in (4, 5):
        for values in itertools.permutations(range(1, n + 1)):
            w = Permutation(values)
            for v in singular_points(w) - singular_components(w):
                with pytest.raises(ClassificationError):
                    classify_component(v, w)
                rejected += 1
    assert rejected == 357


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
            assert c.l >= 0 and c.m >= 0
            assert c.l + c.m >= 1  # l = m = 0 lands in the star type
            assert d == c.l + c.m + 3
            assert e == c.l + c.m + 1


@pytest.mark.parametrize("n", [4, 5])
def test_excess_matches_oracle(n):
    for w, c in component_pairs(n):
        assert tangent_dimension(c.v, w) == w.length + c.excess
        assert c.codim == w.length - c.v.length


def test_s5_component_census():
    """Frozen census from the exhaustive S_5 sweep."""
    counts = {}
    for _, c in component_pairs(5):
        counts[c.ctype] = counts.get(c.ctype, 0) + 1
    assert counts == {TYPE_4231: 20, TYPE_3412_STAR: 19, TYPE_3412_EMPTY: 2}


# ---------------------------------------------------------------------------
# the pattern route against the tangent-kernel route


def _assert_routes_agree(w):
    slow = [reference_classify(v, w, dim) for v, dim in component_counts(w)]
    assert [route_key(c) for c in components_from_patterns(w)] == slow, w.values


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
    transposition count, fits its family's slice cone, and no v lies below
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
            assert tangent_dimension(c.v, w) - w.length == c.excess
            c.fit_cone(free_coordinates(c.v, w))
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
    codim = family.codim.fget
    monkeypatch.setattr(family, "codim", property(lambda self: codim(self) + 1))
    with pytest.raises(ClassificationError):
        components_from_patterns(Permutation(w))


@pytest.mark.parametrize("family", [RectangleComponent, QuadricComponent, TwoBlockComponent])
def test_formulas_catch_a_wrong_excess(monkeypatch, family):
    """With one family's excess shifted by one, each of its S_5 pairs fails verify_formulas.

    The other families' pairs still pass: the check reads each component's own family.
    """
    pairs = list(component_pairs(5))
    excess = family.excess.fget
    monkeypatch.setattr(family, "excess", property(lambda self: excess(self) + 1))
    mine = [(w, c) for w, c in pairs if isinstance(c, family)]
    assert mine
    for w, c in pairs:
        assert verify_formulas(c, w) != isinstance(c, family), (w.values, c.v.values)


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
    """Each component point classifies to its own entry of the sweep's list, on S_5."""
    for values in itertools.permutations(range(1, 6)):
        w = Permutation(values)
        vs = sorted(singular_components(w), key=lambda v: v.values)
        assert enumerate_components(w) == [classify_component(v, w) for v in vs]
