"""Tests for the tangent-space oracle and singular locus enumeration."""

import ast
import inspect
import itertools
import textwrap

import pytest

import schubsing.tangent
from schubsing.patterns import is_smooth
from schubsing.perms import (
    Permutation,
    all_transpositions,
    bruhat_leq,
    compose,
    identity,
    inverse,
    make_permutation,
)
from schubsing.sweep import component_pairs
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
    w = make_permutation([4, 2, 3, 1])
    m = tangent_dimension(make_permutation([2, 1, 4, 3]), w)
    assert m == 6
    assert m - w.length == 1


def test_frozen_example_3412():
    w = make_permutation([3, 4, 1, 2])
    m = tangent_dimension(make_permutation([1, 3, 2, 4]), w)
    assert m == 5
    assert m - w.length == 1


def test_incomparable_pair_rejected():
    v, w = make_permutation([2, 1, 4, 3]), make_permutation([1, 3, 2, 4])
    with pytest.raises(ValueError) as error:
        tangent_dimension(v, w)
    with pytest.raises(ValueError) as expected:
        reference_tangent_dimension(v, w)
    assert str(error.value) == str(expected.value)
    assert str(error.value) == (
        "(2, 1, 4, 3) is not Bruhat-below (1, 3, 2, 4); "
        "tangent dimensions are defined only on the lower interval"
    )


def reference_tangent_dimension(v, w):
    """m(w, v) as the oracle first counted it: compose v with each transposition, then compare."""
    if not bruhat_leq(v, w):
        raise ValueError(
            f"{v.values} is not Bruhat-below {w.values}; "
            "tangent dimensions are defined only on the lower interval"
        )
    return sum(1 for t in all_transpositions(v.n) if bruhat_leq(compose(v, t), w))


def _small_pairs():
    """Every pair v <= w of S_1..S_5 (4,017 pairs)."""
    for n in range(1, 6):
        perms = all_perms(n)
        yield from ((v, w) for w in perms for v in perms if bruhat_leq(v, w))


def _reference_mismatches(pairs):
    """The pairs where the oracle and the reference differ, lazily."""
    # Read through the module, so that a patched oracle is tested.
    return (
        (v, w)
        for v, w in pairs
        if schubsing.tangent.tangent_dimension(v, w) != reference_tangent_dimension(v, w)
    )


def test_tangent_dimension_matches_reference_on_small_pairs():
    pairs = list(_small_pairs())
    assert len(pairs) == 4_017
    assert list(_reference_mismatches(pairs)) == []


def test_tangent_dimension_matches_reference_on_s6_components():
    pairs = [(c.v, w) for w, c in component_pairs(6)]
    assert len(pairs) == 613
    assert list(_reference_mismatches(pairs)) == []
    assert sum(tangent_dimension(v, w) for v, w in pairs) == 6_332


@pytest.mark.parametrize(
    "old, new",
    [
        ("zip(values[a:b], rw[a + 1 : b + 1])", "zip(values[a : b - 1], rw[a + 1 : b])"),
        (
            "count += 1\n            values[a], values[b] = values[b], values[a]\n",
            "count += 1\n",
        ),
    ],
    ids=["last-row-skipped", "no-swap-back"],
)
def test_a_faulty_domination_loop_is_caught(mutate, old, new):
    mutate(schubsing.tangent, "tangent_dimension", old, new)
    assert next(_reference_mismatches(_small_pairs()), None)


def test_oracle_reads_no_group_and_no_slice_rule():
    """``tangent_dimension`` stays independent of every fast route it checks."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(schubsing.tangent.tangent_dimension)))
    body = [node for stmt in tree.body[0].body for node in ast.walk(stmt)]  # not the annotations
    names = {node.id for node in body if isinstance(node, ast.Name)}
    names |= {node.attr for node in body if isinstance(node, ast.Attribute)}
    assert {"rank_table", "bruhat_leq"} <= names
    forbidden = {
        "symmetric_group", "lmul", "free_coordinates", "component_counts",
        "Permutation", "compose", "all_transpositions",
    }
    assert not names & forbidden


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dimension_at_the_open_cell_is_the_length(n):
    """At v = w the variety is smooth, so the count equals l(w) exactly."""
    for w in all_perms(n):
        m = tangent_dimension(w, w)
        assert m == w.length
        assert m - w.length == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tangent_dimension_never_below_length(n):
    for w in all_perms(n):
        for v in all_perms(n):
            if bruhat_leq(v, w):
                assert tangent_dimension(v, w) >= w.length


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inversion_symmetry(n):
    for w in all_perms(n):
        for v in all_perms(n):
            if bruhat_leq(v, w):
                assert (
                    tangent_dimension(v, w)
                    == tangent_dimension(inverse(v), inverse(w))
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
    lw = w.length
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


@pytest.mark.n7
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
