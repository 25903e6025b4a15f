"""Tests for the cached symmetric group: interval masks, tangent counts, tables."""

import pytest

from schubsing.perms import Permutation, bruhat_leq, length
from schubsing.symgroup import MAX_N, symmetric_group
from schubsing.tangent import tangent_dimension


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mask_agrees_with_bruhat_leq(n):
    group = symmetric_group(n)
    perms = [Permutation(values) for values in group.perms]
    for wi, w in enumerate(perms):
        mask = group.lower_mask(wi)
        assert type(mask) is bytes and len(mask) == len(perms)
        assert list(mask) == [int(bruhat_leq(v, w)) for v in perms], w.values


def test_tangent_counts_agree_with_tangent_dimension():
    group = symmetric_group(5)
    for wi, values in enumerate(group.perms):
        w = Permutation(values)
        cands = group.interval(wi)
        counts = group.tangent_counts(wi, cands)
        assert len(counts) == len(cands)
        for vi, count in zip(cands, counts):
            assert count == tangent_dimension(group.perm(vi), w).dim, (
                group.perms[vi],
                values,
            )


def test_tprod_matches_composition():
    """Neighbour table: entry (v, t) is the index of v composed with t."""
    group = symmetric_group(4)
    ntrans = len(group.transpositions)
    for vi, values in enumerate(group.perms):
        for ti, (a, b) in enumerate(group.transpositions):
            swapped = list(values)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            assert group.tprod[vi * ntrans + ti] == group.index_of(tuple(swapped))


def test_lengths_array():
    group = symmetric_group(5)
    for vi, values in enumerate(group.perms):
        assert group.lengths[vi] == length(Permutation(values))


def test_group_size_guard():
    with pytest.raises(ValueError):
        symmetric_group(MAX_N + 1)
    with pytest.raises(ValueError):
        symmetric_group(0)


def test_index_of_unknown_permutation():
    group = symmetric_group(4)
    with pytest.raises(ValueError):
        group.index_of((1, 2, 3))


def test_lower_mask_is_cached():
    group = symmetric_group(4)
    first = group.lower_mask(10)
    second = group.lower_mask(10)
    assert first == second
    assert first is second


def test_perms_are_lexicographic():
    group = symmetric_group(4)
    assert list(group.perms) == sorted(group.perms)
    assert group.perms[0] == (1, 2, 3, 4)
    assert group.perms[-1] == (4, 3, 2, 1)
