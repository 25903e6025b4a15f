"""Tests for the symmetric group: ranking, interval masks, tangent counts, arrays.

The ``reference_*`` builders below are one-permutation-at-a-time
constructions of the group's arrays, and of the rank tables its interval
bitsets are read from.  The block construction in ``schubsing.symgroup``
must reproduce them byte for byte.  Coset tops, tangent counts and maximal
points are checked against references read off one-line notation or
``bruhat_leq``.  A mask is an int, bit v counted from the top; the tests
read it as a string of binary digits, character v for v.
"""

import ast
import inspect
import os
import random
import sys
import tracemalloc
from array import array
from itertools import combinations, permutations

import pytest

from schubsing import kl, symgroup, tangent
from schubsing.perms import Permutation, bruhat_leq, length
from schubsing.symgroup import MAX_N, SymmetricGroup, symmetric_group
from schubsing.tangent import component_counts, tangent_dimension


def reference_tables(n, perms):
    """Flattened rank tables, (n + 1) x (n + 1) bytes per permutation."""
    out = bytearray()
    for p in perms:
        row = [0] * (n + 1)
        out += bytes(row)  # zeroth row stays zero
        for wi in p:
            for q in range(wi, n + 1):
                row[q] += 1
            out += bytes(row)
    return bytes(out)


def reference_lengths(n, perms):
    """Coxeter lengths as inversion counts."""
    return array(
        "B",
        (sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b]) for p in perms),
    )


def reference_bitsets(n, perms):
    """Per interior cell (p, q): [{v : r_v(p, q) >= k} for k = 0..min(p, q)], bit 0 on top."""
    tables, tlen = reference_tables(n, perms), (n + 1) * (n + 1)
    return [
        [
            [
                int("".join("1" if r >= k else "0" for r in tables[p * (n + 1) + q :: tlen]), 2)
                for k in range(min(p, q) + 1)
            ]
            for q in range(1, n)
        ]
        for p in range(1, n)
    ]


def reference_descents(n, perms):
    """Byte v: bit a - 1 set iff a + 1 comes before a in v's one-line notation."""
    return bytes(
        sum(1 << a - 1 for a in range(1, n) if p.index(a + 1) < p.index(a)) for p in perms
    )


def _swap_values(values, a):
    """Left multiplication by the adjacent transposition (a, a+1)."""
    return tuple(a + 1 if x == a else a if x == a + 1 else x for x in values)


def reference_lmul(n, perms, index):
    """Column a - 1 for a = 1..n-1: the index of s_a.v for every v."""
    return tuple(array("i", (index[_swap_values(p, a)] for p in perms)) for a in range(1, n))


def _digits(group, mask):
    """``mask`` as n! binary digits, character v for bit v."""
    return format(mask, f"0{group.order}b")


def _assert_matches_references(n):
    group = SymmetricGroup(n)
    perms = list(permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(perms)}
    assert group.order == len(perms)
    everything = (1 << group.order) - 1
    bitsets = [[[b & everything for b in bits] for bits in row] for row in group._bitsets]
    assert bitsets == reference_bitsets(n, perms)
    expected = reference_lengths(n, perms)
    assert group.lengths.typecode == expected.typecode and group.lengths == expected
    assert type(group.lmul) is tuple and all(col.typecode == "i" for col in group.lmul)
    assert group.lmul == reference_lmul(n, perms, index)
    assert type(group.descents) is bytes
    assert group.descents == reference_descents(n, perms)
    assert all(group.index_of(p) == i for p, i in index.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_block_arrays_match_per_permutation_references(n):
    _assert_matches_references(n)


@pytest.mark.skipif(
    not os.environ.get("SCHUBSING_N7"),
    reason="S_8 reference arrays are built only with SCHUBSING_N7=1",
)
def test_block_arrays_match_per_permutation_references_s8():
    _assert_matches_references(8)


def _bitset_bytes(group):
    return sum(sys.getsizeof(b) for row in group._bitsets for bits in row for b in bits)


def _lmul_bytes(group):
    return sum(len(col) * col.itemsize for col in group.lmul)


def test_block_build_keeps_transients_small():
    """The S_8 build never holds more than a few columns beyond what it keeps.

    The bitsets of S_7 and the partly built bitset are all the group build
    holds besides its result.  Each lmul column grows by appending its
    blocks one at a time, so no block is held twice: in a joined column or
    in a preallocated array written with strides.
    """
    tracemalloc.start()
    try:
        group = SymmetricGroup(8)
        kept, peak = tracemalloc.get_traced_memory()
        assert peak - kept < (_bitset_bytes(group) + len(group.lengths)) / 4
        tracemalloc.reset_peak()
        group.lmul
        kept, peak = tracemalloc.get_traced_memory()
        assert peak - kept < _lmul_bytes(group) / 3
    finally:
        tracemalloc.stop()


_BASE = {"n", "order", "lengths", "_bitsets"}


def test_group_keeps_only_its_arrays(monkeypatch):
    """S_8 keeps its bitsets and lengths; no n!-tuple of permutations, no mask cache.

    Counting the components of a w adds exactly the s_a.v table, the
    descent bytes and the descent bitset of each letter w's coset tops read
    (one for 5,6,7,8,1,2,3,4, whose only left descent is s_4).
    """
    monkeypatch.setattr(symgroup, "_groups", {})
    tracemalloc.start()
    try:
        group = symmetric_group(8)
        group.lower_mask(group.order - 1)
        kept, _ = tracemalloc.get_traced_memory()
        assert set(vars(group)) == _BASE
        assert kept - _bitset_bytes(group) - len(group.lengths) < 1_000_000
        component_counts(Permutation((5, 6, 7, 8, 1, 2, 3, 4)))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert set(vars(group)) == _BASE | {"lmul", "descents", "_descent_bitsets"}
    letters = [bits for bits in group._descent_bitsets if bits is not None]
    assert len(letters) == 1
    arrays = _bitset_bytes(group) + len(group.lengths) + len(group.descents)
    arrays += sum(map(sys.getsizeof, letters))
    assert kept - arrays - _lmul_bytes(group) < 1_000_000


@pytest.mark.parametrize("values", [(5, 6, 7, 8, 1, 2, 3, 4), (3, 6, 8, 1, 7, 4, 2, 5)])
def test_component_counts_peak_stays_near_lmul(monkeypatch, values):
    """At n = 8 the whole count, lmul's build included, peaks below lmul plus 1 MB.

    S_8's lmul is 1.1 MB, and any table of v.t for all n! v and n(n-1)/2
    transpositions (4.5 MB) would break the bound.  5,6,7,8,1,2,3,4 has 36
    components, so masks kept per component would break it too.
    """
    monkeypatch.setattr(symgroup, "_groups", {})
    group = symmetric_group(8)
    tracemalloc.start()
    try:
        component_counts(Permutation(values))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _lmul_bytes(group) + 1_000_000


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mask_agrees_with_bruhat_leq(n):
    group = symmetric_group(n)
    perms = [Permutation(values) for values in permutations(range(1, n + 1))]
    for wi, w in enumerate(perms):
        mask = group.lower_mask(wi)
        assert type(mask) is int
        below = [vi for vi, v in enumerate(perms) if bruhat_leq(v, w)]
        assert _digits(group, mask) == "".join("01"[vi in below] for vi in range(len(perms)))
        assert list(group.indices(mask)) == below, w.values


def test_masks_reject_ranks_outside_the_group():
    """Negative ranks do not wrap round to the top of S_n."""
    group = symmetric_group(4)
    for wi in (-1, -2, -3, group.order):
        with pytest.raises(IndexError):
            group.lower_mask(wi)
        with pytest.raises(IndexError):
            group.interval(wi)


def reference_coset_tops(digits, perms, w):
    """The v with digit v set whose left descents include all of w's, off one-line notation."""
    descents = set(_left_descents(w))
    return [
        vi
        for vi, v in enumerate(perms)
        if digits[vi] == "1" and descents <= set(_left_descents(v))
    ]


def _left_descents(values):
    """Every a with a + 1 placed before a."""
    return [a for a in range(1, len(values)) if values.index(a + 1) < values.index(a)]


def _coset_top_mismatches(n):
    """The w of S_n whose coset tops differ from the one-line reference."""
    group = symmetric_group(n)
    perms = list(permutations(range(1, n + 1)))
    bad = []
    for wi, w in enumerate(perms):
        mask = group.lower_mask(wi)
        tops = group.coset_tops(mask, group.descents[wi])
        assert tops.typecode == "i"
        if list(tops) != reference_coset_tops(_digits(group, mask), perms, w):
            bad.append(w)
    return bad


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_coset_tops_match_one_line_reference(n):
    assert _coset_top_mismatches(n) == []


def _swap_count_mismatches(n):
    """(w, v) of S_n where tangent_counts differs from swapping positions and ranking."""
    group = symmetric_group(n)
    perms = list(permutations(range(1, n + 1)))
    swapped = [
        [
            group.index_of(v[:i] + (v[j],) + v[i + 1 : j] + (v[i],) + v[j + 1 :])
            for i, j in combinations(range(n), 2)
        ]
        for v in perms
    ]
    bad = []
    for wi in range(group.order):
        mask = group.lower_mask(wi)
        digits = _digits(group, mask)
        counts = group.tangent_counts(mask, range(group.order))
        for vi, count in enumerate(counts):
            if count != sum(digits[ui] == "1" for ui in swapped[vi]):
                bad.append((wi, vi))
    return bad


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tangent_counts_match_swapped_indices(n):
    """Every v of S_n, below w or not: the lmul walk equals swap-then-index_of."""
    assert _swap_count_mismatches(n) == []


def test_a_walk_missing_a_letter_is_caught(mutate):
    """Dropping the last s_a of each downward walk breaks the swap comparison."""
    mutate(SymmetricGroup, "tangent_counts", "range(b - 1, a - 1, -1)", "range(b - 1, a, -1)")
    assert _swap_count_mismatches(4)


def test_a_top_rule_ignoring_the_mask_is_caught(mutate):
    """Tops read off the descents alone, without the AND with w's mask, break the reference."""
    mutate(SymmetricGroup, "coset_tops", "mask & ", "")
    assert _coset_top_mismatches(4)


def reference_maximal(perms, indices):
    """The v among ``indices`` below no other of them, ascending, by ``bruhat_leq``."""
    return [
        vi
        for vi in sorted(indices)
        if not any(ui != vi and bruhat_leq(perms[vi], perms[ui]) for ui in indices)
    ]


def _maximal_mismatches(n):
    """(w, subset) of S_n where ``maximal`` differs from the reference.

    For every w, a seeded subset of at most 24 points of its interval.
    """
    group = symmetric_group(n)
    perms = [group.perm(vi) for vi in range(group.order)]
    rng = random.Random(n)
    bad = []
    for wi in range(group.order):
        interval = list(group.interval(wi))
        subset = rng.sample(interval, rng.randint(0, min(24, len(interval))))
        if group.maximal(subset) != reference_maximal(perms, subset):
            bad.append((wi, subset))
    return bad


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_maximal_matches_bruhat_leq_filter(n):
    assert _maximal_mismatches(n) == []


def test_a_maximal_scan_that_never_covers_is_caught(mutate):
    """Never adding a kept point's mask to the union keeps points below others."""
    mutate(SymmetricGroup, "maximal", "covered |= self.lower_mask(vi)", "pass")
    assert _maximal_mismatches(4)


def test_only_the_group_reads_mask_layouts():
    """kl and tangent take masks and lmul columns as the group gives them.

    No byte form of a mask and no strided view of a table is built outside
    ``schubsing.symgroup``: neither module calls a conversion.
    """
    forbidden = {"from_bytes", "to_bytes", "compress", "memoryview"}
    for module in (kl, tangent):
        assert not set(_called_names(module)) & forbidden, module.__name__


def _called_names(module):
    """The name of each function or method that ``module``'s source calls."""
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_tangent_counts_agree_with_tangent_dimension():
    group = symmetric_group(5)
    for wi, values in enumerate(permutations(range(1, 6))):
        w = Permutation(values)
        cands = group.interval(wi)
        counts = group.tangent_counts(group.lower_mask(wi), cands)
        assert len(counts) == len(cands)
        for vi, count in zip(cands, counts):
            v = group.perm(vi)
            assert count == tangent_dimension(v, w).dim, (v, w)


def test_lengths_array():
    group = symmetric_group(5)
    for vi, values in enumerate(permutations(range(1, 6))):
        assert group.lengths[vi] == length(Permutation(values))


def test_group_size_guard():
    with pytest.raises(ValueError):
        symmetric_group(MAX_N + 1)
    with pytest.raises(ValueError):
        symmetric_group(0)


def test_index_of_unknown_permutation():
    group = symmetric_group(4)
    for values in [(1, 2, 3), (1, 2, 3, 3), (1, 2, 3, 5), (0, 1, 2, 3), (1, 2, 3, 4, 5)]:
        with pytest.raises(ValueError):
            group.index_of(values)


def test_perms_are_lexicographic():
    """``perm`` unranks ``index_of``, both in lexicographic order, on S_1 to S_7."""
    for n in range(1, 8):
        group = symmetric_group(n)
        expected = list(permutations(range(1, n + 1)))
        assert [group.perm(i).values for i in range(group.order)] == expected
        assert [group.index_of(values) for values in expected] == list(range(group.order))
        for idx in (-1, group.order):
            with pytest.raises(IndexError):
                group.perm(idx)
