"""The compact KL memo against the dict-per-w recursion it replaced.

``reference_table`` below is that earlier implementation: one
``dict[int, tuple]`` per w, the descent read off w's one-line notation, s.v
found by rebuilding the one-line tuple and looking it up in the group's
index, and v <= z tested with z's interval mask.  The compact memo (interned
polynomials, one id per interval element, s.v and the descent from
``SymmetricGroup.lmul``, v <= z by search in z's interval) must give the same
polynomial for every pair.
"""

import tracemalloc
from itertools import permutations

import pytest

from schubsing import kl
from schubsing.kl import _add_shifted, _strip, kl_recursion
from schubsing.perms import Permutation
from schubsing.symgroup import SymmetricGroup, symmetric_group


def _swap_values(values, a):
    """Left multiplication by the adjacent transposition (a, a+1)."""
    return tuple(a + 1 if x == a else a if x == a + 1 else x for x in values)


def _smallest_left_descent(values):
    """Smallest a with a placed after a+1 in one-line notation, or 0 if none."""
    pos = [0] * (len(values) + 2)
    for i, x in enumerate(values):
        pos[x] = i
    for a in range(1, len(values)):
        if pos[a] > pos[a + 1]:
            return a
    return 0


def reference_table(group, wi, memo, mu_memo):
    """P(v, w) for every v <= w, keyed by group index of v (dict memo)."""
    if wi in memo:
        return memo[wi]
    w = group.perm(wi).values
    a = _smallest_left_descent(w)
    if a == 0:
        memo[wi] = {wi: (1,)}
        return memo[wi]
    swi = group.index_of(_swap_values(w, a))
    sub = reference_table(group, swi, memo, mu_memo)
    lengths = group.lengths
    lw = lengths[wi]
    mus = [
        (zi, mu, group.lower_mask(zi))
        for zi, mu in sorted(reference_mu_support(group, swi, memo, mu_memo).items())
        if lengths[group.index_of(_swap_values(group.perm(zi).values, a))] < lengths[zi]
    ]
    table = {}
    for vi in group.interval(wi):
        svi = group.index_of(_swap_values(group.perm(vi).values, a))
        c = 1 if lengths[svi] < lengths[vi] else 0
        acc = []
        _add_shifted(acc, sub.get(svi, ()), 1 - c)
        _add_shifted(acc, sub.get(vi, ()), c)
        for zi, mu, below_z in mus:
            if not below_z[vi]:
                continue
            pvz = reference_table(group, zi, memo, mu_memo)[vi] if zi != vi else (1,)
            _add_shifted(acc, pvz, (lw - lengths[zi]) // 2, -mu)
        table[vi] = _strip(acc)
    memo[wi] = table
    return table


def reference_mu_support(group, yi, memo, mu_memo):
    if yi not in mu_memo:
        ly = group.lengths[yi]
        support = {}
        for zi, poly in reference_table(group, yi, memo, mu_memo).items():
            gap = ly - group.lengths[zi]
            if gap % 2 == 1 and len(poly) == (gap - 1) // 2 + 1:
                support[zi] = poly[-1]
        mu_memo[yi] = support
    return mu_memo[yi]


@pytest.fixture
def fresh_memo():
    kl.clear_kl_cache()
    yield
    kl.clear_kl_cache()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_compact_recursion_matches_dict_reference(n, fresh_memo):
    group = symmetric_group(n)
    perms = [Permutation(values) for values in permutations(range(1, n + 1))]
    memo, mu_memo = {}, {}
    for wi, w in enumerate(perms):
        expected = reference_table(group, wi, memo, mu_memo)
        assert list(kl._kl_table(group, wi)[0]) == sorted(expected)
        for vi, poly in expected.items():
            assert kl_recursion(perms[vi], w) == poly


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_left_multiplication_table(n):
    group = symmetric_group(n)
    stride = n - 1
    assert len(group.lmul) == group.order * stride
    for vi, values in enumerate(permutations(range(1, n + 1))):
        for a in range(1, n):
            expected = group.index_of(_swap_values(values, a))
            assert group.lmul[vi * stride + a - 1] == expected


def test_group_builds_no_left_multiplication_table():
    """symmetric_group(n) stays as cheap as before: lmul waits for first use."""
    assert "lmul" not in vars(SymmetricGroup(5))


def test_s6_tables_stay_small(fresh_memo):
    """All 720 tables of S_6 in well under 2 MB (the dict memo took 9.9 MB)."""
    group = symmetric_group(6)
    group.lmul
    tracemalloc.start()
    try:
        for wi in range(group.order):
            kl._kl_table(group, wi)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 2_000_000
    for interval, ids in kl._tables.values():
        assert interval.typecode == "H" and ids.typecode == "B"
        assert len(interval) == len(ids)


def test_each_table_builds_one_mask(monkeypatch, fresh_memo):
    """A table reads only its own interval; v <= z is found in z's table."""
    calls = []
    real = SymmetricGroup.lower_mask

    def counted(self, wi):
        calls.append(wi)
        return real(self, wi)

    monkeypatch.setattr(SymmetricGroup, "lower_mask", counted)
    group = symmetric_group(6)
    for wi in range(group.order):
        kl._kl_table(group, wi)
    assert sorted(calls) == list(range(group.order))


def test_ids_widen_past_byte_limit(monkeypatch, fresh_memo):
    """With room for 2 one-byte and 4 two-byte ids, tables widen instead of wrapping."""
    monkeypatch.setattr(kl, "_ID_LIMITS", (("B", 2), ("H", 4)))
    monkeypatch.setattr(kl, "_polys", [])
    monkeypatch.setattr(kl, "_poly_ids", {})
    monkeypatch.setattr(kl, "_plain_ids", {})  # its ids index the real _polys
    limits = {"B": 2, "H": 4, "i": 1 << 31}
    group = symmetric_group(5)
    memo, mu_memo = {}, {}
    for wi in range(group.order):
        interval, ids = kl._kl_table(group, wi)
        assert max(ids) < limits[ids.typecode]
        expected = reference_table(group, wi, memo, mu_memo)
        assert [kl._polys[i] for i in ids] == [expected[vi] for vi in interval]
    assert {ids.typecode for _, ids in kl._tables.values()} == {"B", "H", "i"}
    assert max(max(ids) for _, ids in kl._tables.values()) >= 4


def test_interning_keeps_ids_across_cache_clears(fresh_memo):
    w = Permutation((4, 2, 3, 1))
    v = Permutation((2, 1, 4, 3))
    assert kl_recursion(v, w) == (1, 1)
    interned = list(kl._polys)
    kl.clear_kl_cache()
    assert kl_recursion(v, w) == (1, 1)
    assert kl._polys[: len(interned)] == interned
    assert len(set(kl._polys)) == len(kl._polys)


def test_plain_entry_memo_survives_cache_clears(monkeypatch, fresh_memo):
    """Entries without a mu correction are memoized on (c, id, id), and the memo is kept."""
    monkeypatch.setattr(kl, "_plain_ids", {})
    group = symmetric_group(6)
    first = [kl._kl_table(group, wi) for wi in range(group.order)]
    plain = dict(kl._plain_ids)
    assert len(plain) == 46
    assert all(kl._polys[pid] == kl._strip(kl._plain_sum(*k)) for k, pid in plain.items())
    kl.clear_kl_cache()
    assert kl._plain_ids == plain
    again = [kl._kl_table(group, wi) for wi in range(group.order)]
    assert again == first
