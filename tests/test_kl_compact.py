"""The coset-top KL memo against the dict-per-w recursion it replaced.

``reference_table`` below is that earlier implementation: one
``dict[int, tuple]`` per w over the whole interval [e, w], the descent read
off w's one-line notation, s.v found by rebuilding the one-line tuple and
looking it up in the group's index, and v <= z tested with the binary
digits of z's interval mask.  The compact memo (interned polynomials, one id per top of a left
descent coset of w, s.v, the descents and the lift from
``SymmetricGroup.lmul``, v <= z by search in z's table) must give the same
polynomial for every pair, and the same mu-support for every y.
"""

import time
import tracemalloc
from itertools import permutations

import pytest

from schubsing import kl, symgroup
from schubsing.kl import _add_shifted, _strip, kl_recursion
from schubsing.perms import Permutation
from schubsing.symgroup import SymmetricGroup, symmetric_group
from schubsing.tangent import component_counts


def _swap_values(values, a):
    """Left multiplication by the adjacent transposition (a, a+1)."""
    return tuple(a + 1 if x == a else a if x == a + 1 else x for x in values)


def _left_descents(values):
    """Every a with a placed after a+1 in one-line notation, ascending."""
    pos = [0] * (len(values) + 2)
    for i, x in enumerate(values):
        pos[x] = i
    return [a for a in range(1, len(values)) if pos[a] > pos[a + 1]]


# One tuple per distinct polynomial, so the S_7 reference keeps 98 of them
# instead of one per pair.
_SHARED_POLYS = {}


def reference_table(group, wi, memo, mu_memo):
    """P(v, w) for every v <= w, keyed by group index of v (dict memo)."""
    if wi in memo:
        return memo[wi]
    w = group.perm(wi).values
    a = min(_left_descents(w), default=0)
    if a == 0:
        memo[wi] = {wi: (1,)}
        return memo[wi]
    swi = group.index_of(_swap_values(w, a))
    sub = reference_table(group, swi, memo, mu_memo)
    lengths = group.lengths
    lw = lengths[wi]
    mus = [
        (zi, mu, format(group.lower_mask(zi), f"0{group.order}b"))
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
            if below_z[vi] != "1":
                continue
            pvz = reference_table(group, zi, memo, mu_memo)[vi] if zi != vi else (1,)
            _add_shifted(acc, pvz, (lw - lengths[zi]) // 2, -mu)
        poly = _strip(acc)
        table[vi] = _SHARED_POLYS.setdefault(poly, poly)
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


def _check_against_reference(n):
    """Every pair of S_n, and every table's keys: the coset tops of the reference interval."""
    group = symmetric_group(n)
    perms = [Permutation(values) for values in permutations(range(1, n + 1))]
    descents = [set(_left_descents(w.values)) for w in perms]
    memo, mu_memo = {}, {}
    for wi, w in enumerate(perms):
        expected = reference_table(group, wi, memo, mu_memo)
        tops = [vi for vi in sorted(expected) if descents[wi] <= descents[vi]]
        assert list(kl._kl_table(group, wi)[0]) == tops
        for vi, poly in expected.items():
            assert kl_recursion(perms[vi], w) == poly
    return sum(len(table) for table in memo.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_compact_recursion_matches_dict_reference(n, fresh_memo):
    _check_against_reference(n)


@pytest.mark.n7
def test_compact_recursion_matches_dict_reference_on_s7(fresh_memo, capsys):
    """All 3,550,919 pairs of S_7 (flag-gated: about 90 s and 270 MB peak RSS)."""
    start = time.perf_counter()
    pairs = _check_against_reference(7)
    with capsys.disabled():
        print(f"\nS_7 against the dict reference: {pairs} pairs in "
              f"{time.perf_counter() - start:.0f} s")
    assert pairs == 3_550_919


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_mu_support_matches_full_scan(n, fresh_memo):
    """Stored tops of full degree plus each s.y with mu = 1, against a scan of all of [e, y]."""
    group = symmetric_group(n)
    memo, mu_memo = {}, {}
    for yi in range(group.order):
        zs, mus = kl._mu_support(group, yi)
        assert len(zs) == len(set(zs))
        assert dict(zip(zs, mus)) == reference_mu_support(group, yi, memo, mu_memo)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_left_multiplication_table(n):
    group = symmetric_group(n)
    assert len(group.lmul) == n - 1
    assert all(len(column) == group.order for column in group.lmul)
    for vi, values in enumerate(permutations(range(1, n + 1))):
        for a in range(1, n):
            assert group.lmul[a - 1][vi] == group.index_of(_swap_values(values, a))


def test_group_builds_each_array_on_first_use(monkeypatch, fresh_memo):
    """A new group holds its bitsets and lengths only, also after a bare ``lower_mask``.

    The KL recursion and the component counts each add exactly the s_a.v
    table, the descent bytes and the descent bitsets of single letters: one
    multiplication table serves both.
    """
    base = {"n", "order", "lengths", "_bitsets"}
    assert set(vars(SymmetricGroup(5))) == base
    group = SymmetricGroup(6)
    group.lower_mask(group.order - 1)
    assert set(vars(group)) == base
    used = base | {"lmul", "descents", "_descent_bitsets"}
    perms = [Permutation(values) for values in permutations(range(1, 7))]
    monkeypatch.setattr(symgroup, "_groups", {})
    for w in perms[::37]:
        kl_recursion(perms[0], w)
    assert set(vars(symmetric_group(6))) == used
    monkeypatch.setattr(symgroup, "_groups", {})
    for w in perms[::37]:
        component_counts(w)
    assert set(vars(symmetric_group(6))) == used
    assert len(symmetric_group(6)._descent_bitsets) == 5


def test_s6_tables_stay_small(fresh_memo):
    """All 720 tables of S_6 in under 450 KB (the dict memo took 9.9 MB).

    The tables are the only memo; a second memo of each y's mu-support
    brought the total to about 530 KB.
    """
    group = symmetric_group(6)
    group.lmul
    tracemalloc.start()
    try:
        for wi in range(group.order):
            kl._kl_table(group, wi)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 450_000
    for tops, ids, _ in kl._tables.values():
        assert len(tops) == len(ids)


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


def test_interning_keeps_ids_across_cache_clears(fresh_memo):
    w = Permutation((4, 2, 3, 1))
    v = Permutation((2, 1, 4, 3))
    assert kl_recursion(v, w) == (1, 1)
    interned = list(kl._polys)
    kl.clear_kl_cache()
    assert kl_recursion(v, w) == (1, 1)
    assert kl._polys[: len(interned)] == interned
    assert len(set(kl._polys)) == len(kl._polys)
