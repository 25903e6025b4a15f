"""Kazhdan-Lusztig polynomials: closed forms at components, and the recursion.

Two independent routes, kept strictly apart so they can check each other:

* ``Component.kl_closed_form`` reads the polynomial of a classified
  component off its family: ``1 + q + ... + q^min(l, m)`` for 4231,
  ``1 + q^(l+1)`` for 3412*, and ``1 + q`` for 3412empty.
* :func:`kl_recursion` evaluates the standard defining recursion in the
  Hecke algebra, with exact integer coefficients.

For every left descent s of w, P(v, w) = P(s.v, w) (Kazhdan-Lusztig,
Invent. Math. 53, 1979, 2.3), and v <= w iff s.v <= w.  So P(., w) is
constant on each coset W_D v of the parabolic subgroup generated by the left
descents D of w, and the table of w stores it only at the top of each coset
below w: the v <= w with s.v < v for every s in D (Bjorner-Brenti, GTM 231,
ch. 5).  A lookup lifts v to its top along left multiplications by D and
binary-searches the stored tops; a top that is not stored is not below w.
The group owns the coset rule: ``SymmetricGroup.coset_tops`` reads the
tops below w off w's interval mask and the left descents of every v, the
same tops the component oracle counts tangent spaces at.  The lift reads
the descents and s.v from arrays the group builds on first use
(``SymmetricGroup.descents`` and ``SymmetricGroup.lmul``, its only
multiplication table); this module indexes them by permutation and knows
nothing of their layout.

Writing s for the smallest left descent of w, every stored v has s.v < v,
so one rule gives each entry:

    P(v, w) = P(s.v, s.w) + q P(v, s.w)
              - sum over z with v <= z < s.w and s.z < z of
                    mu(z, s.w) q^((len(w)-len(z))/2) P(v, z)

where mu(z, y) is the coefficient of q^((len(y)-len(z)-1)/2) in P(z, y).
A z < y that is not a coset top of y has s.z > z for some left descent s of
y, and P(z, y) = P(s.z, y) has degree at most (len(y)-len(z)-2)/2, so
mu(z, y) = 0 unless s.z = y, where mu = 1.

Polynomials are dense tuples of nonnegative integer coefficients, constant
term first.  Each distinct polynomial is interned once in a process-wide
list (all of S_7 has only 98 of them).  A table holds two parallel int
arrays, the tops ascending and one polynomial id per top, and the left
descents of w.  The memo is module-level and lock-guarded, so concurrent
sweeps either share it safely or (as the multiprocessing sweep does) keep
one per worker process.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left

from .perms import Permutation, bruhat_leq
from .symgroup import SymmetricGroup, symmetric_group

__all__ = ["KLPoly", "kl_recursion", "clear_kl_cache"]

KLPoly = tuple[int, ...]

# The interned polynomials, never shrunk: ids stay valid for the whole process.
_polys: list[KLPoly] = []
_poly_ids: dict[KLPoly, int] = {}
# A table of w: its coset tops ascending, the polynomial id of each, and its
# left descents as a bitset (bit a - 1 for s_a).
_Table = tuple[array, array, int]
# (n, w index) -> the table of w.
_tables: dict[tuple[int, int], _Table] = {}
# (n, y index) -> (every z < y with mu(z, y) != 0; mu(z, y) per z).
_mu_supports: dict[tuple[int, int], tuple[array, array]] = {}
_lock = threading.RLock()


def kl_recursion(v: Permutation, w: Permutation) -> KLPoly:
    """P(v, w) by the defining recursion; requires v <= w.

    >>> kl_recursion(Permutation((2, 1, 4, 3)), Permutation((4, 2, 3, 1)))
    (1, 1)
    """
    if not bruhat_leq(v, w):
        raise ValueError(
            f"{v.values} is not Bruhat-below {w.values}; P(v, w) would be zero"
        )
    group = symmetric_group(w.n)
    return _lookup(group, _kl_table(group, group.index_of(w.values)), group.index_of(v.values))


def clear_kl_cache() -> None:
    """Drop all memoized tables (mainly for tests and worker hygiene).

    The interned polynomials stay, so a table another thread still holds
    keeps reading the right ones.
    """
    with _lock:
        _tables.clear()
        _mu_supports.clear()


def _intern(poly: KLPoly) -> int:
    pid = _poly_ids.get(poly)
    if pid is None:
        with _lock:
            pid = _poly_ids.get(poly)
            if pid is None:
                pid = len(_polys)
                _polys.append(poly)
                _poly_ids[poly] = pid
    return pid


def _lookup(group: SymmetricGroup, table: _Table, vi: int) -> KLPoly:
    """P(v, w) from the table of w: v lifted to its coset top, which is stored iff v <= w."""
    tops, ids, descents = table
    sets, lmul, stride = group.descents, group.lmul, group.n - 1
    while missing := descents & ~sets[vi]:
        # Lift by s_a for the smallest left descent a of w with s_a.v > v.
        vi = lmul[vi * stride + (missing & -missing).bit_length() - 1]
    k = bisect_left(tops, vi)
    return _polys[ids[k]] if k < len(tops) and tops[k] == vi else ()


def _strip(coeffs: list[int]) -> KLPoly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _add_shifted(acc: list[int], poly: KLPoly, shift: int, scale: int = 1) -> None:
    """acc += scale * q^shift * poly, growing acc as needed."""
    need = shift + len(poly)
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for i, coeff in enumerate(poly):
        acc[shift + i] += scale * coeff


def _mu_support(group: SymmetricGroup, yi: int) -> tuple[array, array]:
    """All z < y with mu(z, y) nonzero: the stored tops of full degree, then each s.y."""
    key = (group.n, yi)
    with _lock:
        cached = _mu_supports.get(key)
        if cached is not None:
            return cached
    tops, ids, descents = _kl_table(group, yi)
    lengths, ly, stride = group.lengths, group.lengths[yi], group.n - 1
    s_y = [group.lmul[yi * stride + a] for a in range(stride) if descents >> a & 1]
    # deg P(z, y) = (ly - lz - 1) / 2 exactly when the polynomial has (ly - lz + 1) / 2 terms.
    full = [k for k, zi in enumerate(tops) if 2 * len(_polys[ids[k]]) == ly - lengths[zi] + 1]
    zs = array("i", [tops[k] for k in full] + s_y)
    support = (zs, array("i", [_polys[ids[k]][-1] for k in full] + [1] * len(s_y)))
    with _lock:
        _mu_supports[key] = support
    return support


def _kl_table(group: SymmetricGroup, wi: int) -> _Table:
    """The coset tops below w, the id of P(v, w) for each top v, and w's left descents."""
    key = (group.n, wi)
    with _lock:
        cached = _tables.get(key)
        if cached is not None:
            return cached
    descents = group.descents[wi]
    tops = group.coset_tops(group.lower_mask(wi), descents)
    # Only the identity has no left descent, and P(e, e) = 1.
    if descents:
        ids = _entries(group, wi, tops, (descents & -descents).bit_length() - 1)
    else:
        ids = array("i", [_intern((1,))])
    table = (tops, ids, descents)
    with _lock:
        _tables[key] = table
    return table


def _entries(group: SymmetricGroup, wi: int, tops: array, col: int) -> array:
    """The id of P(v, w) for each top v of w, by the recursion along s = s_a, col = a - 1."""
    lmul, stride, lengths = group.lmul, group.n - 1, group.lengths
    swi, lw = lmul[wi * stride + col], lengths[wi]
    # The correction sum ranges over z < s.w with s.z < z and mu(z, s.w) != 0.
    corrections: dict[int, list[int]] = {}
    for zi, mu in zip(*_mu_support(group, swi)):
        if group.descents[zi] >> col & 1:
            table, lz = _kl_table(group, zi), lengths[zi]
            for k, vi in enumerate(tops):
                poly = _lookup(group, table, vi) if lengths[vi] <= lz else ()
                if poly:
                    corr = corrections.setdefault(k, [])
                    _add_shifted(corr, poly, (lw - lz) // 2, -mu)
    sub = _kl_table(group, swi)
    ids = array("i")
    for k, vi in enumerate(tops):
        acc = list(_lookup(group, sub, lmul[vi * stride + col]))
        _add_shifted(acc, _lookup(group, sub, vi), 1)
        _add_shifted(acc, corrections.get(k, ()), 0)
        ids.append(_intern(_strip(acc)))
    return ids
