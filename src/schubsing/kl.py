"""Kazhdan-Lusztig polynomials: closed forms at components, and the recursion.

Two independent routes, kept strictly apart so they can check each other:

* ``Component.kl_closed_form`` reads the polynomial of a classified
  component off its family: ``1 + q + ... + q^min(l, m)`` for 4231,
  ``1 + q^(l+1)`` for 3412*, and ``1 + q`` for 3412empty.
* :func:`kl_recursion` evaluates the standard defining recursion in the
  Hecke algebra, with exact integer coefficients.  Writing s for the
  smallest left descent of w (always that one, for determinism) and
  c = 1 if s.v < v else 0:

      P(v, w) = q^(1-c) P(s.v, s.w) + q^c P(v, s.w)
                - sum over z with v <= z < s.w and s.z < z of
                      mu(z, s.w) q^((len(w)-len(z))/2) P(v, z)

  where mu(z, y) is the coefficient of q^((len(y)-len(z)-1)/2) in P(z, y).

Polynomials are dense tuples of nonnegative integer coefficients, constant
term first.  Each distinct polynomial is interned once in a process-wide
list (all of S_7 has only 98 of them), and the table of w is stored compactly
as two parallel arrays: the lower interval of w (group indices ascending,
two bytes each for n <= 8) and one polynomial id per interval element, in
the narrowest of one, two or four bytes that holds every id interned when
the table is stored.  A pair (v, w) is looked up by binary search for v in
the interval of w; a v that is not there is not below w.  The memo is
module-level and lock-guarded, so concurrent sweeps either share it
safely or (as the multiprocessing sweep does) keep one per worker process.

An entry with no correction term is a function of c and the ids of
P(s.v, s.w) and P(v, s.w) alone.  All of S_7 has only 408 such triples, so
each is summed once and memoized to the id of its result.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left

from .perms import Permutation, bruhat_leq
from .symgroup import SymmetricGroup, symmetric_group

__all__ = ["KLPoly", "kl_recursion", "clear_kl_cache"]

KLPoly = tuple[int, ...]

# A table stores its ids in the first typecode whose limit is at least the
# number of polynomials interned so far (every id is below that number), and
# in "i" past the last one, so ids never wrap.
_ID_LIMITS = (("B", 1 << 8), ("H", 1 << 16))

# The interned polynomials, never shrunk: ids stay valid for the whole process.
_polys: list[KLPoly] = []
_poly_ids: dict[KLPoly, int] = {}
# (n, w index) -> (interval of w, polynomial id per interval element).
_tables: dict[tuple[int, int], tuple[array, array]] = {}
# (n, y index) -> (every z < y with mu(z, y) != 0, ascending; mu(z, y) per z).
_mu_supports: dict[tuple[int, int], tuple[array, array]] = {}
# (c, id of P(s.v, s.w), id of P(v, s.w)) -> id of P(v, w), for the entries
# the correction sum does not touch.  Ids are never reused, so this survives
# clear_kl_cache; threads that race on a triple store the same id.
_plain_ids: dict[tuple[int, int, int], int] = {}
_lock = threading.RLock()


def kl_recursion(v: Permutation, w: Permutation) -> KLPoly:
    """P(v, w) by the defining recursion; requires v <= w."""
    if not bruhat_leq(v, w):
        raise ValueError(
            f"{v.values} is not Bruhat-below {w.values}; P(v, w) would be zero"
        )
    group = symmetric_group(w.n)
    interval, ids = _kl_table(group, group.index_of(w.values))
    return _polys[ids[bisect_left(interval, group.index_of(v.values))]]


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


def _lookup_id(table: tuple[array, array], vi: int) -> int:
    """The id of P(v, w) from the table of w, or -1 (the zero polynomial) if v is not <= w."""
    interval, ids = table
    k = bisect_left(interval, vi)
    if k < len(interval) and interval[k] == vi:
        return ids[k]
    return -1


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
    """All z < y with mu(z, y) nonzero, ascending, and their mu values."""
    key = (group.n, yi)
    with _lock:
        cached = _mu_supports.get(key)
        if cached is not None:
            return cached
    interval, ids = _kl_table(group, yi)
    lengths = group.lengths
    ly = lengths[yi]
    zs, mus = array(interval.typecode), array("i")
    for zi, pid in zip(interval, ids):
        gap = ly - lengths[zi]
        if gap % 2 == 1:
            poly = _polys[pid]
            if len(poly) == (gap - 1) // 2 + 1:
                zs.append(zi)
                mus.append(poly[-1])
    support = (zs, mus)
    with _lock:
        _mu_supports[key] = support
    return support


def _kl_table(group: SymmetricGroup, wi: int) -> tuple[array, array]:
    """The interval of w and, parallel to it, the id of P(v, w) for each v."""
    key = (group.n, wi)
    with _lock:
        cached = _tables.get(key)
        if cached is not None:
            return cached

    # Two bytes per index up to S_8 (8! = 40,320); S_9 needs four.
    interval = array("H" if group.order <= 1 << 16 else "i", group.interval(wi))
    # s = s_a for the smallest a with s_a.w < w; s.v sits in column a - 1 of
    # the left-multiplication table.
    lmul, stride, lengths = group.lmul, group.n - 1, group.lengths
    lw = lengths[wi]
    row = lmul[wi * stride : (wi + 1) * stride]
    col = next((a for a, swi in enumerate(row) if lengths[swi] < lw), None)
    if col is None:
        return _store(key, interval, [_intern((1,))])

    swi = row[col]
    sub = _kl_table(group, swi)
    # The correction sum ranges over z < s.w with s.z < z and mu(z, s.w) != 0.
    # P(v, z) is zero unless v is in z's interval, so each z walks its own
    # table once and adds its term to the correction of each v there.
    corrections: dict[int, list[int]] = {}
    for zi, mu in zip(*_mu_support(group, swi)):
        if lengths[lmul[zi * stride + col]] < lengths[zi]:
            shift = (lw - lengths[zi]) // 2
            for vi, pid in zip(*_kl_table(group, zi)):
                corr = corrections.get(vi)
                if corr is None:
                    corr = corrections[vi] = []
                _add_shifted(corr, _polys[pid], shift, -mu)

    ids = []
    for vi in interval:
        svi = lmul[vi * stride + col]
        c = 1 if lengths[svi] < lengths[vi] else 0
        plain = (c, _lookup_id(sub, svi), _lookup_id(sub, vi))
        corr = corrections.get(vi)
        if corr is not None:
            acc = _plain_sum(*plain)
            _add_shifted(acc, corr, 0)
            ids.append(_intern(_strip(acc)))
            continue
        pid = _plain_ids.get(plain)
        if pid is None:
            pid = _plain_ids[plain] = _intern(_strip(_plain_sum(*plain)))
        ids.append(pid)
    return _store(key, interval, ids)


def _plain_sum(c: int, sv_id: int, v_id: int) -> list[int]:
    """q^(1-c) P(s.v, s.w) + q^c P(v, s.w), from the two ids (-1 for zero)."""
    acc: list[int] = []
    if sv_id >= 0:
        _add_shifted(acc, _polys[sv_id], 1 - c)
    if v_id >= 0:
        _add_shifted(acc, _polys[v_id], c)
    return acc


def _store(key: tuple[int, int], interval: array, ids: list[int]) -> tuple[array, array]:
    """Memoize a table, its ids in the narrowest typecode that holds every interned id."""
    count = len(_polys)
    code = next((code for code, limit in _ID_LIMITS if count <= limit), "i")
    table = (interval, array(code, ids))
    with _lock:
        _tables[key] = table
    return table
