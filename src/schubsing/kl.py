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
two bytes each for n <= 8) and one polynomial id per interval element (one
byte while at most 256 polynomials are interned, wider beyond).  A pair
(v, w) is looked up by binary search for v in the interval of w.  The memo
is module-level and lock-guarded, so concurrent sweeps either share it
safely or (as the multiprocessing sweep does) keep one per worker process.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left

from .perms import Permutation, bruhat_leq
from .symgroup import SymmetricGroup, symmetric_group

__all__ = ["KLPoly", "kl_recursion", "clear_kl_cache"]

KLPoly = tuple[int, ...]

# A table holds ids in one byte each while at most this many polynomials are
# interned; past that, newly built tables use four-byte ids.
_BYTE_IDS = 256

# The interned polynomials, never shrunk: ids stay valid for the whole process.
_polys: list[KLPoly] = []
_poly_ids: dict[KLPoly, int] = {}
# (n, w index) -> (interval of w, polynomial id per interval element).
_tables: dict[tuple[int, int], tuple[array, array]] = {}
# (n, y index) -> (every z < y with mu(z, y) != 0, ascending; mu(z, y) per z).
_mu_supports: dict[tuple[int, int], tuple[array, array]] = {}
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


def _lookup(table: tuple[array, array], vi: int) -> KLPoly:
    """P(v, w) from the table of w, or () (the zero polynomial) if v is not <= w."""
    interval, ids = table
    k = bisect_left(interval, vi)
    if k < len(interval) and interval[k] == vi:
        return _polys[ids[k]]
    return ()


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


def _smallest_left_descent(values: tuple[int, ...]) -> int:
    """Smallest a with a placed after a+1 in one-line notation, or 0 if none."""
    pos = [0] * (len(values) + 2)
    for i, x in enumerate(values):
        pos[x] = i
    for a in range(1, len(values)):
        if pos[a] > pos[a + 1]:
            return a
    return 0


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
    interval = array("H" if len(group.perms) <= 1 << 16 else "i", group.interval(wi))
    a = _smallest_left_descent(group.perms[wi])
    if a == 0:
        return _store(key, interval, [_intern((1,))])

    # s.v for s = s_a sits in column a - 1 of the left-multiplication table.
    lmul, stride, col = group.lmul, group.n - 1, a - 1
    swi = lmul[wi * stride + col]
    sub = _kl_table(group, swi)
    lengths = group.lengths
    lw = lengths[wi]
    # The correction sum ranges over z < s.w with s.z < z and mu(z, s.w) != 0.
    mus = [
        (zi, mu, group.lower_mask(zi), _kl_table(group, zi))
        for zi, mu in zip(*_mu_support(group, swi))
        if lengths[lmul[zi * stride + col]] < lengths[zi]
    ]

    ids = []
    for vi in interval:
        svi = lmul[vi * stride + col]
        c = 1 if lengths[svi] < lengths[vi] else 0
        acc: list[int] = []
        _add_shifted(acc, _lookup(sub, svi), 1 - c)
        _add_shifted(acc, _lookup(sub, vi), c)
        for zi, mu, below_z, ztable in mus:
            if not below_z[vi]:
                continue
            pvz = _lookup(ztable, vi) if zi != vi else (1,)
            _add_shifted(acc, pvz, (lw - lengths[zi]) // 2, -mu)
        ids.append(_intern(_strip(acc)))
    return _store(key, interval, ids)


def _store(key: tuple[int, int], interval: array, ids: list[int]) -> tuple[array, array]:
    """Memoize a table, its ids in one byte each while every interned id fits."""
    table = (interval, array("B" if len(_polys) <= _BYTE_IDS else "i", ids))
    with _lock:
        _tables[key] = table
    return table
