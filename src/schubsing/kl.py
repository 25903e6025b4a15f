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
term first.  Tables are memoized per w over the whole lower interval; the
memo is module-level and lock-guarded, so concurrent sweeps either share it
safely or (as the multiprocessing sweep does) keep one per worker process.
"""

from __future__ import annotations

import threading

from .perms import Permutation, bruhat_leq
from .symgroup import SymmetricGroup, symmetric_group

__all__ = ["KLPoly", "kl_recursion", "clear_kl_cache"]

KLPoly = tuple[int, ...]

_tables: dict[tuple[int, int], dict[int, KLPoly]] = {}
_mu_supports: dict[tuple[int, int], dict[int, int]] = {}
_lock = threading.RLock()


def kl_recursion(v: Permutation, w: Permutation) -> KLPoly:
    """P(v, w) by the defining recursion; requires v <= w."""
    if not bruhat_leq(v, w):
        raise ValueError(
            f"{v.values} is not Bruhat-below {w.values}; P(v, w) would be zero"
        )
    group = symmetric_group(w.n)
    table = _kl_table(group, group.index_of(w.values))
    return table[group.index_of(v.values)]


def clear_kl_cache() -> None:
    """Drop all memoized tables (mainly for tests and worker hygiene)."""
    with _lock:
        _tables.clear()
        _mu_supports.clear()


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


def _swap_values(values: tuple[int, ...], a: int) -> tuple[int, ...]:
    """Left multiplication by the adjacent transposition (a, a+1)."""
    return tuple(
        a + 1 if x == a else a if x == a + 1 else x for x in values
    )


def _mu_support(group: SymmetricGroup, yi: int) -> dict[int, int]:
    """All z < y with mu(z, y) nonzero, from the memoized table of y."""
    key = (group.n, yi)
    with _lock:
        cached = _mu_supports.get(key)
        if cached is not None:
            return cached
    table = _kl_table(group, yi)
    ly = group.lengths[yi]
    support: dict[int, int] = {}
    for zi, poly in table.items():
        gap = ly - group.lengths[zi]
        if gap % 2 == 1 and len(poly) == (gap - 1) // 2 + 1:
            support[zi] = poly[-1]
    with _lock:
        _mu_supports[key] = support
    return support


def _kl_table(group: SymmetricGroup, wi: int) -> dict[int, KLPoly]:
    """P(v, w) for every v <= w, keyed by group index of v."""
    key = (group.n, wi)
    with _lock:
        cached = _tables.get(key)
        if cached is not None:
            return cached

    w = group.perms[wi]
    a = _smallest_left_descent(w)
    if a == 0:
        table = {wi: (1,)}
        with _lock:
            _tables[key] = table
        return table

    swi = group.index_of(_swap_values(w, a))
    sub = _kl_table(group, swi)
    lengths = group.lengths
    lw = lengths[wi]
    # The correction sum ranges over z < s.w with s.z < z and mu(z, s.w) != 0.
    mus = [
        (zi, mu, group.lower_mask(zi))
        for zi, mu in sorted(_mu_support(group, swi).items())
        if lengths[group.index_of(_swap_values(group.perms[zi], a))] < lengths[zi]
    ]

    table = {}
    for vi in group.interval(wi):
        svi = group.index_of(_swap_values(group.perms[vi], a))
        c = 1 if lengths[svi] < lengths[vi] else 0
        acc: list[int] = []
        _add_shifted(acc, sub.get(svi, ()), 1 - c)
        _add_shifted(acc, sub.get(vi, ()), c)
        for zi, mu, below_z in mus:
            if not below_z[vi]:
                continue
            pvz = _kl_table(group, zi)[vi] if zi != vi else (1,)
            _add_shifted(acc, pvz, (lw - lengths[zi]) // 2, -mu)
        table[vi] = _strip(acc)

    with _lock:
        _tables[key] = table
    return table
