"""Permutations in one-line notation, rank tables, and the Bruhat order.

Everything downstream (pattern scans, tangent counts, slice models) is built
on the combinatorics in this module.  Conventions, fixed once and for all:

* positions and values are 1-indexed: a permutation of size n maps
  {1, ..., n} to itself, and ``w(i)`` is the value at position i;
* the rank table of w is the (n+1) x (n+1) array
  ``r_w(p, q) = #{i <= p : w(i) <= q}`` with a zeroth row and column of
  zeros, so inclusion-exclusion on 2 x 2 corners is uniform;
* ``v <= w`` in Bruhat order if and only if ``r_v(p, q) >= r_w(p, q)``
  for all p, q (smaller permutations have pointwise larger tables; the
  identity is the minimum).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

__all__ = [
    "Permutation",
    "all_transpositions",
    "bruhat_leq",
    "compose",
    "format_permutation",
    "identity",
    "inverse",
    "longest_element",
    "make_permutation",
    "parse_permutation",
    "rank_table",
    "transposition",
]


@dataclass(frozen=True)
class Permutation:
    """A permutation stored in one-line notation, e.g. (4, 2, 3, 1).

    >>> w = Permutation((4, 2, 3, 1))
    >>> w(1), w(4)
    (4, 1)
    >>> w.n
    4
    >>> w.length
    5
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        if n == 0:
            raise ValueError("a permutation needs at least one value")
        # Values are ints: 2.0 or True would pass the sort and print as such.
        if set(map(type, self.values)) != {int} or sorted(self.values) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.values!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        """Value at position i (1-indexed)."""
        return self.values[i - 1]

    def __repr__(self) -> str:
        return f"Permutation({self.values!r})"

    @cached_property
    def rank_table(self) -> tuple[tuple[int, ...], ...]:
        """The rank table of w as rows, ``[p][q]`` = r_w(p, q), built once.

        ``cached_property`` stores it in the instance ``__dict__``, which a
        frozen dataclass allows; equality and hashing still see ``values``
        only.
        """
        n = self.n
        rows: list[tuple[int, ...]] = [(0,) * (n + 1)]
        prev = rows[0]
        for wp in self.values:
            row = tuple(prev[q] + (1 if wp <= q else 0) for q in range(n + 1))
            rows.append(row)
            prev = row
        return tuple(rows)

    @cached_property
    def length(self) -> int:
        """Number of inversions, i.e. the dimension of the Schubert cell of w.

        Counted once per object, as ``rank_table`` is.
        """
        vals = self.values
        return sum(vals[i] > vals[j] for i in range(self.n) for j in range(i + 1, self.n))


def make_permutation(values: Iterable[int]) -> Permutation:
    """Validate a sequence of values as a permutation of 1..n.

    >>> make_permutation([2, 1, 3])
    Permutation((2, 1, 3))
    >>> make_permutation([1, 1, 2])
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..3: (1, 1, 2)
    """
    return Permutation(tuple(values))


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def longest_element(n: int) -> Permutation:
    """The order-reversing permutation (n, n-1, ..., 1)."""
    return Permutation(tuple(range(n, 0, -1)))


def transposition(n: int, i: int, j: int) -> Permutation:
    """The transposition swapping i and j inside S_n.

    >>> transposition(4, 1, 3).values
    (3, 2, 1, 4)
    """
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    vals = list(range(1, n + 1))
    vals[i - 1], vals[j - 1] = vals[j - 1], vals[i - 1]
    return Permutation(tuple(vals))


def all_transpositions(n: int) -> list[Permutation]:
    """All n(n-1)/2 transpositions of S_n, ordered by (i, j)."""
    return [transposition(n, i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def inverse(w: Permutation) -> Permutation:
    """The inverse permutation.

    >>> inverse(Permutation((2, 3, 1))).values
    (3, 1, 2)
    """
    vals = [0] * w.n
    for i, x in enumerate(w.values, start=1):
        vals[x - 1] = i
    return Permutation(tuple(vals))


def compose(u: Permutation, v: Permutation) -> Permutation:
    """The product u.v acting as (u.v)(i) = u(v(i)).

    >>> compose(Permutation((2, 1, 3)), Permutation((3, 1, 2))).values
    (3, 2, 1)
    """
    if u.n != v.n:
        raise ValueError(f"size mismatch: {u.n} vs {v.n}")
    return Permutation(tuple(u.values[x - 1] for x in v.values))


def rank_table(w: Permutation) -> tuple[tuple[int, ...], ...]:
    """The rank table of w as rows indexed ``[p][q]``, built once per object.

    >>> rank_table(Permutation((2, 4, 1, 3)))[2][2]
    1
    """
    return w.rank_table


def bruhat_leq(v: Permutation, w: Permutation) -> bool:
    """Bruhat order via rank-table domination: v <= w iff r_v >= r_w pointwise.

    >>> bruhat_leq(Permutation((2, 1, 4, 3)), Permutation((4, 2, 3, 1)))
    True
    >>> bruhat_leq(Permutation((4, 2, 3, 1)), Permutation((2, 1, 4, 3)))
    False
    """
    if v.n != w.n:
        raise ValueError(f"size mismatch: {v.n} vs {w.n}")
    rv = rank_table(v)
    rw = rank_table(w)
    for p in range(1, v.n):
        rvp = rv[p]
        rwp = rw[p]
        for q in range(1, v.n):
            if rvp[q] < rwp[q]:
                return False
    return True


def parse_permutation(text: str) -> Permutation:
    """Parse "4,2,3,1" (any size) or compact "4231" (single digits, n <= 9).

    Values are written with the ASCII digits 0-9 only; comma-separated
    values may carry surrounding whitespace.

    >>> parse_permutation("4,2,3,1").values
    (4, 2, 3, 1)
    >>> parse_permutation("4231").values
    (4, 2, 3, 1)
    >>> parse_permutation("+2,1")
    Traceback (most recent call last):
        ...
    ValueError: malformed permutation: '+2,1'
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    tokens = [tok.strip() for tok in text.split(",")] if "," in text else list(text)
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError(f"malformed permutation: {text!r}")
    return make_permutation(int(tok) for tok in tokens)


def format_permutation(w: Permutation) -> str:
    """One-line notation as comma-separated values, e.g. "4,2,3,1"."""
    return ",".join(str(x) for x in w.values)

