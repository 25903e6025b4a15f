"""Smoothness of Schubert varieties by forbidden-pattern scan.

The Schubert variety of w is singular if and only if the one-line notation
of w contains an occurrence of one of two patterns on positions
i < j < k < l:

* ``4231``:  w(l) < w(j) < w(k) < w(i)
* ``3412``:  w(k) < w(l) < w(i) < w(j)

:func:`find_patterns` lists every occurrence with a direct O(n^4) loop over
position quadruples.  :func:`is_smooth` only asks whether one exists, and
tests each middle pair (j, k) against prefix and suffix data in O(n^2)
time; the quadruple loop is its oracle in the test suite.  This criterion is
one of two independent routes to smoothness in the package; the other is the
tangent-space count in :mod:`schubsing.tangent`, and the two are compared
permutation by permutation in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .perms import Permutation

__all__ = ["PATTERN_4231", "PATTERN_3412", "PatternOccurrence", "find_patterns", "is_smooth"]

PATTERN_4231 = "4231"
PATTERN_3412 = "3412"


@dataclass(frozen=True)
class PatternOccurrence:
    """One forbidden pattern at 1-indexed positions i < j < k < l.

    >>> PatternOccurrence(PATTERN_4231, (1, 2, 3, 4)).kind
    '4231'
    """

    kind: str
    positions: tuple[int, int, int, int]


def _scan(w: Permutation) -> Iterator[PatternOccurrence]:
    vals = w.values
    n = w.n
    for i in range(n - 3):
        a = vals[i]
        for j in range(i + 1, n - 2):
            b = vals[j]
            for k in range(j + 1, n - 1):
                c = vals[k]
                for l in range(k + 1, n):
                    d = vals[l]
                    if d < b < c < a:
                        yield PatternOccurrence(
                            PATTERN_4231, (i + 1, j + 1, k + 1, l + 1)
                        )
                    elif c < d < a < b:
                        yield PatternOccurrence(
                            PATTERN_3412, (i + 1, j + 1, k + 1, l + 1)
                        )


def find_patterns(w: Permutation) -> list[PatternOccurrence]:
    """All occurrences of the two singular patterns, positions in lexicographic order.

    >>> [o.kind for o in find_patterns(Permutation((4, 2, 3, 1)))]
    ['4231']
    >>> find_patterns(Permutation((1, 2, 3, 4)))
    []
    """
    return list(_scan(w))


def is_smooth(w: Permutation) -> bool:
    """True iff the Schubert variety of w is smooth (no forbidden pattern), in O(n^2).

    >>> is_smooth(Permutation((3, 4, 1, 2)))
    False
    >>> is_smooth(Permutation((4, 3, 2, 1)))
    True
    """
    vals = w.values
    n = w.n
    # Middle pair (j, k), 0-indexed.  4231 (b < c) needs a value above c
    # left of j and one below b right of k: compare with the prefix maximum
    # and the suffix minimum.  3412 (b > c) needs left of j a value x with
    # c < x < b and right of k a value in (c, x): take x as large as possible
    # and the right value as small as possible.
    right_min = [n + 1] * n
    for k in range(n - 2, 0, -1):
        right_min[k] = min(right_min[k + 1], vals[k + 1])
    right_above = [0] * n  # smallest value right of k above vals[k]; 0 = not yet
    left_max = vals[0]
    for j in range(1, n - 2):
        b = vals[j]
        left_below = max([x for x in vals[:j] if x < b], default=0)
        for k in range(j + 1, n - 1):
            c = vals[k]
            if b < c:
                if right_min[k] < b and c < left_max:
                    return False
            elif c < left_below:
                if not right_above[k]:
                    right_above[k] = min([x for x in vals[k + 1 :] if x > c], default=n + 1)
                if right_above[k] < left_below:
                    return False
        left_max = max(left_max, b)
    return True
