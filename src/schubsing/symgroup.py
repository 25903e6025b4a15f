"""Cached enumeration of a full symmetric group for sweep-style computations.

Interval enumeration is done by filtering all of S_n with the rank-table
domination test; no poset data structure and no rank table is kept.  For
every group we store, once per process:

* one bitset per interior cell (p, q) and threshold k: bit v is set iff
  r_v(p, q) >= k, with v in lexicographic order of one-line notation and
  bit v counted from the top (v = 0 is the most significant of n! bits),
* the Coxeter lengths of all n! permutations,

and build on first use, for the KL recursion and the tangent counts:

* the index of s_a.v for every v and simple reflection s_a (``lmul``),
  one array column per s_a: the group's only multiplication table, and
  v.t for a transposition t is a walk along it,
* the left descents of every v (``descents``), from which ``coset_tops``
  reads the tops of a w's left descent cosets, the only points the KL
  tables store and the component oracle counts at.

None of these is built one permutation at a time.  In lexicographic order
S_n is n consecutive blocks of (n - 1)! permutations: block a holds the v
with v(1) = a + 1, and their tails, relabelled onto 1..n - 1, run through
S_{n-1} in its own order.  So every array of S_n is made of S_{n-1}'s, and
the builders go up from S_1 one n at a time:

* bitsets: r_v(p, q) = r_u(p - 1, q - [q > a]) + [q > a] for the tail u,
  so {v : r_v(p, q) >= k} is n bitsets of S_{n-1} side by side, block 0 on
  top: {u : r_u(p - 1, q - 1) >= k - 1} in the q blocks a < q, then
  {u : r_u(p - 1, q) >= k} in the others;
* lengths: S_{n-1}'s lengths plus a in block a;
* s_a.v relabels the tail by s_a or s_{a-1} (S_{n-1}'s column plus the
  block offset), or, when v(1) is a or a + 1, moves v to the neighbouring
  block at the same offset; each column is its n raised blocks appended
  in order;
* left descents: s_a.v < v iff a + 1 comes before a in v.  In block a,
  s_a is a descent and s_{a+1} is not; the tail's descent s_b is v's
  descent s_b for b < a and s_{b+1} for b > a.

No permutation is stored: ``index_of`` computes the lexicographic rank
from v itself, and ``perm`` unranks an index.

A lower-interval mask is the AND of the bitsets that w's own rank table
selects, one per cell: an int laid out like the bitsets.  It is not
cached: each caller builds the mask it needs and keeps it as long as it
uses it.  This module owns the layouts of masks and columns; callers
hand masks back to it:

* ``indices`` reads the set bits of a mask out as ascending indices, for
  ``interval``, ``coset_tops`` and any caller that needs the points;
* ``coset_tops`` is one AND of the mask with the bitset of the v that have
  every left descent of a given set, itself the AND of one bitset per
  letter s_a, each built from ``descents`` the first time it is needed;
* ``maximal`` keeps the Bruhat-maximal points of a set, one OR of a kept
  point's mask at a time;
* ``tangent_counts`` is the one reader that indexes a mask by v, so it
  alone turns the mask into n! bytes, once per call.
"""

from __future__ import annotations

import sys
import threading
from array import array
from functools import cached_property, reduce
from itertools import accumulate, compress
from math import factorial
from operator import add
from typing import Iterable, Sequence

from .perms import Permutation

__all__ = ["MAX_N", "SymmetricGroup", "symmetric_group"]

# S_9's bitsets take about 6 MB and its s_a.v table 11.6 MB; past that,
# filtering all of S_n per query is no longer a sane strategy.
MAX_N = 9

# _BIT_BYTES sends the digits of a binary string to 0/1.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# _PLUS[k] adds k to every byte (lengths never reach 256).
_PLUS = tuple(bytes((b + k) & 0xFF for b in range(256)) for k in range(MAX_N))
_ONE = array("i", [1]).tobytes()


def _raised(col: array, offset: int) -> bytes:
    """The machine bytes of ``col`` (typecode "i") with ``offset`` added to each entry.

    The entries are read as the lanes of one int and raised by one
    multiple-precision addition; every entry plus offset stays below 2**31,
    so no lane carries into the next.
    """
    lanes = int.from_bytes(col.tobytes(), sys.byteorder)
    lanes += offset * int.from_bytes(_ONE * len(col), sys.byteorder)
    return lanes.to_bytes(len(col) * col.itemsize, sys.byteorder)


def _block_bitsets(prev: tuple, n: int) -> tuple:
    """Interior bitsets of S_n from those of S_{n-1}.

    Entry [p - 1][q - 1][k] is {v : r_v(p, q) >= k} for 1 <= p, q < n and
    k <= min(p, q), bit v counted from the top: v = 0 is the most
    significant of the n! bits.  Every rank at (p, q) is at least
    max(0, p + q - n), so the thresholds up to that floor select all of S_n
    and get -1, the int with every bit set.
    """
    block = factorial(n - 1)
    everything = (1 << block) - 1

    def tail_bits(p: int, q: int, k: int) -> int:
        """{u in S_{n-1} : r_u(p, q) >= k}, also on the border cells."""
        if k <= 0:
            return everything
        if p == 0 or q == 0:
            return 0
        if q == n - 1:
            return everything if k <= p else 0
        bits = prev[p - 1][q - 1]
        return bits[k] & everything if k < len(bits) else 0

    rows = []
    for p in range(1, n):
        row = []
        for q in range(1, n):
            bits = [-1] * (max(0, p + q - n) + 1)
            for k in range(len(bits), min(p, q) + 1):
                acc = 0
                for a in range(n):
                    acc = acc << block | tail_bits(p - 1, q - (q > a), k - (q > a))
                bits.append(acc)
            row.append(tuple(bits))
        rows.append(tuple(row))
    return tuple(rows)


def _block_lengths(prev: bytes, n: int) -> bytes:
    """Coxeter lengths of S_n from those of S_{n-1}: plus a in block a."""
    return b"".join(prev.translate(_PLUS[a]) for a in range(n))


def _block_lmul(prev: tuple, n: int) -> tuple:
    """s_a.v columns of S_n from those of S_{n-1}, each column appended one block at a time."""
    block = factorial(n - 1)
    ident = array("i", range(block))
    cols = []
    for a in range(1, n):
        col = array("i")
        for b in range(n):
            # Block b holds the v with v(1) = b + 1.
            if b == a - 1:
                col.frombytes(_raised(ident, (b + 1) * block))
            elif b == a:
                col.frombytes(_raised(ident, (b - 1) * block))
            else:
                col.frombytes(_raised(prev[a - 2 if b < a else a - 1], b * block))
        cols.append(col)
    return tuple(cols)


def _block_descents(prev: bytes, n: int) -> bytes:
    """Left descent bytes of S_n from those of S_{n-1}, bit a - 1 for s_a."""
    # In block a the tail's bits below a - 1 stay, its bit a - 1 gives way
    # to the descent s_a (no bit for a = 0), and its bits from a on move up
    # one.  Masking to a byte only trims patterns no tail has.
    return b"".join(
        prev.translate(
            bytes(((x | 1 << a >> 1) & (1 << a) - 1 | x >> a << a + 1) & 0xFF for x in range(256))
        )
        for a in range(n)
    )


class SymmetricGroup:
    """S_n as the precomputed arrays the interval sweeps consume."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"n must be between 1 and {MAX_N}, got {n}")
        self.n = n
        self.order = factorial(n)
        # Each array is built up from S_1's, one n at a time.
        self.lengths = array("B", reduce(_block_lengths, range(2, n + 1), b"\0"))
        self._bitsets = reduce(_block_bitsets, range(2, n + 1), ())

    @cached_property
    def lmul(self) -> tuple[array, ...]:
        """Left multiplication: ``lmul[a - 1][v]`` is the index of s_a.v.

        One column per simple reflection s_a; s_a.v swaps the values a and
        a + 1 in one-line notation.  Built on first use: the KL recursion and
        ``tangent_counts`` read it.
        """
        return reduce(_block_lmul, range(2, self.n + 1), ())

    @cached_property
    def descents(self) -> bytes:
        """Left descents: bit a - 1 of ``descents[v]`` is set iff s_a.v < v.

        Built on first use: the KL recursion and ``coset_tops`` read them.
        """
        return reduce(_block_descents, range(2, self.n + 1), b"\0")

    @cached_property
    def _descent_bitsets(self) -> list[int | None]:
        """Entry a - 1: the bitset of the v with left descent s_a, laid out like a mask.

        ``coset_tops`` builds each entry the first time it needs it, so the
        group holds at most n - 1 of them.
        """
        return [None] * (self.n - 1)

    def index_of(self, values: tuple[int, ...]) -> int:
        """Lexicographic rank: sum over i of #{j > i : v(j) < v(i)} (n - i)!."""
        rest = list(range(1, self.n + 1))
        index = 0
        if len(values) == self.n:
            for x in values:
                if x not in rest:
                    break
                k = rest.index(x)
                index = index * len(rest) + k
                del rest[k]
        if rest:
            raise ValueError(f"not a permutation of 1..{self.n}: {values!r}")
        return index

    def perm(self, idx: int) -> Permutation:
        """The permutation of lexicographic rank ``idx``: the inverse of ``index_of``."""
        if not 0 <= idx < self.order:
            raise IndexError(f"no permutation of rank {idx} in S_{self.n}")
        rest = list(range(1, self.n + 1))
        values = []
        for k in range(self.n - 1, -1, -1):
            digit, idx = divmod(idx, factorial(k))
            values.append(rest.pop(digit))
        return Permutation(tuple(values))

    def lower_mask(self, wi: int) -> int:
        """Bitset over all of S_n: bit v, counted from the top, is set iff v <= w in Bruhat order.

        >>> group = SymmetricGroup(3)
        >>> format(group.lower_mask(group.index_of((2, 3, 1))), "06b")
        '111100'
        """
        # After row p of w, seen[x - 1] = 1 iff x is among w(1), ..., w(p),
        # so accumulate(seen) runs through r_w(p, 1), r_w(p, 2), ...
        seen = [0] * self.n
        acc = (1 << self.order) - 1
        for x, row in zip(self.perm(wi).values, self._bitsets):
            seen[x - 1] = 1
            for bits, k in zip(row, accumulate(seen)):
                acc &= bits[k]
        return acc

    def _bytes(self, mask: int) -> bytes:
        """``mask`` as n! bytes, byte v 1 iff bit v is set."""
        return format(mask, f"0{self.order}b").encode().translate(_BIT_BYTES)

    def indices(self, mask: int) -> array:
        """The v whose bit is set in ``mask``, ascending."""
        return array("i", compress(range(self.order), self._bytes(mask)))

    def interval(self, wi: int) -> array:
        """Indices of {v : v <= w}, ascending.

        Nothing in the package calls it; the benchmark in ``perfbench/`` does.
        """
        return self.indices(self.lower_mask(wi))

    def coset_tops(self, mask: int, descents: int) -> array:
        """Indices of the v in ``mask`` that have every left descent in ``descents``, ascending.

        ``descents`` is a bitset, bit a - 1 for s_a.  With w's interval mask
        and w's own left descents D these are the tops of the left cosets
        W_D v below w: s.v <= w iff v <= w for each s in D, so each coset
        meets the interval whole or not at all.
        """
        # has_all is the bitset of the v with every descent in descents.
        bitsets, has_all = self._descent_bitsets, -1
        for a in range(self.n - 1):
            if descents >> a & 1:
                if bitsets[a] is None:
                    # has[x] is the digit "1" iff x has bit a.
                    has = bytes(48 + (x >> a & 1) for x in range(256))
                    bitsets[a] = int(self.descents.translate(has), 2)
                has_all &= bitsets[a]
        return self.indices(mask & has_all)

    def maximal(self, indices: Iterable[int]) -> list[int]:
        """The Bruhat-maximal v among ``indices``, ascending.

        Scanned by decreasing length: a v is maximal iff it is below no
        already-kept maximal point, that is, outside the union of their masks.
        """
        kept: list[int] = []
        covered, top = 0, self.order - 1
        for vi in sorted(indices, key=lambda vi: (-self.lengths[vi], vi)):
            if not covered >> top - vi & 1:
                kept.append(vi)
                covered |= self.lower_mask(vi)
        return sorted(kept)

    def tangent_counts(self, mask: int, cands: Sequence[int]) -> array:
        """For each candidate v: #{transpositions t : v.t <= w}.

        ``mask`` is ``lower_mask(wi)`` of w, which the caller already holds.
        v.t swaps two values a < b of v, so v.t = (a b).v, and
        (a b) = s_a s_{a+1} ... s_{b-1} ... s_{a+1} s_a.  The count walks
        each word along the columns of ``lmul``, all candidates one letter at
        a time: up through s_a, ..., s_{b-1}, a walk every b with the same a
        shares, then down through s_{b-2}, ..., s_a.  It reads the mask as
        bytes, built once per call.
        """
        cols, below = self.lmul, self._bytes(mask)
        counts = [0] * len(cands)
        for a in range(len(cols)):
            up = cands
            for b in range(a, len(cols)):
                up = down = list(map(cols[b].__getitem__, up))
                for c in range(b - 1, a - 1, -1):
                    down = list(map(cols[c].__getitem__, down))
                counts = list(map(add, counts, map(below.__getitem__, down)))
        return array("i", counts)


_groups: dict[int, SymmetricGroup] = {}
_groups_lock = threading.Lock()


def symmetric_group(n: int) -> SymmetricGroup:
    """Process-wide cache of :class:`SymmetricGroup` instances."""
    with _groups_lock:
        group = _groups.get(n)
        if group is None:
            group = SymmetricGroup(n)
            _groups[n] = group
        return group
