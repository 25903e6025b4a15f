"""Cached enumeration of a full symmetric group for sweep-style computations.

Interval enumeration is done by filtering all of S_n with the rank-table
domination test; no poset data structure and no rank table is kept.  For
every group we store, once per process:

* one bitset per interior cell (p, q) and threshold k: bit v is set iff
  r_v(p, q) >= k, with v in lexicographic order of one-line notation,
* the Coxeter lengths of all n! permutations,

and build on first use, for the callers that read them:

* the index of v.t for every permutation v and transposition t
  (``tprod``, read by ``tangent_counts``),
* the index of s_a.v for every v and simple reflection s_a (``lmul``), and
  the left descents of every v (``descents``), read by the KL recursion.

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
* v.t for t = (i, j) with i >= 1 moves only the tail: S_{n-1}'s column
  (i - 1, j - 1) plus the block offset a (n - 1)!.  t = (0, 1) swaps the
  first two values, which sends each run of (n - 2)! permutations sharing
  them to another run; (0, j) is (1, j).(0, 1).(1, j);
* s_a.v relabels the tail by s_a or s_{a-1} (S_{n-1}'s column plus the
  block offset), or, when v(1) is a or a + 1, moves v to the neighbouring
  block at the same offset;
* left descents: s_a.v < v iff a + 1 comes before a in v.  In block a,
  s_a is a descent and s_{a+1} is not; the tail's descent s_b is v's
  descent s_b for b < a and s_{b+1} for b > a.

No permutation is stored: ``index_of`` computes the lexicographic rank
from v itself, and ``perm`` unranks an index.

A lower-interval mask is the AND of the bitsets that w's own rank table
selects, one per cell.  It is not cached: each caller builds the mask it
needs and keeps it as long as it uses it.
"""

from __future__ import annotations

import sys
import threading
from array import array
from functools import cached_property, reduce
from itertools import accumulate, compress
from math import factorial
from typing import Sequence

from .perms import Permutation

__all__ = ["MAX_N", "SymmetricGroup", "symmetric_group"]

# S_9's bitsets take about 6 MB and its v.t table 52 MB; past that,
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


def _block_tprod(prev: array, n: int) -> array:
    """v.t indices of S_n from those of S_{n-1}, written one column at a time."""
    block = factorial(n - 1)
    ntrans, prev_ntrans = n * (n - 1) // 2, (n - 1) * (n - 2) // 2
    tprod = array("i", [0]) * (block * n * ntrans)
    # Transposition (i, j) with i >= 1 is column (i - 1, j - 1) of S_{n-1},
    # which sits n - 1 columns further on in S_n's (i, j)-ordered list.
    for t in range(prev_ntrans):
        prev_col = prev[t::prev_ntrans]
        col = array("i")
        col.frombytes(b"".join(_raised(prev_col, a * block) for a in range(n)))
        tprod[n - 1 + t :: ntrans] = col
    if n < 2:
        return tprod
    # (0, 1): first values x, y (0-based) -> y, x.  The other n - 2 values
    # keep their order, so the k-th run of (n - 2)! permutations goes whole
    # to the run starting at starts[k].
    run = block // (n - 1)
    starts = [
        y * block + (x - (x > y)) * run for x in range(n) for y in range(n) if y != x
    ]
    col = array("i")
    for start in starts:
        col.extend(range(start, start + run))
    tprod[0::ntrans] = col
    for j in range(2, n):
        # (0, j) = (1, j).(0, 1).(1, j); the first two factors only reorder
        # the runs of the (1, j) column.
        to_1j = tprod[n - 3 + j :: ntrans]
        then_01 = array("i")
        for start in starts:
            then_01 += to_1j[start : start + run]
        tprod[j - 1 :: ntrans] = array("i", map(then_01.__getitem__, to_1j))
    return tprod


def _block_lmul(prev: array, n: int) -> array:
    """s_a.v indices of S_n from those of S_{n-1}, written one column at a time."""
    block, stride, prev_stride = factorial(n - 1), n - 1, n - 2
    ident = array("i", range(block))
    lmul = array("i", [0]) * (block * n * stride)
    for a in range(1, n):
        pieces = []
        for b in range(n):
            # Block b holds the v with v(1) = b + 1.
            if b == a - 1:
                pieces.append(_raised(ident, (b + 1) * block))
            elif b == a:
                pieces.append(_raised(ident, (b - 1) * block))
            else:
                tail = a - 1 if b < a else a
                pieces.append(_raised(prev[tail - 1 :: prev_stride], b * block))
        col = array("i")
        col.frombytes(b"".join(pieces))
        lmul[a - 1 :: stride] = col
    return lmul


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
        # tprod's columns take the 0-based position pairs (i, j), i < j, in
        # lexicographic order.
        self.ntrans = n * (n - 1) // 2
        # Each array is built up from S_1's, one n at a time.
        self.lengths = array("B", reduce(_block_lengths, range(2, n + 1), b"\0"))
        self._bitsets = reduce(_block_bitsets, range(2, n + 1), ())

    @cached_property
    def tprod(self) -> array:
        """Right multiplication: ``tprod[v * ntrans + t]`` is the index of v.t.

        v.t swaps two positions of v in one-line notation.  Built on first
        use: only ``tangent_counts`` reads it.
        """
        return reduce(_block_tprod, range(2, self.n + 1), array("i"))

    @cached_property
    def lmul(self) -> array:
        """Left multiplication: ``lmul[v * (n - 1) + a - 1]`` is the index of s_a.v.

        s_a.v swaps the values a and a + 1 in one-line notation.  Built on
        first use: only the KL recursion needs it.
        """
        return reduce(_block_lmul, range(2, self.n + 1), array("i"))

    @cached_property
    def descents(self) -> bytes:
        """Left descents: bit a - 1 of ``descents[v]`` is set iff s_a.v < v.

        Built on first use: only the KL recursion needs them.
        """
        return reduce(_block_descents, range(2, self.n + 1), b"\0")

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

    def lower_mask(self, wi: int) -> bytes:
        """Byte mask over all of S_n: mask[v] = 1 iff v <= w in Bruhat order.

        >>> group = SymmetricGroup(3)
        >>> list(group.lower_mask(group.index_of((2, 3, 1))))
        [1, 1, 1, 1, 0, 0]
        """
        # After row p of w, seen[x - 1] = 1 iff x is among w(1), ..., w(p),
        # so accumulate(seen) runs through r_w(p, 1), r_w(p, 2), ...
        seen = [0] * self.n
        acc = (1 << self.order) - 1
        for x, row in zip(self.perm(wi).values, self._bitsets):
            seen[x - 1] = 1
            for bits, k in zip(row, accumulate(seen)):
                acc &= bits[k]
        return format(acc, f"0{self.order}b").encode().translate(_BIT_BYTES)

    def interval(self, wi: int) -> array:
        """Indices of {v : v <= w}, ascending.

        Nothing in the package calls it; the benchmark in ``perfbench/`` does.
        """
        mask = self.lower_mask(wi)
        return array("i", compress(range(len(mask)), mask))

    def tangent_counts(self, mask: bytes, cands: Sequence[int]) -> array:
        """For each candidate v: #{transpositions t : v.t <= w}.

        ``mask`` is ``lower_mask(wi)`` of w, which the caller already holds.
        """
        tprod, ntrans = self.tprod, self.ntrans
        return array(
            "i",
            (
                sum(map(mask.__getitem__, tprod[v * ntrans : (v + 1) * ntrans]))
                for v in cands
            ),
        )


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
