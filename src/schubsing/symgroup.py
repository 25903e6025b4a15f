"""Cached enumeration of a full symmetric group for sweep-style computations.

Interval enumeration is done by filtering all of S_n with the rank-table
domination test; no poset data structure is kept.  For every group we store,
once per process:

* all n! permutations in lexicographic order of one-line notation,
* their flattened rank tables (one byte per entry),
* their Coxeter lengths,
* the index of v.t for every permutation v and transposition t,
* on first use, the index of s_a.v for every v and simple reflection s_a,
* one bitset per interior cell (p, q) and threshold k: bit v is set iff
  r_v(p, q) >= k.

A lower-interval mask is the AND of the bitsets that w's own rank table
selects, one per cell, and is cached with a bounded LRU.  All functions are
deterministic; the caches are guarded by locks so threaded callers only risk
duplicate work, never wrong answers.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from functools import cached_property
from itertools import permutations as _lex_permutations
from typing import Sequence

from .perms import Permutation

__all__ = ["MAX_N", "SymmetricGroup", "symmetric_group"]

# 9! tables already take ~36 MB; past that, filtering all of S_n per query is
# no longer a sane strategy.
MAX_N = 9

_MASK_CACHE_BYTES = 1 << 27

# Byte maps for the bitsets: _AT_LEAST[k] sends a rank byte b to "1" if
# b >= k, else "0"; _BIT_BYTES sends the digits of a binary string to 0/1.
_AT_LEAST = tuple(
    bytes(0x31 if b >= k else 0x30 for b in range(256)) for k in range(MAX_N + 1)
)
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class SymmetricGroup:
    """All of S_n plus the precomputed arrays the interval sweeps consume."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"n must be between 1 and {MAX_N}, got {n}")
        self.n = n
        self.perms: tuple[tuple[int, ...], ...] = tuple(
            _lex_permutations(range(1, n + 1))
        )
        self._index: dict[tuple[int, ...], int] = {
            p: i for i, p in enumerate(self.perms)
        }
        self.tlen = (n + 1) * (n + 1)
        self.tables = self._build_tables()
        self.lengths = array(
            "B",
            (
                sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])
                for p in self.perms
            ),
        )
        # Transpositions as 0-based position pairs, and the index of v.t
        # (swap the two positions in one-line notation) for every v, t.
        self.transpositions: tuple[tuple[int, int], ...] = tuple(
            (i, j) for i in range(n) for j in range(i + 1, n)
        )
        self.ntrans = len(self.transpositions)
        self.tprod = self._build_tprod()
        self._columns = self._build_columns()
        self._mask_cache: OrderedDict[int, bytes] = OrderedDict()
        self._mask_cache_size = max(64, _MASK_CACHE_BYTES // max(1, len(self.perms)))
        self._lock = threading.Lock()

    def _build_tables(self) -> bytes:
        n = self.n
        out = bytearray(len(self.perms) * self.tlen)
        pos = 0
        for p in self.perms:
            row = [0] * (n + 1)
            pos += n + 1  # zeroth row stays zero
            for i in range(n):
                wi = p[i]
                for q in range(wi, n + 1):
                    row[q] += 1
                out[pos : pos + n + 1] = bytes(row)
                pos += n + 1
        return bytes(out)

    def _build_tprod(self) -> array:
        index = self._index
        out = array("i", [0]) * (len(self.perms) * self.ntrans)
        pos = 0
        for p in self.perms:
            lp = list(p)
            for i, j in self.transpositions:
                lp[i], lp[j] = lp[j], lp[i]
                out[pos] = index[tuple(lp)]
                lp[i], lp[j] = lp[j], lp[i]
                pos += 1
        return out

    @cached_property
    def lmul(self) -> array:
        """Left multiplication: ``lmul[v * (n - 1) + a - 1]`` is the index of s_a.v.

        s_a.v swaps the values a and a + 1 in one-line notation, which is
        v.t for the transposition t of their two positions, so each entry is
        read off ``tprod``.  Built on first use: only the KL recursion needs it.
        """
        n, ntrans, tprod = self.n, self.ntrans, self.tprod
        column = {t: c for c, t in enumerate(self.transpositions)}
        out = array("i", [0]) * (len(self.perms) * (n - 1))
        pos = 0
        where = [0] * (n + 1)
        for vi, p in enumerate(self.perms):
            for i, x in enumerate(p):
                where[x] = i
            base = vi * ntrans
            for a in range(1, n):
                i, j = where[a], where[a + 1]
                out[pos] = tprod[base + column[(i, j) if i < j else (j, i)]]
                pos += 1
        return out

    def _build_columns(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per interior cell c = (p, q): (c, bits), bits[k] = {v : r_v(p, q) >= k}.

        Bit v is counted from the top: v = 0 is the most significant of the
        n! bits.  Every rank at (p, q) is at least max(0, p + q - n), so the
        thresholds up to that floor select all of S_n and get -1, the int
        with every bit set.
        """
        n, tlen = self.n, self.tlen
        columns = []
        for p in range(1, n):
            for q in range(1, n):
                c = p * (n + 1) + q
                col = self.tables[c::tlen]
                floor = max(0, p + q - n)
                bits = [-1] * (floor + 1)
                for k in range(floor + 1, min(p, q) + 1):
                    bits.append(int(col.translate(_AT_LEAST[k]), 2))
                columns.append((c, tuple(bits)))
        return tuple(columns)

    def index_of(self, values: tuple[int, ...]) -> int:
        try:
            return self._index[values]
        except KeyError:
            raise ValueError(f"not a permutation of 1..{self.n}: {values!r}") from None

    def perm(self, idx: int) -> Permutation:
        return Permutation(self.perms[idx])

    def lower_mask(self, wi: int) -> bytes:
        """Byte mask over all of S_n: mask[v] = 1 iff v <= w in Bruhat order."""
        with self._lock:
            cached = self._mask_cache.get(wi)
            if cached is not None:
                self._mask_cache.move_to_end(wi)
                return cached
        count = len(self.perms)
        tw = self.tables[wi * self.tlen : (wi + 1) * self.tlen]
        acc = (1 << count) - 1
        for c, bits in self._columns:
            acc &= bits[tw[c]]
        mask = format(acc, f"0{count}b").encode().translate(_BIT_BYTES)
        with self._lock:
            self._mask_cache[wi] = mask
            while len(self._mask_cache) > self._mask_cache_size:
                self._mask_cache.popitem(last=False)
        return mask

    def interval(self, wi: int) -> array:
        """Indices of {v : v <= w}, ascending."""
        mask = self.lower_mask(wi)
        return array("i", (i for i, b in enumerate(mask) if b))

    def tangent_counts(self, wi: int, cands: Sequence[int]) -> array:
        """For each candidate v: #{transpositions t : v.t <= w}."""
        mask = self.lower_mask(wi)
        tprod, ntrans = self.tprod, self.ntrans
        return array(
            "i",
            (
                sum(mask[i] for i in tprod[v * ntrans : (v + 1) * ntrans])
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
