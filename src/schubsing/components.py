"""The three generic component families, and classification into them.

Every Bruhat-maximal singular point v of a Schubert variety X_w falls into
exactly one family, recognized here from three integers and one frame test:

* codimension d = length(w) - length(v),
* excess e = m(w, v) - length(w) (tangent count minus cell dimension),
* the support S = {i : v(i) != w(i)} of the moved positions.

``4231`` type: the first moved position carries the largest moved value of
w.  Then d = l + m + 1 and e = l.m for integers l, m >= 1, recovered as the
roots of x^2 - (d-1)x + e; the transversal slice is a cone of rank-one
(l+1) x (m+1) matrices.

``3412*`` type (a point of the frame sits inside the central square):
e = 1, d = 2l + 3; the slice is a quadric cone of dimension 2l + 3.

``3412empty`` type (empty central square): e = d - 2 with aggregate
l + m = d - 3; only the sum of the two side counts is determined by (d, e),
and the slice is a cone of rank-one 2 x (l+m+2) matrices.

The signature (d, e) = (3, 1) is claimed by both the smallest 4231 type and
the smallest 3412* type; the frame test decides, and nothing downstream can
tell the difference (a 2 x 2 rank-one cone is the same variety as a
3-dimensional quadric cone).  Any arithmetic that fails to come out exact
raises :class:`ClassificationError`; the slice builder cross-checks the
outcome structurally, so a wrong branch cannot survive the test sweeps.

Two routes give the components.  :func:`enumerate_components` takes the
Bruhat-maximal singular points from the tangent counts of the symmetric-group
kernel and classifies each as above; it is the oracle, and the sweeps use it.
:func:`components_from_patterns` builds them straight from w's pattern
configurations, in polynomial time and without the group (Billey-Warrington,
"Maximal singular loci of Schubert varieties in SL(n)/B", Trans. AMS 2003;
Manivel, "Le lieu singulier des varietes de Schubert", IMRN 2001;
Kassel-Lascoux-Reutenauer, "The singular locus of a Schubert variety",
J. Algebra 2003; Cortez, "Singularites generiques et quasi-resolutions des
varietes de Schubert pour le groupe lineaire", Adv. Math. 2003).  Write
inside(p0, p1, v0, v1) for the points (p, w(p)) with p0 < p < p1 and
v0 < w(p) < v1, in position order.  The maxima of a set of points are those
with no other point later and larger, the minima those with none earlier and
smaller; both form decreasing chains.

* 4231: for i < l with w(i) > w(l), cut R = inside(i, l, w(l), w(i)) in
  position order into a nonempty start L and end U with every value of L
  below every value of U.  The maxima S of L and the minima T of U are two
  decreasing chains; (l, m) are their sorted lengths.  v shifts values along
  them: i takes the value of S[0], each S[t] that of S[t+1] and the last
  one w(l); T[0] takes w(i), each T[t] the value of T[t-1], and l that of
  the last one.
* 3412: for i < j < k < l with w(k) < w(l) < w(i) < w(j), the regions
  inside(i, j, w(l), w(i)), inside(j, k, w(k), w(l)),
  inside(j, k, w(i), w(j)) and inside(k, l, w(l), w(i)) must be empty.  A
  nonempty centre inside(j, k, w(l), w(i)) must be a decreasing chain with
  both sides inside(i, j, w(k), w(l)) and inside(k, l, w(i), w(j)) empty:
  3412* with l the chain length, and v takes w(k), w(i), w(l), w(j) at
  i, j, k, l.  With an empty centre, S is the maxima of the left side and
  T the minima of the right side, l = |S| + |T|, and the type is 3412empty
  (3412* when l = 0).  v takes w(i) at j and w(l) at k, and shifts values
  as for 4231 along i -> S, ending in w(k), and along T -> l, starting
  from w(j).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import combinations, product
from math import isqrt
from random import Random
from typing import ClassVar, NamedTuple, Sequence

from .linalg import (
    Poly,
    matrix_rank,
    poly_add,
    poly_canonical,
    poly_mul,
    poly_scale,
    poly_var,
)
from .perms import Permutation, format_permutation, inverse, length
from .symgroup import symmetric_group
from .tangent import component_counts, tangent_dimension

__all__ = [
    "TYPE_4231",
    "TYPE_3412_STAR",
    "TYPE_3412_EMPTY",
    "ClassificationError",
    "Component",
    "QuadricComponent",
    "RectangleComponent",
    "SliceStructureError",
    "TwoBlockComponent",
    "classify_component",
    "components_from_patterns",
    "enumerate_components",
    "verify_formulas",
]

TYPE_4231 = "4231"
TYPE_3412_STAR = "3412*"
TYPE_3412_EMPTY = "3412empty"

Cell = tuple[int, int]
Point = tuple[int, ...]


class ClassificationError(RuntimeError):
    """A maximal singular point did not fit any of the three generic types."""


class SliceStructureError(RuntimeError):
    """The free coordinates do not form the frame the component type predicts."""


@dataclass(frozen=True)
class Component(ABC):
    """One component of the singular locus of X_w; each family is a subclass.

    ``l`` and ``m`` are the side counts of the generic cone.  For the two
    3412 types only one number is meaningful and ``m`` is None: the 3412*
    slice depends on l alone, and for 3412empty ``l`` stores the aggregate
    l + m (the individual split is not determined by the invariants).

    A family owns its closed Kazhdan-Lusztig form, its double equalities and
    its slice geometry.  The slice methods take the frame :meth:`fit_frame`
    returns and the free coordinates, to which a cone point's values align.
    """

    ctype: ClassVar[str]

    v: Permutation
    l: int
    m: int | None
    codim: int
    excess: int

    @abstractmethod
    def kl_closed_form(self) -> tuple[int, ...]:
        """The Kazhdan-Lusztig polynomial P(v, w) the family predicts."""

    @abstractmethod
    def formulas_hold(self, lw: int, lv: int, dim: int) -> bool:
        """Both closed expressions for m(w, v), from length(w) and length(v)."""

    @abstractmethod
    def fit_frame(self, free: list[Cell]) -> tuple:
        """The family's block structure on ``free``, or SliceStructureError."""

    @abstractmethod
    def closed_equations(self, frame: tuple, var_of: dict[Cell, int]) -> list[Poly]:
        """The closed model: homogeneous quadrics cutting out the cone."""

    @abstractmethod
    def cone_sample(self, frame: tuple, free: Sequence[Cell], rng: Random) -> Point:
        """One exact integer point of the cone."""

    @abstractmethod
    def dim_rank(self, frame: tuple, free: Sequence[Cell], rng: Random) -> tuple[str, int, int]:
        """The exact rank the ``dim`` check tests: (what is ranked, found, expected)."""

    def json_fields(self) -> dict:
        """The component's entry fields in ``singular-locus`` and sweep reports."""
        return {
            "v": format_permutation(self.v),
            "type": self.ctype,
            "l": self.l,
            "m": self.m,
            "codim": self.codim,
            "excess": self.excess,
        }


# The coordinate values every sampler draws from.
DIGITS = tuple(range(-9, 10))
NONZERO_DIGITS = tuple(x for x in DIGITS if x)


def draw_values(rng: Random, values: Sequence[int], count: int) -> list[int]:
    """``count`` draws from ``values``, each one what ``rng.choice(values)`` gives.

    CPython's ``choice`` takes k = len(values).bit_length() random bits and
    draws again while they index past the end; ``randint(a, b)`` does the
    same for ``range(a, b + 1)``.  Doing that here, without their per-call
    overhead, leaves every draw as it was.
    """
    bits = rng.getrandbits
    size = len(values)
    k = size.bit_length()
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= size:
            r = bits(k)
        out.append(values[r])
    return out


def _draw_vector(rng: Random, count: int) -> list[int]:
    while True:
        vec = draw_values(rng, DIGITS, count)
        if any(vec):
            return vec


def _draw_nonzero(rng: Random, count: int) -> list[int]:
    return draw_values(rng, NONZERO_DIGITS, count)


class _Grid(NamedTuple):
    # A rank-one matrix of free coordinates: on the cone x_cell =
    # sign.row_r.col_c for cells[r][c] = (sign, cell).  The columns are cut
    # into consecutive blocks, each drawn as its own vector.
    cells: list[list[tuple[int, Cell]]]
    blocks: list[range]


def _draw_factors(frame: _Grid, draw, rng: Random) -> tuple[list[int], list[int]]:
    """The row vector, then one column vector per block, drawn in that order."""
    rows = draw(rng, len(frame.cells))
    cols = [x for block in frame.blocks for x in draw(rng, len(block))]
    return rows, cols


class _RankOneComponent(Component):
    """A family whose slice is a cone of rank-one matrices, framed by a :class:`_Grid`."""

    def closed_equations(self, frame: _Grid, var_of: dict[Cell, int]) -> list[Poly]:
        # For each pair of rows: the column pairs inside each block, block
        # by block, then the pairs across blocks.
        col_pairs = [pair for block in frame.blocks for pair in combinations(block, 2)]
        col_pairs += [pair for b1, b2 in combinations(frame.blocks, 2) for pair in product(b1, b2)]

        def entry(signed: tuple[int, Cell]) -> Poly:
            # The rank-one matrix holds sign.x_cell at each cell.
            return poly_scale(poly_var(var_of[signed[1]]), signed[0])

        return [
            dict(poly_canonical(poly_add(
                poly_mul(entry(top[c1]), entry(bottom[c2])),
                poly_scale(poly_mul(entry(top[c2]), entry(bottom[c1])), -1),
            )))
            for top, bottom in combinations(frame.cells, 2)
            for c1, c2 in col_pairs
        ]

    def cone_sample(self, frame: _Grid, free: Sequence[Cell], rng: Random) -> Point:
        rows, cols = _draw_factors(frame, _draw_vector, rng)
        value = {
            cell: sign * rows[r] * cols[c]
            for r, line in enumerate(frame.cells)
            for c, (sign, cell) in enumerate(line)
        }
        return tuple(value[cell] for cell in free)

    def parametrization_rank(self, frame: _Grid, free: Sequence[Cell], rng: Random) -> int:
        """Exact Jacobian rank of (rows, cols) -> cone point at a generic point."""
        rows, cols = _draw_factors(frame, _draw_nonzero, rng)
        jac: dict[Cell, list[int]] = {}
        for r, line in enumerate(frame.cells):
            for c, (sign, cell) in enumerate(line):
                row = [0] * (len(rows) + len(cols))
                row[r] = sign * cols[c]
                row[len(rows) + c] = sign * rows[r]
                jac[cell] = row
        return matrix_rank([jac[cell] for cell in free])

    def dim_rank(self, frame: _Grid, free: Sequence[Cell], rng: Random) -> tuple[str, int, int]:
        return "parametrization", self.parametrization_rank(frame, free, rng), self.codim


class RectangleComponent(_RankOneComponent):
    """4231 type: the slice is the cone of rank-one (l+1) x (m+1) matrices."""

    ctype = TYPE_4231

    def kl_closed_form(self) -> tuple[int, ...]:
        assert self.m is not None
        return (1,) * (min(self.l, self.m) + 1)

    def formulas_hold(self, lw: int, lv: int, dim: int) -> bool:
        assert self.m is not None
        return (
            lw - lv == self.l + self.m + 1
            and dim == lw + self.l * self.m
            and dim == lv + (self.l + 1) * (self.m + 1)
        )

    def fit_frame(self, free: list[Cell]) -> _Grid:
        rows = sorted({j for j, _ in free})
        cols = sorted({k for _, k in free})
        assert self.m is not None
        if set(free) != {(j, k) for j in rows for k in cols}:
            raise SliceStructureError(
                f"4231 slice of {self.v.values}: free coordinates are not a full rectangle"
            )
        if sorted((len(rows), len(cols))) != sorted((self.l + 1, self.m + 1)):
            raise SliceStructureError(
                f"4231 slice of {self.v.values}: rectangle is {len(rows)} x {len(cols)}, "
                f"expected sides {self.l + 1} and {self.m + 1}"
            )
        return _Grid([[(1, (j, k)) for k in cols] for j in rows], [range(len(cols))])


class _Quadric(NamedTuple):
    # (a, b) cells whose products x_a.x_b sum to the quadric; the sampler
    # solves for the b cell of the first pair.
    pairs: list[tuple[Cell, Cell]]


class QuadricComponent(Component):
    """3412* type: the slice is a quadric cone of dimension 2l + 3."""

    ctype = TYPE_3412_STAR

    def kl_closed_form(self) -> tuple[int, ...]:
        return (1,) + (0,) * self.l + (1,)

    def formulas_hold(self, lw: int, lv: int, dim: int) -> bool:
        return (
            lw - lv == 2 * self.l + 3
            and dim == lw + 1
            and dim == lv + 2 * self.l + 4
        )

    def fit_frame(self, free: list[Cell]) -> _Quadric:
        v = self.v
        freeset = set(free)
        k_last = max(k for _, k in free)
        side_rows = sorted({j for j, k in free if k != k_last})
        if len(side_rows) != 1:
            raise SliceStructureError(
                f"3412* slice of {v.values}: expected one row off the final column, "
                f"got rows {side_rows}"
            )
        j0 = side_rows[0]
        if (j0, k_last) in freeset:
            raise SliceStructureError(
                f"3412* slice of {v.values}: corner ({j0}, {k_last}) must not be free"
            )
        if any(j != j0 and k != k_last for j, k in free):
            raise SliceStructureError(
                f"3412* slice of {v.values}: free coordinates leave the row-column frame"
            )
        vinv = inverse(v)
        pairs = [
            ((j0, k), (vinv(k), k_last))
            for j, k in free
            if j == j0 and (vinv(k), k_last) in freeset
        ]
        if not pairs:
            raise SliceStructureError(
                f"3412* slice of {v.values}: no paired coordinates for the quadric"
            )
        return _Quadric(pairs)

    def closed_equations(self, frame: _Quadric, var_of: dict[Cell, int]) -> list[Poly]:
        quad: Poly = {}
        for a_cell, b_cell in frame.pairs:
            quad = poly_add(
                quad, poly_mul(poly_var(var_of[a_cell]), poly_var(var_of[b_cell]))
            )
        return [quad]

    def cone_sample(self, frame: _Quadric, free: Sequence[Cell], rng: Random) -> Point:
        # The solved coordinate would be -rest / a0; the quadric is
        # homogeneous, so the point scaled by a0 is on the cone too, and
        # it is integral.
        pairs = frame.pairs
        solved = pairs[0][1]
        values = dict(zip(free, draw_values(rng, DIGITS, len(free))))
        while values[pairs[0][0]] == 0:
            values[pairs[0][0]] = draw_values(rng, DIGITS, 1)[0]
        a0 = values[pairs[0][0]]
        rest = sum(values[a] * values[b] for a, b in pairs[1:])
        values = {cell: a0 * x for cell, x in values.items()}
        values[solved] = -rest
        return tuple(values[cell] for cell in free)

    def dim_rank(self, frame: _Quadric, free: Sequence[Cell], rng: Random) -> tuple[str, int, int]:
        # The quadric is nondegenerate: its symmetric coefficient matrix has
        # full rank, so the cone is the quadric cone of dimension codim.
        index = {cell: i for i, cell in enumerate(free)}
        coeffs = [[0] * len(free) for _ in free]
        for a, b in frame.pairs:
            coeffs[index[a]][index[b]] = coeffs[index[b]][index[a]] = 1
        return "quadric", matrix_rank(coeffs), len(free)


class TwoBlockComponent(_RankOneComponent):
    """3412empty type: the slice is a cone of rank-one 2 x (l+m+2) matrices."""

    ctype = TYPE_3412_EMPTY

    def kl_closed_form(self) -> tuple[int, ...]:
        return (1, 1)

    def formulas_hold(self, lw: int, lv: int, dim: int) -> bool:
        agg = self.l
        return (
            lw - lv == agg + 3
            and dim == lw + agg + 1
            and dim == lv + 2 * (agg + 2)
        )

    def fit_frame(self, free: list[Cell]) -> _Grid:
        v = self.v
        row_cols: dict[int, set[int]] = {}
        for j, k in free:
            row_cols.setdefault(j, set()).add(k)
        colsets = {frozenset(cols) for cols in row_cols.values()}
        if len(colsets) != 2:
            raise SliceStructureError(
                f"3412empty slice of {v.values}: expected two row groups, "
                f"got {len(colsets)}"
            )
        groups = []
        for colset in sorted(colsets, key=sorted):
            rows = sorted(j for j, cols in row_cols.items() if cols == colset)
            groups.append((rows, sorted(colset)))

        def try_orientation(a_grp, b_grp) -> _Grid | None:
            rows_a, cols_a = a_grp
            rows_b, cols_b = b_grp
            if len(cols_a) != 2 or len(rows_b) != 2:
                return None
            if set(cols_a) & set(cols_b):
                return None
            if {v(r) for r in rows_b} != set(cols_a):
                return None
            if (len(rows_a) - 1) + (len(cols_b) - 1) != self.l:
                return None
            # A 2-row grid: column i of block A holds cells (i, v(r1)) and
            # (i, v(r2)); column k of block B holds -(r2, k) and (r1, k).
            r1, r2 = rows_b
            cells = [
                [(1, (i, v(r1))) for i in rows_a] + [(-1, (r2, k)) for k in cols_b],
                [(1, (i, v(r2))) for i in rows_a] + [(1, (r1, k)) for k in cols_b],
            ]
            split = len(rows_a)
            return _Grid(cells, [range(split), range(split, split + len(cols_b))])

        frame = try_orientation(groups[0], groups[1]) or try_orientation(
            groups[1], groups[0]
        )
        if frame is None:
            raise SliceStructureError(
                f"3412empty slice of {v.values}: free coordinates do not form "
                f"rank-one blocks matched by v"
            )
        return frame


def classify_component(v: Permutation, w: Permutation) -> Component:
    """Classify a Bruhat-maximal singular point v of X_w.

    The caller is expected to pass a component (an element of
    :func:`schubsing.tangent.singular_components`); anything else either
    raises :class:`ClassificationError` or fails the downstream structural
    checks.  The tangent count m(w, v) is read from the interval kernel of
    :mod:`schubsing.symgroup`, so like ``singular_components`` this needs
    n <= ``MAX_N``.
    """
    group = symmetric_group(w.n)
    mask = group.lower_mask(group.index_of(w.values))
    vi = group.index_of(v.values)
    if not mask[vi]:
        raise ValueError(f"{v.values} is not Bruhat-below {w.values}")
    return _classify(v, w, group.tangent_counts(mask, (vi,))[0])


def _classify(v: Permutation, w: Permutation, dim: int) -> Component:
    """Classify v <= w from its tangent count ``dim`` = m(w, v)."""
    lw = length(w)
    d = lw - length(v)
    e = dim - lw
    if e <= 0:
        raise ClassificationError(
            f"v={v.values} is a smooth point of X_{{{w.values}}} (excess {e})"
        )
    moved = [i for i in range(1, w.n + 1) if v(i) != w(i)]
    if not moved:
        raise ClassificationError("v equals w; nothing to classify")

    if w(moved[0]) == max(w(i) for i in moved):
        # 4231 frame: l, m are the roots of x^2 - (d-1)x + e.
        disc = (d - 1) * (d - 1) - 4 * e
        root = isqrt(disc) if disc >= 0 else -1
        if root < 0 or root * root != disc or (d - 1 - root) % 2:
            raise ClassificationError(
                f"4231 frame with non-integral side counts: d={d}, e={e}"
            )
        l = (d - 1 - root) // 2
        m = (d - 1 + root) // 2
        if l < 1:
            raise ClassificationError(
                f"4231 frame needs side counts >= 1, got l={l}, m={m}"
            )
        return RectangleComponent(v=v, l=l, m=m, codim=d, excess=e)
    if e == 1:
        if d < 3 or (d - 3) % 2:
            raise ClassificationError(f"3412* frame with bad codimension d={d}")
        return QuadricComponent(v=v, l=(d - 3) // 2, m=None, codim=d, excess=e)
    if e != d - 2:
        raise ClassificationError(
            f"3412empty frame needs e = d - 2, got d={d}, e={e}"
        )
    # l stores the aggregate l + m.
    return TwoBlockComponent(v=v, l=d - 3, m=None, codim=d, excess=e)


def enumerate_components(w: Permutation) -> list[Component]:
    """All classified components of Sing(X_w), sorted by one-line notation of v."""
    return [_classify(v, w, dim) for v, dim in component_counts(w)]


_Dot = tuple[int, int]  # a point (position, value) of w's permutation matrix


def _maxima(dots: list[_Dot]) -> list[_Dot]:
    """The dots with no other dot to their NE (later and larger), in position order."""
    out: list[_Dot] = []
    for dot in reversed(dots):
        if not out or dot[1] > out[-1][1]:
            out.append(dot)
    return out[::-1]


def _minima(dots: list[_Dot]) -> list[_Dot]:
    """The dots with no other dot to their SW (earlier and smaller), in position order."""
    out: list[_Dot] = []
    for dot in dots:
        if not out or dot[1] < out[-1][1]:
            out.append(dot)
    return out


def components_from_patterns(w: Permutation) -> list[Component]:
    """All components of Sing(X_w), read off w's 4231 and 3412 configurations.

    The same list as :func:`enumerate_components`, without the symmetric
    group: no interval, no tangent count, polynomial in n.  Each family's
    double equalities are checked against the lengths of w and v, and a
    failure raises :class:`ClassificationError`.
    """
    vals = w.values
    n = w.n
    lw = length(w)
    out: list[Component] = []

    def inside(p0: int, p1: int, v0: int, v1: int) -> list[_Dot]:
        return [(p, vals[p - 1]) for p in range(p0 + 1, p1) if v0 < vals[p - 1] < v1]

    def emit(family: type[Component], side_l: int, side_m: int | None, excess: int,
             targets: list[int], images: list[int]) -> None:
        # Position targets[t] of v carries images[t]; v agrees with w elsewhere.
        v_vals = list(vals)
        for p, x in zip(targets, images):
            v_vals[p - 1] = x
        v = Permutation(tuple(v_vals))
        lv = length(v)
        c = family(v=v, l=side_l, m=side_m, codim=lw - lv, excess=excess)
        if not c.formulas_hold(lw, lv, lw + excess):
            raise ClassificationError(
                f"{family.ctype} configuration of {vals} gives v={v.values} "
                f"with codimension {lw - lv}, against l={side_l}, m={side_m}"
            )
        out.append(c)

    # 4231: w(i) > w(l), and the dots between them split into a lower-left
    # block L and an upper-right block U.  The maxima of L and the minima of
    # U are the two chains; v shifts the values along each of them.
    for i in range(1, n):
        a = vals[i - 1]
        for l in range(i + 1, n + 1):
            d = vals[l - 1]
            if d > a:
                continue
            region = inside(i, l, d, a)
            lower_max = 0
            upper_min = [n + 1] * (len(region) + 1)
            for s in range(len(region) - 1, 0, -1):
                upper_min[s] = min(upper_min[s + 1], region[s][1])
            for s in range(1, len(region)):
                lower_max = max(lower_max, region[s - 1][1])
                if lower_max > upper_min[s]:
                    continue
                chain_s, chain_t = _maxima(region[:s]), _minima(region[s:])
                side_l, side_m = sorted((len(chain_s), len(chain_t)))
                emit(
                    RectangleComponent, side_l, side_m, side_l * side_m,
                    [i] + [p for p, _ in chain_s] + [p for p, _ in chain_t] + [l],
                    [x for _, x in chain_s] + [d, a] + [x for _, x in chain_t],
                )

    # 3412: (a, b, c, d) = (w(i), w(j), w(k), w(l)) with c < d < a < b.
    for j in range(2, n - 1):
        b = vals[j - 1]
        for k in range(j + 1, n):
            c = vals[k - 1]
            if c > b:
                continue
            for i in range(1, j):
                a = vals[i - 1]
                if not c < a < b:
                    continue
                for l in range(k + 1, n + 1):
                    d = vals[l - 1]
                    if not c < d < a:
                        continue
                    if (inside(i, j, d, a) or inside(j, k, c, d)
                            or inside(j, k, a, b) or inside(k, l, d, a)):
                        continue
                    left, right = inside(i, j, c, d), inside(k, l, a, b)
                    centre = inside(j, k, d, a)
                    if centre:
                        # 3412*: a decreasing chain in the central square.
                        if left or right or any(
                            x < y for (_, x), (_, y) in zip(centre, centre[1:])
                        ):
                            continue
                        chain_s, chain_t = [], []
                        family: type[Component] = QuadricComponent
                        side_l, excess = len(centre), 1
                    else:
                        # Empty centre: the maxima of the left side and the
                        # minima of the right side are the two chains.
                        chain_s, chain_t = _maxima(left), _minima(right)
                        side_l = len(chain_s) + len(chain_t)
                        family, excess = (
                            (TwoBlockComponent, side_l + 1) if side_l else (QuadricComponent, 1)
                        )
                    emit(
                        family, side_l, None, excess,
                        [i] + [p for p, _ in chain_s] + [j, k]
                        + [p for p, _ in chain_t] + [l],
                        [x for _, x in chain_s] + [c, a, d, b]
                        + [x for _, x in chain_t],
                    )
    out.sort(key=lambda comp: comp.v.values)
    return out


def verify_formulas(c: Component, w: Permutation) -> bool:
    """Check the family's double equalities against the slow tangent count.

    The family was fitted from the kernel's count; here m(w, v) comes from
    the oracle :func:`schubsing.tangent.tangent_dimension`.
    """
    return c.formulas_hold(length(w), length(c.v), tangent_dimension(c.v, w).dim)
