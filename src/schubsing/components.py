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
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from random import Random
from typing import ClassVar, NamedTuple, Sequence

from .linalg import Poly, matrix_rank, poly_add, poly_mul, poly_scale, poly_var
from .perms import Permutation, format_permutation, inverse, length
from .symgroup import symmetric_group
from .tangent import singular_components, tangent_dimension

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
    def parametrization_rank(self, frame: tuple, free: Sequence[Cell], rng: Random) -> int:
        """Exact Jacobian rank of the cone's parametrization at a generic point."""

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


def _draw_vector(rng: Random, count: int) -> list[int]:
    while True:
        vec = [rng.randint(-9, 9) for _ in range(count)]
        if any(vec):
            return vec


def _draw_nonzero(rng: Random, count: int) -> list[int]:
    return [rng.choice((-9, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9)) for _ in range(count)]


def _minor(var_of: dict[Cell, int], a: Cell, b: Cell, a2: Cell, b2: Cell, sign: int = -1) -> Poly:
    """x_a.x_b + sign.x_a2.x_b2 in the free coordinates: a 2 x 2 minor by default."""
    lead = poly_mul(poly_var(var_of[a]), poly_var(var_of[b]))
    anti = poly_mul(poly_var(var_of[a2]), poly_var(var_of[b2]))
    return poly_add(lead, poly_scale(anti, sign))


Param = tuple[str, int]
BilinearMap = tuple[list[list[Param]], list[tuple[int, Param, Param]]]


class _BilinearComponent(Component):
    """A family whose cone is a bilinear image: each coordinate is sign.p_a.p_b."""

    @abstractmethod
    def bilinear_map(self, frame: tuple, free: Sequence[Cell]) -> BilinearMap:
        """The parameter groups, and (sign, a, b) for each free coordinate."""

    def cone_sample(self, frame: tuple, free: Sequence[Cell], rng: Random) -> Point:
        # Each parameter group is drawn as one nonzero vector.
        groups, products = self.bilinear_map(frame, free)
        value: dict[Param, int] = {}
        for group in groups:
            value.update(zip(group, _draw_vector(rng, len(group))))
        return tuple(sign * value[a] * value[b] for sign, a, b in products)

    def parametrization_rank(self, frame: tuple, free: Sequence[Cell], rng: Random) -> int:
        groups, products = self.bilinear_map(frame, free)
        value: dict[Param, int] = {}
        for group in groups:
            value.update(zip(group, _draw_nonzero(rng, len(group))))
        col_of = {p: i for i, p in enumerate(value)}
        jac = []
        for sign, a, b in products:
            row = [0] * len(col_of)
            row[col_of[a]] = sign * value[b]
            row[col_of[b]] = sign * value[a]
            jac.append(row)
        return matrix_rank(jac)


class _Rectangle(NamedTuple):
    rows: list[int]
    cols: list[int]


class RectangleComponent(_BilinearComponent):
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

    def fit_frame(self, free: list[Cell]) -> _Rectangle:
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
        return _Rectangle(rows, cols)

    def closed_equations(self, frame: _Rectangle, var_of: dict[Cell, int]) -> list[Poly]:
        return [
            _minor(var_of, (j1, k1), (j2, k2), (j1, k2), (j2, k1))
            for j1, j2 in combinations(frame.rows, 2)
            for k1, k2 in combinations(frame.cols, 2)
        ]

    def bilinear_map(self, frame: _Rectangle, free: Sequence[Cell]) -> BilinearMap:
        rows, cols = frame
        groups = [[("u", j) for j in rows], [("x", k) for k in cols]]
        return groups, [(1, ("u", j), ("x", k)) for j, k in free]


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
        values = {cell: rng.randint(-9, 9) for cell in free}
        while values[pairs[0][0]] == 0:
            values[pairs[0][0]] = rng.randint(-9, 9)
        a0 = values[pairs[0][0]]
        rest = sum(values[a] * values[b] for a, b in pairs[1:])
        values = {cell: a0 * x for cell, x in values.items()}
        values[solved] = -rest
        return tuple(values[cell] for cell in free)

    def parametrization_rank(self, frame: _Quadric, free: Sequence[Cell], rng: Random) -> int:
        pairs = frame.pairs
        solved = pairs[0][1]
        params = [cell for cell in free if cell != solved]
        col_of = {cell: i for i, cell in enumerate(params)}
        point = dict(zip(params, _draw_nonzero(rng, len(params))))
        a0 = point[pairs[0][0]]
        jac = []
        for cell in free:
            row = [0] * len(params)
            if cell != solved:
                row[col_of[cell]] = 1
            else:
                # The gradient of -rest / a0, times a0^2 (a nonzero row
                # scale, so the rank is unchanged).
                row[col_of[pairs[0][0]]] = sum(point[a] * point[b] for a, b in pairs[1:])
                for a, b in pairs[1:]:
                    row[col_of[a]] = -point[b] * a0
                    row[col_of[b]] = -point[a] * a0
            jac.append(row)
        return matrix_rank(jac)


class _TwoBlocks(NamedTuple):
    # Block A: rows_a x cols_a (two columns); block B: rows_b (two rows) x
    # cols_b; v sends rows_b[i] to pair_cols[i], a column of block A.
    rows_a: list[int]
    cols_a: list[int]
    rows_b: list[int]
    cols_b: list[int]
    pair_cols: list[int]


class TwoBlockComponent(_BilinearComponent):
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

    def fit_frame(self, free: list[Cell]) -> _TwoBlocks:
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

        def try_orientation(a_grp, b_grp) -> _TwoBlocks | None:
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
            r1, r2 = rows_b
            return _TwoBlocks(rows_a, cols_a, [r1, r2], cols_b, [v(r1), v(r2)])

        frame = try_orientation(groups[0], groups[1]) or try_orientation(
            groups[1], groups[0]
        )
        if frame is None:
            raise SliceStructureError(
                f"3412empty slice of {v.values}: free coordinates do not form "
                f"rank-one blocks matched by v"
            )
        return frame

    def closed_equations(self, frame: _TwoBlocks, var_of: dict[Cell, int]) -> list[Poly]:
        rows_a, cols_a, rows_b, cols_b, (c1, c2) = frame
        r1, r2 = rows_b
        closed: list[Poly] = []
        for i1, i2 in combinations(rows_a, 2):
            closed.append(_minor(var_of, (i1, cols_a[0]), (i2, cols_a[1]), (i1, cols_a[1]), (i2, cols_a[0])))
        for k1, k2 in combinations(cols_b, 2):
            closed.append(_minor(var_of, (r1, k1), (r2, k2), (r1, k2), (r2, k1)))
        for i in rows_a:
            for k in cols_b:
                closed.append(_minor(var_of, (i, c1), (r1, k), (i, c2), (r2, k), sign=1))
        return closed

    def bilinear_map(self, frame: _TwoBlocks, free: Sequence[Cell]) -> BilinearMap:
        rows_a, _, (r1, r2), cols_b, (c1, c2) = frame
        groups = [[("s", 1), ("s", 2)], [("u", i) for i in rows_a], [("x", k) for k in cols_b]]
        product = {}
        for i in rows_a:
            product[(i, c1)] = (1, ("s", 1), ("u", i))
            product[(i, c2)] = (1, ("s", 2), ("u", i))
        for k in cols_b:
            product[(r1, k)] = (1, ("s", 2), ("x", k))
            product[(r2, k)] = (-1, ("s", 1), ("x", k))
        return groups, [product[cell] for cell in free]


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
    wi = group.index_of(w.values)
    vi = group.index_of(v.values)
    if not group.lower_mask(wi)[vi]:
        raise ValueError(f"{v.values} is not Bruhat-below {w.values}")
    lw = length(w)
    d = lw - length(v)
    e = group.tangent_counts(wi, (vi,))[0] - lw
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
    vs = sorted(singular_components(w), key=lambda u: u.values)
    return [classify_component(v, w) for v in vs]


def verify_formulas(c: Component, w: Permutation) -> bool:
    """Check the family's double equalities against the slow tangent count.

    The family was fitted from the kernel's count; here m(w, v) comes from
    the oracle :func:`schubsing.tangent.tangent_dimension`.
    """
    return c.formulas_hold(length(w), length(c.v), tangent_dimension(c.v, w).dim)
