"""The three generic component families, and the components of a w.

Each component of the singular locus of X_w is one Bruhat-maximal singular
point v, and falls into exactly one family.  A family is fixed by its side
counts l and m, which give the codimension d = length(w) - length(v) and the
excess e = m(w, v) - length(w) (tangent count minus cell dimension):

``4231`` type: d = l + m + 1 and e = l.m with l, m >= 1; the transversal
slice is a cone of rank-one (l+1) x (m+1) matrices.

``3412*`` type (a chain of points inside the central square): d = 2l + 3 and
e = 1; the slice is a quadric cone of dimension 2l + 3.

``3412empty`` type (empty central square): d = l + m + 3 and e = l + m + 1;
the slice is a cone of rank-one 2 x (l+m+2) matrices.

The three families share two cones, each a type over a slice's free
coordinates indexed by position: a :class:`_Grid` of rank-one matrices and
a :class:`_Quadric`.  A family keeps only its (l, m) arithmetic and
:meth:`Component.fit_cone`, which fits its cone to the free coordinates;
the cone owns the closed equations, the sampler and the ``dim`` check.

One route builds the components: :func:`components_from_patterns` reads
each one, family and sides, straight off w's pattern configurations, in
polynomial time and without the group (Billey-Warrington,
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
  T the minima of the right side, (l, m) = (|S|, |T|), and the type is
  3412empty (3412* with l = 0 when both are empty).  v takes w(i) at j and
  w(l) at k, and shifts values as for 4231 along i -> S, ending in w(k),
  and along T -> l, starting from w(j).

:func:`enumerate_components`, which the sweeps use, checks that list by brute
force against the Bruhat-maximal singular points and their tangent counts
from the symmetric-group kernel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import combinations, product, zip_longest
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
from .perms import Permutation, bruhat_leq, format_permutation, inverse, length
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
    """The free coordinates do not form the cone the component's family predicts."""


@dataclass(frozen=True)
class Component(ABC):
    """One component of the singular locus of X_w; each family is a subclass.

    ``l`` and ``m`` are the side counts of the generic cone.  For 3412*
    ``m`` is None: its slice depends on l alone.

    A family owns its codimension and excess as functions of (l, m) and its
    closed Kazhdan-Lusztig form.  :meth:`fit_cone` fits the family's cone to
    a slice's free coordinates; the cone owns the equations, the sampler
    and the ``dim`` check.
    """

    ctype: ClassVar[str]

    v: Permutation
    l: int
    m: int | None

    @property
    @abstractmethod
    def codim(self) -> int:
        """length(w) - length(v), from the side counts."""

    @property
    @abstractmethod
    def excess(self) -> int:
        """m(w, v) - length(w), from the side counts."""

    @abstractmethod
    def kl_closed_form(self) -> tuple[int, ...]:
        """The Kazhdan-Lusztig polynomial P(v, w) the family predicts."""

    @abstractmethod
    def fit_cone(self, free: Sequence[Cell]) -> Cone:
        """The family's cone over ``free``, indexed by position, or SliceStructureError."""

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
    """A cone of rank-one matrices of dimension ``dim`` (4231, 3412empty).

    On the cone x_i = sign.row_r.col_c for cells[r][c] = (sign, i), where i
    indexes the free coordinates; every index appears once.  The columns
    are cut into consecutive blocks, each drawn as its own vector.
    """

    cells: list[list[tuple[int, int]]]
    blocks: list[range]
    dim: int

    def equations(self) -> list[Poly]:
        """The 2 x 2 minors cutting out the cone, each once."""
        # For each pair of rows: the column pairs inside each block, block
        # by block, then the pairs across blocks.
        col_pairs = [pair for block in self.blocks for pair in combinations(block, 2)]
        col_pairs += [pair for b1, b2 in combinations(self.blocks, 2) for pair in product(b1, b2)]

        def entry(signed: tuple[int, int]) -> Poly:
            # The rank-one matrix holds sign.x_i at each cell.
            return poly_scale(poly_var(signed[1]), signed[0])

        return [
            dict(poly_canonical(poly_add(
                poly_mul(entry(top[c1]), entry(bottom[c2])),
                poly_scale(poly_mul(entry(top[c2]), entry(bottom[c1])), -1),
            )))
            for top, bottom in combinations(self.cells, 2)
            for c1, c2 in col_pairs
        ]

    def _draw_factors(self, draw, rng: Random) -> tuple[list[int], list[int]]:
        """The row vector, then one column vector per block, drawn in that order."""
        rows = draw(rng, len(self.cells))
        cols = [x for block in self.blocks for x in draw(rng, len(block))]
        return rows, cols

    def sample(self, rng: Random) -> Point:
        """One exact integer point of the cone."""
        rows, cols = self._draw_factors(_draw_vector, rng)
        point = [0] * sum(map(len, self.cells))
        for r, line in enumerate(self.cells):
            for c, (sign, i) in enumerate(line):
                point[i] = sign * rows[r] * cols[c]
        return tuple(point)

    def dim_rank(self, rng: Random) -> tuple[str, int, int]:
        """``("parametrization", rank, dim)``, the rank exact at a generic point.

        It is the Jacobian rank of (rows, cols) -> cone point, which is the
        cone's dimension.
        """
        rows, cols = self._draw_factors(_draw_nonzero, rng)
        jac: list[list[int]] = [[]] * sum(map(len, self.cells))
        for r, line in enumerate(self.cells):
            for c, (sign, i) in enumerate(line):
                row = [0] * (len(rows) + len(cols))
                row[r] = sign * cols[c]
                row[len(rows) + c] = sign * rows[r]
                jac[i] = row
        return "parametrization", matrix_rank(jac), self.dim


class _Quadric(NamedTuple):
    """One quadric cone (3412*) over ``size`` free coordinates.

    The quadric is the sum of x_a.x_b over the index ``pairs`` (a, b); the
    sampler solves for the b of the first pair.
    """

    pairs: list[tuple[int, int]]
    size: int

    def equations(self) -> list[Poly]:
        """The one quadric cutting out the cone."""
        quad: Poly = {}
        for a, b in self.pairs:
            quad = poly_add(quad, poly_mul(poly_var(a), poly_var(b)))
        return [quad]

    def sample(self, rng: Random) -> Point:
        """One exact integer point of the cone."""
        # The solved coordinate would be -rest / a0; the quadric is
        # homogeneous, so the point scaled by a0 is on the cone too, and
        # it is integral.
        a, solved = self.pairs[0]
        values = draw_values(rng, DIGITS, self.size)
        while values[a] == 0:
            values[a] = draw_values(rng, DIGITS, 1)[0]
        rest = sum(values[i] * values[j] for i, j in self.pairs[1:])
        point = [values[a] * x for x in values]
        point[solved] = -rest
        return tuple(point)

    def dim_rank(self, rng: Random) -> tuple[str, int, int]:
        """``("quadric", rank, size)``, the rank of the coefficient matrix."""
        # The quadric is nondegenerate: its symmetric coefficient matrix has
        # full rank, so the cone is the quadric cone of dimension size.
        coeffs = [[0] * self.size for _ in range(self.size)]
        for a, b in self.pairs:
            coeffs[a][b] = coeffs[b][a] = 1
        return "quadric", matrix_rank(coeffs), self.size


# The slice of every component is one of the two cones.
Cone = _Grid | _Quadric


class RectangleComponent(Component):
    """4231 type: the slice is the cone of rank-one (l+1) x (m+1) matrices."""

    ctype = TYPE_4231
    m: int  # both side counts are set for this family

    @property
    def codim(self) -> int:
        return self.l + self.m + 1

    @property
    def excess(self) -> int:
        return self.l * self.m

    def kl_closed_form(self) -> tuple[int, ...]:
        return (1,) * (min(self.l, self.m) + 1)

    def fit_cone(self, free: Sequence[Cell]) -> _Grid:
        rows = sorted({j for j, _ in free})
        cols = sorted({k for _, k in free})
        if set(free) != {(j, k) for j in rows for k in cols}:
            raise SliceStructureError(
                f"4231 slice of {self.v.values}: free coordinates are not a full rectangle"
            )
        if sorted((len(rows), len(cols))) != sorted((self.l + 1, self.m + 1)):
            raise SliceStructureError(
                f"4231 slice of {self.v.values}: rectangle is {len(rows)} x {len(cols)}, "
                f"expected sides {self.l + 1} and {self.m + 1}"
            )
        at = {cell: i for i, cell in enumerate(free)}
        cells = [[(1, at[j, k]) for k in cols] for j in rows]
        return _Grid(cells, [range(len(cols))], self.codim)


class QuadricComponent(Component):
    """3412* type: the slice is a quadric cone of dimension 2l + 3."""

    ctype = TYPE_3412_STAR

    @property
    def codim(self) -> int:
        return 2 * self.l + 3

    @property
    def excess(self) -> int:
        return 1

    def kl_closed_form(self) -> tuple[int, ...]:
        return (1,) + (0,) * self.l + (1,)

    def fit_cone(self, free: Sequence[Cell]) -> _Quadric:
        v = self.v
        at = {cell: i for i, cell in enumerate(free)}
        k_last = max(k for _, k in free)
        side_rows = sorted({j for j, k in free if k != k_last})
        if len(side_rows) != 1:
            raise SliceStructureError(
                f"3412* slice of {v.values}: expected one row off the final column, "
                f"got rows {side_rows}"
            )
        j0 = side_rows[0]
        if (j0, k_last) in at:
            raise SliceStructureError(
                f"3412* slice of {v.values}: corner ({j0}, {k_last}) must not be free"
            )
        if any(j != j0 and k != k_last for j, k in free):
            raise SliceStructureError(
                f"3412* slice of {v.values}: free coordinates leave the row-column frame"
            )
        vinv = inverse(v)
        pairs = [
            (i, at[vinv(k), k_last])
            for i, (j, k) in enumerate(free)
            if j == j0 and (vinv(k), k_last) in at
        ]
        if not pairs:
            raise SliceStructureError(
                f"3412* slice of {v.values}: no paired coordinates for the quadric"
            )
        return _Quadric(pairs, len(free))


class TwoBlockComponent(Component):
    """3412empty type: the slice is a cone of rank-one 2 x (l+m+2) matrices.

    Its columns form two blocks, of l + 1 and m + 1 columns.
    """

    ctype = TYPE_3412_EMPTY
    m: int  # both side counts are set for this family

    @property
    def codim(self) -> int:
        return self.l + self.m + 3

    @property
    def excess(self) -> int:
        return self.l + self.m + 1

    def kl_closed_form(self) -> tuple[int, ...]:
        return (1, 1)

    def fit_cone(self, free: Sequence[Cell]) -> _Grid:
        v = self.v
        at = {cell: i for i, cell in enumerate(free)}
        row_cols: dict[int, set[int]] = {}
        for j, k in free:
            row_cols.setdefault(j, set()).add(k)
        colsets = {frozenset(cols) for cols in row_cols.values()}
        if len(colsets) != 2:
            raise SliceStructureError(
                f"3412empty slice of {v.values}: expected two row groups, "
                f"got {len(colsets)}"
            )
        # Block A is l + 1 rows, each free in the columns v(r1), v(r2) of the
        # two rows r1 < r2 of block B, which are free in m + 1 other columns.
        # A is the group whose columns sort first; the other way round raises.
        (rows_a, cols_a), (rows_b, cols_b) = (
            (sorted(j for j, cols in row_cols.items() if cols == colset), sorted(colset))
            for colset in sorted(colsets, key=sorted)
        )
        if (
            len(cols_a) != 2
            or len(rows_b) != 2
            or set(cols_a) & set(cols_b)
            or {v(r) for r in rows_b} != set(cols_a)
            or (len(rows_a) - 1, len(cols_b) - 1) != (self.l, self.m)
        ):
            raise SliceStructureError(
                f"3412empty slice of {v.values}: free coordinates do not form "
                f"rank-one blocks matched by v"
            )
        # A 2-row grid: column i of block A holds cells (i, v(r1)) and
        # (i, v(r2)); column k of block B holds -(r2, k) and (r1, k).
        r1, r2 = rows_b
        cells = [
            [(1, at[i, v(r1)]) for i in rows_a] + [(-1, at[r2, k]) for k in cols_b],
            [(1, at[i, v(r2)]) for i in rows_a] + [(1, at[r1, k]) for k in cols_b],
        ]
        split = len(rows_a)
        return _Grid(cells, [range(split), range(split, split + len(cols_b))], self.codim)


def classify_component(v: Permutation, w: Permutation) -> Component:
    """The component of Sing(X_w) whose generic point is v.

    Raises ``ValueError`` unless v <= w, and :class:`ClassificationError`
    unless v is a component point (an element of
    :func:`schubsing.tangent.singular_components`).  It reads
    :func:`enumerate_components`, so it needs n <= ``MAX_N``.  The sweep
    calls ``enumerate_components`` itself; the tests and
    ``perfbench/traced.py`` use this one-point lookup, imported from this
    module.
    """
    if not bruhat_leq(v, w):
        raise ValueError(f"{v.values} is not Bruhat-below {w.values}")
    c = next((c for c in enumerate_components(w) if c.v == v), None)
    if c is None:
        raise ClassificationError(
            f"v={v.values} is not a component of the singular locus of X_{{{w.values}}}"
        )
    return c


def enumerate_components(w: Permutation) -> list[Component]:
    """The components of Sing(X_w), checked against the symmetric-group kernel.

    :func:`components_from_patterns` builds the list, sorted by one-line
    notation of v.  Its points and their tangent counts length(w) + excess
    must be those of :func:`schubsing.tangent.component_counts`, or this
    raises :class:`ClassificationError` at the first disagreement.

    >>> from .perms import make_permutation
    >>> [(c.v.values, c.ctype, c.l) for c in enumerate_components(make_permutation([4, 5, 3, 1, 2]))]
    [((1, 4, 3, 2, 5), '3412*', 1)]
    """
    comps = components_from_patterns(w)
    lw = length(w)
    found = [(c.v.values, lw + c.excess) for c in comps]
    counted = [(v.values, dim) for v, dim in component_counts(w)]
    if found != counted:
        mine, kernel = next(pair for pair in zip_longest(found, counted) if pair[0] != pair[1])
        raise ClassificationError(
            f"X_{{{w.values}}}: the patterns give (v, m(w, v)) = {mine}, "
            f"the tangent counts {kernel}"
        )
    return comps


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

    No symmetric group, no interval and no tangent count: polynomial in n.
    Each component's codimension is checked against the lengths of w and v,
    and a failure raises :class:`ClassificationError`.
    """
    vals = w.values
    n = w.n
    lw = length(w)
    out: list[Component] = []

    def inside(p0: int, p1: int, v0: int, v1: int) -> list[_Dot]:
        return [(p, vals[p - 1]) for p in range(p0 + 1, p1) if v0 < vals[p - 1] < v1]

    def emit(family: type[Component], side_l: int, side_m: int | None,
             targets: list[int], images: list[int]) -> None:
        # Position targets[t] of v carries images[t]; v agrees with w elsewhere.
        v_vals = list(vals)
        for p, x in zip(targets, images):
            v_vals[p - 1] = x
        v = Permutation(tuple(v_vals))
        lv = length(v)
        c = family(v=v, l=side_l, m=side_m)
        if lw - lv != c.codim:
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
                    RectangleComponent, side_l, side_m,
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
                        side_l, side_m = len(centre), None
                    else:
                        # Empty centre: the maxima of the left side and the
                        # minima of the right side are the two chains.
                        chain_s, chain_t = _maxima(left), _minima(right)
                        if chain_s or chain_t:
                            family, side_l, side_m = TwoBlockComponent, len(chain_s), len(chain_t)
                        else:
                            family, side_l, side_m = QuadricComponent, 0, None
                    emit(
                        family, side_l, side_m,
                        [i] + [p for p, _ in chain_s] + [j, k]
                        + [p for p, _ in chain_t] + [l],
                        [x for _, x in chain_s] + [c, a, d, b]
                        + [x for _, x in chain_t],
                    )
    out.sort(key=lambda comp: comp.v.values)
    return out


def verify_formulas(c: Component, w: Permutation) -> bool:
    """Check the family's codim and excess against the slow tangent count.

    :func:`enumerate_components` matched the excess to the kernel's count;
    here m(w, v) comes from the oracle :func:`schubsing.tangent.tangent_dimension`.
    """
    lw = length(w)
    return lw - length(c.v) == c.codim and tangent_dimension(c.v, w).dim - lw == c.excess
