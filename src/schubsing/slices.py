"""Transversal slices to Schubert cells and their equations, exactly.

For v <= w, the slice through the fixed point of v inside X_w is modelled in
the affine chart of matrices m with m[j, v(j)] = 1 and zeros left of and
below each such 1.  An off-diagonal entry (j, k) survives on the slice only
if the whole rectangle of cells [j, v_inv(k)) x [v(j), k) lies inside the
rank-excess region of the pair; these are the free coordinates.

Two independent equation models are built over the free coordinates:

* the determinantal model: for every binding rank condition (p, q) of X_w,
  all minors of size p - r_w(p, q) + 1 of rows 1..p against columns
  q+1..n, expanded only where the chart can make them nonzero;
* the closed model, the equations of the cone the component's family fits
  to the free coordinates (:meth:`schubsing.components.Component.fit_cone`):
  the 2 x 2 minors of a rank-one matrix of free coordinates (4231 and
  3412empty types), or one nondegenerate quadric (3412* type).  The cone
  also draws the sample points and gives the rank the ``dim`` check tests.

Sample points are integral (the quadric sampler scales its point to clear
the one denominator), and membership of a flag in X_w is decided by rank
conditions read off a fraction-free integer echelon form, so every check
below is exact: no floating point, and no rational arithmetic either.

X_w's binding rank conditions have one enumeration, :func:`_caps`.
Membership has one kernel, :func:`_member`, fed int rows and conditions row
by row; :func:`in_schubert` takes a flag as its n generator rows of ints
or fractions, scales them to ints and feeds them in with all of w's
conditions, and :func:`embed_point` gives a chart point's flag as such
rows.  A pair's facts live on one :class:`SliceModel`
(:func:`build_slice` for a component, :func:`pair_slice` otherwise), which
builds its chart on first read in one pass, :func:`_chart`: a template (v's
base rows, each cut after its last free column, and their free slots) and
the live conditions, those some chart point can break (v = w has none).
The minors, :func:`embed_point` and :func:`verify_slice` all read that one
chart.  The last tests every cone and off-cone point through a plan built
once per model from the chart (:func:`_plan`): a fixed chart row is a unit
row, so it lowers the caps it counts in and deletes its column, and only
the rows with free coordinates are reduced, with no flag of n rows and
no rank table per point.  :func:`_member` on all rows stays the
kernel of :func:`in_schubert` and the oracle the tests hold the plan to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, repeat
from numbers import Rational
from typing import Sequence

from .components import (
    DIGITS,
    Cell,
    Component,
    Cone,
    SliceStructureError,
    draw_values,
)
from .linalg import (
    Poly,
    integer_row,
    matrix_rank,
    poly_canonical,
    poly_eval,
    poly_is_homogeneous_quadratic,
    poly_to_string,
    poly_var,
    reduce_row,
    sym_det,
)
from .perms import (
    Permutation,
    bruhat_leq,
    format_permutation,
    inverse,
    rank_table,
)

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TRIALS",
    "SliceModel",
    "SliceStructureError",
    "SliceVerdict",
    "build_slice",
    "check_trials",
    "determinantal_model",
    "embed_point",
    "equation_strings",
    "free_coordinates",
    "in_schubert",
    "mv_support",
    "pair_slice",
    "sample_cone",
    "verify_slice",
]

DEFAULT_TRIALS = 50
DEFAULT_SEED = 101


def check_trials(trials: int) -> None:
    """Refuse ``trials < 1``, which would check no slice, with ``ValueError``."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


@dataclass(frozen=True)
class SliceModel:
    """Both equation models of one slice, over its free coordinates.

    ``free`` lists the matrix positions (j, k) carrying coordinates, in
    row-major order; equations and cone points index variables by position
    in that list.  ``component`` is the classified family and ``cone`` the
    cone it fitted to ``free``; both are None when no closed model exists.
    """

    v: Permutation
    w: Permutation
    component: Component | None
    free: tuple[Cell, ...]
    cone: Cone | None = None

    @cached_property
    def closed_equations(self) -> tuple[Poly, ...]:
        """The closed model, the cone's equations (none without a cone)."""
        return () if self.cone is None else tuple(self.cone.equations())

    @cached_property
    def chart(self) -> tuple[tuple, tuple]:
        """The chart template and its live conditions (:func:`_chart`), built on first read."""
        return _chart(self.v, self.free, _caps(self.w))

    @cached_property
    def determinantal_equations(self) -> tuple[Poly, ...]:
        """The determinantal model of (v, w), built on first read."""
        return tuple(determinantal_model(self))


@dataclass(frozen=True)
class SliceVerdict:
    """Outcome of the five slice checks; ``failures`` holds witness notes."""

    tangent_ok: bool
    dim_ok: bool
    containment_ok: bool
    exclusion_ok: bool
    equivalence_ok: bool
    samples: int
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """Every check passed: a failed check always leaves its note."""
        return not self.failures


def mv_support(v: Permutation) -> list[Cell]:
    """Positions that may be nonzero in the chart of v, beyond the fixed ones."""
    vinv = inverse(v)
    return [
        (j, k)
        for j in range(1, v.n + 1)
        for k in range(v(j) + 1, v.n + 1)
        if j < vinv(k)
    ]


def free_coordinates(v: Permutation, w: Permutation) -> list[Cell]:
    """Chart positions whose test rectangle lies inside the excess region.

    Position (j, k) survives iff every cell of
    [j, v_inv(k)) x [v(j), k) is in the excess region of (v, w); in
    particular the list is empty when v = w.
    """
    if v.n != w.n:
        raise ValueError(f"size mismatch: {v.n} vs {w.n}")
    n = v.n
    rv, rw = rank_table(v), rank_table(w)
    # below[p][q] = #{excess cells (p', q') : p' < p, q' < q}, so each test
    # rectangle is counted in O(1) by inclusion-exclusion.  A cell is in the
    # excess region iff r_v > r_w there (never on row or column 0).
    below = [[0] * (n + 1)]
    for p in range(n):
        above, rvp, rwp, row = below[p], rv[p], rw[p], [0]
        for q in range(n):
            row.append(row[q] + above[q + 1] - above[q] + (rvp[q] > rwp[q]))
        below.append(row)
    vinv = inverse(v)
    out = []
    for j, k in mv_support(v):
        p1, q0 = vinv(k), v(j)
        inside = below[p1][k] - below[j][k] - below[p1][q0] + below[j][q0]
        if inside == (p1 - j) * (k - q0):
            out.append((j, k))
    return out


def determinantal_model(s: SliceModel) -> list[Poly]:
    """Minor equations cutting out the variety on the slice chart.

    Every binding rank condition of the variety (:func:`_caps`) bounds a
    rank: at cell (p, q) the rows 1..p against columns q+1..n may have rank
    at most p - r_w(p, q), so all minors one size larger vanish.  Only the
    live conditions of the model's chart can give a nonconstant minor, and a
    minor through a row or a column that is zero in the chart is 0; so each
    live cell expands only its rows that reach past q against the columns
    after q that are nonzero in one of them.  Fixed chart entries are
    substituted by their 0/1 values; variables are indexed by position in
    ``s.free``; constant and duplicate minors are dropped.  The common
    vanishing set is exactly the set of chart assignments whose flag lies
    in the variety.
    """
    v, n = s.v, s.v.n
    chart, live = s.chart
    # The chart entries as polynomials, built once and shared by every minor
    # (sym_det never mutates its entries); index 0 pads rows and columns.
    one: Poly = {(): 1}
    grid: list[list[Poly]] = [[]]
    for vj, (_, slots) in zip(v.values, chart):
        row: list[Poly] = [{}] * (n + 1)
        row[vj] = one
        for col, i in slots:
            row[col + 1] = poly_var(i)
        grid.append(row)

    expanded: set[tuple] = set()
    seen: set[tuple] = set()
    eqs: list[Poly] = []
    for p, row_caps in enumerate(live, start=1):
        for q, cap in row_caps:
            rows = [j for j in range(1, p + 1) if len(chart[j - 1][0]) > q]
            cols = [k for k in range(q + 1, n + 1) if any(grid[j][k] for j in rows)]
            _collect_minors(grid, rows, cols, cap + 1, expanded, seen, eqs)
    eqs.sort(key=poly_canonical)
    return eqs


def _collect_minors(
    grid, rows: list[int], cols: list[int], size: int, expanded, seen, eqs
) -> None:
    """Add the new size x size minors of ``rows`` against ``cols``.

    A (rows, columns) selection that an earlier cell already expanded is
    skipped before its determinant is computed; ``seen`` then drops
    distinct selections whose minors coincide.
    """
    for rowsel in combinations(rows, size):
        for colsel in combinations(cols, size):
            if (rowsel, colsel) in expanded:
                continue
            expanded.add((rowsel, colsel))
            det = sym_det([[grid[j][k] for k in colsel] for j in rowsel])
            det.pop((), None)  # constant terms vanish identically here
            if not det:
                continue
            canon = poly_canonical(det)
            if canon not in seen:
                seen.add(canon)
                eqs.append(dict(canon))


def build_slice(c: Component, w: Permutation) -> SliceModel:
    """Free coordinates plus both equation models for a classified component.

    The determinantal model is built when it is first read.
    """
    v = c.v
    free = free_coordinates(v, w)
    if not free:
        raise SliceStructureError(
            f"component {v.values} of {w.values} has no free coordinates"
        )
    return SliceModel(v=v, w=w, component=c, free=tuple(free), cone=c.fit_cone(free))


def pair_slice(v: Permutation, w: Permutation) -> SliceModel:
    """The slice of a pair v <= w without a closed model; (v, v) gives a point."""
    if not bruhat_leq(v, w):
        raise ValueError(f"{v.values} is not Bruhat-below {w.values}")
    return SliceModel(v, w, None, tuple(free_coordinates(v, w)))


def embed_point(s: SliceModel, assignment: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The flag of the chart point with one value per free coordinate, as its n rows.

    Row j holds the coordinates of the j-th flag generator.  An assignment
    of the wrong length raises ``ValueError``.
    """
    if len(assignment) != len(s.free):
        raise ValueError(f"{len(s.free)} free coordinates, got {len(assignment)} values")
    n = s.v.n
    rows = _chart_rows(s.chart[0], assignment)
    return tuple(tuple(row) + (0,) * (n - len(row)) for row in rows)


def in_schubert(w: Permutation, flag: Sequence[Sequence[Rational]]) -> bool:
    """Exact membership in X_w, by rank conditions, of the flag with these rows.

    Row j holds the coordinates of the j-th flag generator, as ints or
    fractions.  For every p, q the span of the first p generators must meet
    the span of the first q coordinate vectors in dimension at least
    r_w(p, q).  Rational rows are scaled to ints, then run through
    :func:`_member`.  A flag that is not n rows of n entries, with an entry
    that is not rational (a float, a string), or whose rows are linearly
    dependent (so not a flag), raises ``ValueError``.
    """
    n = w.n
    if len(flag) != n or any(len(row) != n for row in flag):
        raise ValueError(f"a flag in dimension {n} needs {n} rows of {n} entries")
    if not all(isinstance(x, Rational) for row in flag for x in row):
        raise ValueError("flag entries must be ints or fractions")
    rows = [integer_row(row) for row in flag]
    inside = _member(_caps(w), rows)
    # _member stops at the first broken condition, before it has seen every
    # row; only then does independence need a rank computation of its own.
    if inside is None or (not inside and matrix_rank(rows) < n):
        raise ValueError("the rows of a flag must be linearly independent")
    return inside


def _caps(w: Permutation) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The binding rank conditions of X_w, row by row.

    Entry p - 1 lists the pairs (q, p - r_w(p, q)): the span of the first p
    generators may have at most p - r_w(p, q) echelon leads in the columns
    after q.  Pairs with r_w(p, q) = 0, or with p - r_w(p, q) >= n - q (there
    are only n - q such columns), hold for every flag and are left out.
    """
    n = w.n
    rw = rank_table(w)
    return tuple(
        tuple(
            (q, p - rw[p][q])
            for q in range(1, n)
            if rw[p][q] and p - rw[p][q] < n - q
        )
        for p in range(1, n + 1)
    )


def _member(caps, rows: Sequence[list[int]]) -> bool | None:
    """Whether int generator rows satisfy the rank conditions ``caps``.

    The rank-condition loop behind :func:`in_schubert` and the slice checks.
    Rows are reduced one by one to an echelon form keyed by each row's last
    nonzero column (:func:`schubsing.linalg.reduce_row`); they may be short.
    Returns False at the first broken condition, and None if a row falls
    in the span of the rows before it.
    """
    pivots: dict[int, list[int]] = {}
    # above[q] = #{pivot columns >= q}; 0-indexed pivot column c stands for
    # coordinate c + 1, so it counts the leads in the columns after q.
    above = [0] * len(caps)
    for row_caps, row in zip(caps, rows):
        lead = reduce_row(pivots, row)
        if lead is None:
            return None
        for q in range(lead + 1):
            above[q] += 1
        for q, cap in row_caps:
            if above[q] > cap:
                return False
    return True


def _chart(v: Permutation, free: Sequence[Cell], caps) -> tuple[tuple, tuple]:
    """The chart of v as a template, and the conditions of ``caps`` it can break.

    Template row j holds its chart 1 in column v(j) and is cut after its
    last column that may be nonzero; its slots pair a 0-indexed column with
    the index of the free coordinate that fills it.  A row that is not
    longer than q lies in the first q coordinates, so rows 1..p have at most
    as many echelon leads after q as they have rows that reach past q, and
    a condition (q, cap) of row p with at most cap such rows holds at every
    chart point.  The others, row by row, are the live conditions.
    """
    slots: list[list[tuple[int, int]]] = [[] for _ in range(v.n)]
    for i, (j, k) in enumerate(free):
        slots[j - 1].append((k - 1, i))
    reach = [0] * v.n  # reach[q] = #{rows so far that reach past q}
    template, live = [], []
    for vj, row_slots, row_caps in zip(v.values, slots, caps):
        base = [0] * max([vj] + [col + 1 for col, _ in row_slots])
        base[vj - 1] = 1
        template.append((base, tuple(row_slots)))
        for q in range(len(base)):
            reach[q] += 1
        live.append(tuple((q, cap) for q, cap in row_caps if reach[q] > cap))
    return tuple(template), tuple(live)


def _chart_rows(chart, assignment: Sequence[int]) -> list[list[int]]:
    """The generator rows of the chart point with these free coordinates."""
    rows = []
    for base, row_slots in chart:
        row = base.copy()
        for col, i in row_slots:
            row[col] = assignment[i]
        rows.append(row)
    return rows


def _plan(chart) -> tuple | None:
    """The steps :func:`_membership` runs per point, from a model's chart.

    A row with no free slot is the unit row e_c, c = v(j) - 1.  Its lead c
    is the same at every point, and quotienting the span by e_c deletes
    column c.  So the rank after q of rows 1..p is the number of these
    fixed leads after q plus the rank after q of the free rows with the
    fixed columns deleted, and each live condition (q, cap) of row p is
    tested on the free rows alone, its cap lowered by one for each fixed
    lead after q.  A negative cap fails at every point: the plan is None.
    A condition whose cap is at least the number of free rows that still
    reach past q holds at every point and is dropped.

    A row is left out when it changes no verdict: when it reaches past the
    q of no condition kept at its row or after it, or when it is fixed and
    no free row before it has a slot in its column (no stored pivot has an
    entry there).  The conditions of a row left out are tested after the
    step before it.  A step is (c, base, slots, conditions) for a free row
    and (c, None, (), conditions) for a fixed one.
    """
    template, live = chart
    deleted: list[int] = []  # the columns of the fixed rows so far
    free: list[list[int]] = []  # the nonzero columns of each free row so far
    conds, useful = [], []
    for (base, slots), row_live in zip(template, live):
        c = base.index(1)
        if slots:
            free.append([c] + [col for col, _ in slots])
        else:
            deleted.append(c)
        useful.append(bool(slots) or any(c in cols for cols in free))
        kept = []
        if row_live:
            reach = [max(col for col in cols if col not in deleted) for cols in free]
            for q, cap in row_live:
                cap -= sum(col >= q for col in deleted)
                if cap < 0:
                    return None
                if cap < sum(r >= q for r in reach):
                    kept.append((q, cap))
        conds.append(kept)
    # From the last row up: low is the least q of a kept condition at the
    # row or after it, and pending holds the conditions of the rows left
    # out after the row.
    steps = []
    low, pending = len(template), []
    for (base, slots), kept, use in zip(reversed(template), reversed(conds), reversed(useful)):
        low = min([low] + [q for q, _ in kept])
        pending += kept
        if use and len(base) - 1 >= low:
            steps.append((base.index(1), base if slots else None, slots, tuple(pending)))
            pending = []
    return tuple(reversed(steps))


def _membership(model: SliceModel):
    """Exact membership in X_w of the slice's chart points, as a predicate.

    It runs the steps of :func:`_plan`, so a point costs one int elimination
    of the free rows a live condition reads and builds no flag of n rows.  A
    fixed row deletes its column: each stored pivot loses that entry, and
    the pivot whose lead sat there is reduced again.  Chart rows are
    independent, and so are the free rows once the fixed columns are
    deleted, so no row falls in the span of the others.  :func:`_member`
    on all rows and all of w's conditions gives every verdict this does.
    """
    plan = _plan(model.chart)
    if plan is None:
        return lambda assignment: False

    def member(assignment: Sequence[int]) -> bool:
        pivots: dict[int, list[int]] = {}
        leads = 0  # bit c set iff a pivot's lead is in column c
        for c, base, slots, conds in plan:
            if base is None:
                for pivot in pivots.values():
                    if len(pivot) > c:
                        pivot[c] = 0
                moved = pivots.pop(c, None)
                if moved is not None:
                    leads ^= 1 << c | 1 << reduce_row(pivots, moved)
            else:
                row = base.copy()
                for col, i in slots:
                    row[col] = assignment[i]
                leads |= 1 << reduce_row(pivots, row)
            for q, cap in conds:
                if (leads >> q).bit_count() > cap:
                    return False
        return True

    return member


def _rng(seed: int, tag: str, v: Permutation, w: Permutation) -> random.Random:
    return random.Random(
        f"{seed}|{tag}|{format_permutation(v)}|{format_permutation(w)}"
    )


def sample_cone(s: SliceModel, trials: int, seed: int) -> list[tuple[int, ...]]:
    """Integer points of the closed cone, as assignments of the free coordinates.

    A point that violates a closed equation means the cone's sampler and
    equations disagree: :class:`SliceStructureError`.
    """
    if s.cone is None:
        raise ValueError("trivial slice has no cone to sample")
    rng = _rng(seed, "cone", s.v, s.w)
    sample, eqs = s.cone.sample, s.closed_equations
    out = [sample(rng) for _ in range(trials)]
    for assignment in out:
        if any(map(poly_eval, eqs, repeat(assignment))):
            raise SliceStructureError(
                f"cone sampler violated its own equation for {s.v.values}"
            )
    return out


def _sample_off_cone(s: SliceModel, trials: int, seed: int) -> list[tuple[int, ...]]:
    """Random assignments violating at least one closed equation."""
    rng = _rng(seed, "off", s.v, s.w)
    size, eqs = len(s.free), s.closed_equations
    out = []
    for _ in range(trials):
        for _attempt in range(1000):
            assignment = tuple(draw_values(rng, DIGITS, size))
            if any(map(poly_eval, eqs, repeat(assignment))):
                out.append(assignment)
                break
        else:  # pragma: no cover - astronomically unlikely
            raise RuntimeError("could not draw a point off the cone")
    return out


def verify_slice(
    model: SliceModel, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED
) -> SliceVerdict:
    """Run the five exact checks tying a component's slice model to X_w itself.

    ``trials`` cone points and as many off-cone points are tested; fewer
    than one of each would check nothing, so ``trials < 1`` is a ``ValueError``.
    """
    check_trials(trials)
    c, w = model.component, model.w
    if c is None:
        raise ValueError("only a component's slice has checks to run")
    # m(w, v) - length(v), from the family's side counts.
    expected_dim = c.codim + c.excess
    ranked, rank, expected = model.cone.dim_rank(_rng(seed, "jac", c.v, w))
    cone = sample_cone(model, trials, seed)
    off = _sample_off_cone(model, trials, seed)
    member = _membership(model)
    escaped = next((point for point in cone if not member(point)), None)
    intruder = next((point for point in off if member(point)), None)
    eqs = model.determinantal_equations
    rejected = next((point for point in cone if any(map(poly_eval, eqs, repeat(point)))), None)
    accepted = None if rejected is not None else next(
        (point for point in off if not any(map(poly_eval, eqs, repeat(point)))), None
    )
    # (check, ok, note) in witness order; a check with two clauses has two rows.
    checks = [
        ("tangent", len(model.free) == expected_dim,
         f"{len(model.free)} free coordinates, expected {expected_dim}"),
        ("tangent", all(map(poly_is_homogeneous_quadratic, model.closed_equations)),
         "a closed equation is not a homogeneous quadric"),
        ("dim", rank == expected, f"{ranked} rank {rank}, expected {expected}"),
        ("containment", escaped is None, f"cone point {escaped} escapes X_w"),
        ("exclusion", intruder is None, f"off-cone point {intruder} lies in X_w"),
        ("equivalence", rejected is None, f"determinantal model rejects cone point {rejected}"),
        ("equivalence", accepted is None,
         f"determinantal model accepts off-cone point {accepted}"),
    ]
    return SliceVerdict(
        **{f"{name}_ok": all(ok for n, ok, _ in checks if n == name) for name, _, _ in checks},
        samples=len(cone) + len(off),
        failures=tuple(f"{name}: {note}" for name, ok, note in checks if not ok),
    )


def equation_strings(s: SliceModel, equations: Sequence[Poly]) -> list[str]:
    """Equations over the slice's free coordinates, named ``m_j_k``."""
    names = {i: f"m_{j}_{k}" for i, (j, k) in enumerate(s.free)}
    return [poly_to_string(eq, names) for eq in equations]
