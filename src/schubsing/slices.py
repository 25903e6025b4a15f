"""Transversal slices to Schubert cells and their equations, exactly.

For v <= w, the slice through the fixed point of v inside X_w is modelled in
the affine chart of matrices m with m[j, v(j)] = 1 and zeros left of and
below each such 1.  An off-diagonal entry (j, k) survives on the slice only
if the whole rectangle of cells [j, v_inv(k)) x [v(j), k) lies inside the
rank-excess region of the pair; these are the free coordinates.

Two independent equation models are built over the free coordinates:

* the determinantal model: for every cell (p, q) of the excess region, all
  minors of size p - r_w(p, q) + 1 of rows 1..p against columns q+1..n;
* the closed model, read off the component type: the 2 x 2 minors of a full
  rectangle (4231 type), one paired quadric (3412* type), or two rank-one
  blocks whose product vanishes (3412empty type).

Membership of a flag in X_w is decided by exact rational rank conditions,
so every check below is exact: no floating point anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .components import (
    TYPE_3412_EMPTY,
    TYPE_3412_STAR,
    TYPE_4231,
    Component,
    classify_component,
)
from .linalg import (
    Poly,
    matrix_rank,
    poly_add,
    poly_canonical,
    poly_eval,
    poly_is_homogeneous_quadratic,
    poly_mul,
    poly_scale,
    poly_to_string,
    poly_var,
    sym_det,
)
from .perms import (
    Permutation,
    bruhat_leq,
    format_permutation,
    inverse,
    length,
    rank_excess_region,
    rank_table,
)
from .tangent import singular_components, tangent_dimension

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TRIALS",
    "FlagMatrix",
    "SliceModel",
    "SliceStructureError",
    "SliceVerdict",
    "build_slice",
    "determinantal_model",
    "embed_point",
    "equation_strings",
    "free_coordinates",
    "in_schubert",
    "mv_support",
    "sample_cone",
    "slice_report",
    "trivial_slice",
    "verify_slice",
]

DEFAULT_TRIALS = 50
DEFAULT_SEED = 101

Cell = tuple[int, int]


class SliceStructureError(RuntimeError):
    """The free coordinates do not form the frame the component type predicts."""


@dataclass(frozen=True)
class FlagMatrix:
    """A full flag: row j holds the coordinates of the j-th flag generator."""

    n: int
    rows: tuple[tuple[Fraction, ...], ...]


@dataclass
class SliceModel:
    """Both equation models of one slice, over its free coordinates.

    ``free`` lists the matrix positions (j, k) carrying coordinates, in
    row-major order; equations index variables by position in that list.
    ``frame`` records the case-specific block structure used for sampling.
    """

    v: Permutation
    w: Permutation
    ctype: str | None
    free: tuple[Cell, ...]
    closed_equations: tuple[Poly, ...]
    determinantal_equations: tuple[Poly, ...]
    frame: dict


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
        return (
            self.tangent_ok
            and self.dim_ok
            and self.containment_ok
            and self.exclusion_ok
            and self.equivalence_ok
        )


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
    region = rank_excess_region(v, w)
    vinv = inverse(v)
    out = []
    for j, k in mv_support(v):
        rect = (
            (p, q)
            for p in range(j, vinv(k))
            for q in range(v(j), k)
        )
        if all(cell in region for cell in rect):
            out.append((j, k))
    return out


def determinantal_model(v: Permutation, w: Permutation) -> list[Poly]:
    """Minor equations cutting out the variety on the slice chart.

    Every rank condition of the variety contributes its minors: at cell
    (p, q) the rows 1..p against columns q+1..n may have rank at most
    p - r_w(p, q), so all minors one size larger vanish.  Fixed chart
    entries are substituted by their 0/1 values; variables are indexed by
    position in ``free_coordinates(v, w)``; constant and duplicate minors
    are dropped.  The common vanishing set is exactly the set of chart
    assignments whose flag lies in the variety.
    """
    if not bruhat_leq(v, w):
        raise ValueError(f"{v.values} is not Bruhat-below {w.values}")
    n = v.n
    free = free_coordinates(v, w)
    var_of = {cell: i for i, cell in enumerate(free)}

    def entry(j: int, k: int) -> Poly:
        if k == v(j):
            return {(): 1}
        var = var_of.get((j, k))
        return poly_var(var) if var is not None else {}

    rw = rank_table(w)
    seen: set[tuple] = set()
    eqs: list[Poly] = []
    for p in range(1, n + 1):
        for q in range(1, n):
            bound = p - rw[p, q]
            size = bound + 1
            if size > min(p, n - q):
                continue
            _collect_minors(entry, p, q, n, size, seen, eqs)
    eqs.sort(key=poly_canonical)
    return eqs


def _collect_minors(entry, p: int, q: int, n: int, size: int, seen, eqs) -> None:
    for rowsel in combinations(range(1, p + 1), size):
        for colsel in combinations(range(q + 1, n + 1), size):
            det = sym_det([[entry(j, k) for k in colsel] for j in rowsel])
            det.pop((), None)  # constant terms vanish identically here
            if not det:
                continue
            canon = poly_canonical(det)
            if canon not in seen:
                seen.add(canon)
                eqs.append(dict(canon))


def _frame_rectangle(c: Component, free: list[Cell]) -> dict:
    rows = sorted({j for j, _ in free})
    cols = sorted({k for _, k in free})
    assert c.m is not None
    if set(free) != {(j, k) for j in rows for k in cols}:
        raise SliceStructureError(
            f"4231 slice of {c.v.values}: free coordinates are not a full rectangle"
        )
    if sorted((len(rows), len(cols))) != sorted((c.l + 1, c.m + 1)):
        raise SliceStructureError(
            f"4231 slice of {c.v.values}: rectangle is {len(rows)} x {len(cols)}, "
            f"expected sides {c.l + 1} and {c.m + 1}"
        )
    return {"case": 1, "rows": rows, "cols": cols}


def _frame_quadric(c: Component, free: list[Cell], v: Permutation) -> dict:
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
    pairs: list[tuple[Cell, Cell]] = []
    unpaired: list[Cell] = []
    used: set[Cell] = set()
    for j, k in free:
        if j != j0:
            continue
        partner = (vinv(k), k_last)
        if partner in freeset:
            pairs.append(((j0, k), partner))
            used.add(partner)
        else:
            unpaired.append((j0, k))
    unpaired.extend(
        cell for cell in free if cell[1] == k_last and cell not in used
    )
    if not pairs:
        raise SliceStructureError(
            f"3412* slice of {v.values}: no paired coordinates for the quadric"
        )
    return {
        "case": 2,
        "j0": j0,
        "k_last": k_last,
        "pairs": pairs,
        "unpaired": sorted(unpaired),
    }


def _frame_two_blocks(c: Component, free: list[Cell], v: Permutation) -> dict:
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

    def try_orientation(a_grp, b_grp) -> dict | None:
        rows_a, cols_a = a_grp
        rows_b, cols_b = b_grp
        if len(cols_a) != 2 or len(rows_b) != 2:
            return None
        if set(cols_a) & set(cols_b):
            return None
        if {v(r) for r in rows_b} != set(cols_a):
            return None
        if (len(rows_a) - 1) + (len(cols_b) - 1) != c.l:
            return None
        r1, r2 = rows_b
        return {
            "case": 3,
            "rows_a": rows_a,
            "cols_a": cols_a,
            "rows_b": [r1, r2],
            "cols_b": cols_b,
            "pair_cols": [v(r1), v(r2)],
        }

    frame = try_orientation(groups[0], groups[1]) or try_orientation(
        groups[1], groups[0]
    )
    if frame is None:
        raise SliceStructureError(
            f"3412empty slice of {v.values}: free coordinates do not form "
            f"rank-one blocks matched by v"
        )
    return frame


def build_slice(c: Component, w: Permutation) -> SliceModel:
    """Free coordinates plus both equation models for a classified component."""
    v = c.v
    free = free_coordinates(v, w)
    if not free:
        raise SliceStructureError(
            f"component {v.values} of {w.values} has no free coordinates"
        )
    var_of = {cell: i for i, cell in enumerate(free)}

    def minor(a: Cell, b: Cell, a2: Cell, b2: Cell) -> Poly:
        lead = poly_mul(poly_var(var_of[a]), poly_var(var_of[b]))
        anti = poly_mul(poly_var(var_of[a2]), poly_var(var_of[b2]))
        return poly_add(lead, poly_scale(anti, -1))

    closed: list[Poly] = []
    if c.ctype == TYPE_4231:
        frame = _frame_rectangle(c, free)
        rows, cols = frame["rows"], frame["cols"]
        for j1, j2 in combinations(rows, 2):
            for k1, k2 in combinations(cols, 2):
                closed.append(minor((j1, k1), (j2, k2), (j1, k2), (j2, k1)))
    elif c.ctype == TYPE_3412_STAR:
        frame = _frame_quadric(c, free, v)
        quad: Poly = {}
        for a_cell, b_cell in frame["pairs"]:
            quad = poly_add(
                quad, poly_mul(poly_var(var_of[a_cell]), poly_var(var_of[b_cell]))
            )
        closed.append(quad)
    elif c.ctype == TYPE_3412_EMPTY:
        frame = _frame_two_blocks(c, free, v)
        rows_a, cols_a = frame["rows_a"], frame["cols_a"]
        rows_b, cols_b = frame["rows_b"], frame["cols_b"]
        c1, c2 = frame["pair_cols"]
        r1, r2 = rows_b
        for i1, i2 in combinations(rows_a, 2):
            closed.append(minor((i1, cols_a[0]), (i2, cols_a[1]), (i1, cols_a[1]), (i2, cols_a[0])))
        for k1, k2 in combinations(cols_b, 2):
            closed.append(minor((r1, k1), (r2, k2), (r1, k2), (r2, k1)))
        for i in rows_a:
            for k in cols_b:
                closed.append(
                    poly_add(
                        poly_mul(poly_var(var_of[(i, c1)]), poly_var(var_of[(r1, k)])),
                        poly_mul(poly_var(var_of[(i, c2)]), poly_var(var_of[(r2, k)])),
                    )
                )
    else:
        raise ValueError(f"unknown component type {c.ctype!r}")

    return SliceModel(
        v=v,
        w=w,
        ctype=c.ctype,
        free=tuple(free),
        closed_equations=tuple(closed),
        determinantal_equations=tuple(determinantal_model(v, w)),
        frame=frame,
    )


def trivial_slice(v: Permutation) -> SliceModel:
    """The slice of the pair (v, v): a point, no coordinates, no equations."""
    return SliceModel(v, v, None, (), (), (), {"case": 0})


def embed_point(s: SliceModel, assignment: Sequence[Fraction]) -> FlagMatrix:
    """Fill the chart of v with an assignment of the free coordinates."""
    n = s.v.n
    grid = [[Fraction(0)] * n for _ in range(n)]
    for j in range(1, n + 1):
        grid[j - 1][s.v(j) - 1] = Fraction(1)
    for value, (j, k) in zip(assignment, s.free):
        grid[j - 1][k - 1] = Fraction(value)
    return FlagMatrix(n, tuple(tuple(row) for row in grid))


def in_schubert(w: Permutation, flag: FlagMatrix) -> bool:
    """Exact membership of a flag in X_w by rank conditions.

    For every p, q the span of the first p generators must meet the span of
    the first q coordinate vectors in dimension at least r_w(p, q).
    """
    if flag.n != w.n:
        raise ValueError(f"size mismatch: flag {flag.n} vs permutation {w.n}")
    n = w.n
    rw = rank_table(w)
    pivots: dict[int, list[Fraction]] = {}
    for p in range(1, n + 1):
        row = list(flag.rows[p - 1])
        while True:
            lead = next((col for col in range(n - 1, -1, -1) if row[col]), None)
            if lead is None:
                break
            existing = pivots.get(lead)
            if existing is None:
                pivots[lead] = row
                break
            factor = row[lead] / existing[lead]
            for col in range(lead + 1):
                row[col] -= factor * existing[col]
        # dim(W_p meet V_q) = p - #{pivot columns > q}, with 0-indexed
        # pivot column c standing for coordinate c+1.
        suffix = [0] * (n + 1)
        for col in pivots:
            suffix[col] += 1
        for col in range(n - 1, -1, -1):
            suffix[col] += suffix[col + 1]
        for q in range(1, n):
            if p - suffix[q] < rw[p, q]:
                return False
    return True


def _rng(seed: int, tag: str, v: Permutation, w: Permutation) -> random.Random:
    return random.Random(
        f"{seed}|{tag}|{format_permutation(v)}|{format_permutation(w)}"
    )


def _draw_vector(rng: random.Random, count: int) -> list[int]:
    while True:
        vec = [rng.randint(-9, 9) for _ in range(count)]
        if any(vec):
            return vec


def _draw_nonzero(rng: random.Random, count: int) -> list[int]:
    return [rng.choice((-9, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9)) for _ in range(count)]


def sample_cone(s: SliceModel, trials: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Exact points of the closed cone, as assignments of the free coordinates."""
    rng = _rng(seed, "cone", s.v, s.w)
    out = []
    for _ in range(trials):
        assignment = _one_cone_sample(s, rng)
        for eq in s.closed_equations:
            if poly_eval(eq, assignment):
                raise RuntimeError(
                    f"cone sampler violated its own equation for {s.v.values}"
                )
        out.append(assignment)
    return out


def _one_cone_sample(s: SliceModel, rng: random.Random) -> tuple[Fraction, ...]:
    frame = s.frame
    values: dict[Cell, Fraction] = {}
    case = frame["case"]
    if case == 1:
        rows, cols = frame["rows"], frame["cols"]
        u = dict(zip(rows, _draw_vector(rng, len(rows))))
        x = dict(zip(cols, _draw_vector(rng, len(cols))))
        for j, k in s.free:
            values[(j, k)] = Fraction(u[j] * x[k])
    elif case == 2:
        pairs = frame["pairs"]
        solved = pairs[0][1]
        for cell in s.free:
            values[cell] = Fraction(rng.randint(-9, 9))
        while values[pairs[0][0]] == 0:
            values[pairs[0][0]] = Fraction(rng.randint(-9, 9))
        rest = sum(
            (values[a] * values[b] for a, b in pairs[1:]), Fraction(0)
        )
        values[solved] = -rest / values[pairs[0][0]]
    elif case == 3:
        rows_a, cols_b = frame["rows_a"], frame["cols_b"]
        c1, c2 = frame["pair_cols"]
        r1, r2 = frame["rows_b"]
        s1, s2 = _draw_vector(rng, 2)
        u = dict(zip(rows_a, _draw_vector(rng, len(rows_a))))
        x = dict(zip(cols_b, _draw_vector(rng, len(cols_b))))
        for i in rows_a:
            values[(i, c1)] = Fraction(s1 * u[i])
            values[(i, c2)] = Fraction(s2 * u[i])
        for k in cols_b:
            values[(r1, k)] = Fraction(s2 * x[k])
            values[(r2, k)] = Fraction(-s1 * x[k])
    else:
        raise ValueError("trivial slice has no cone to sample")
    return tuple(values[cell] for cell in s.free)


def _sample_off_cone(s: SliceModel, trials: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Random assignments violating at least one closed equation."""
    rng = _rng(seed, "off", s.v, s.w)
    out = []
    for _ in range(trials):
        for _attempt in range(1000):
            assignment = tuple(
                Fraction(rng.randint(-9, 9)) for _ in s.free
            )
            if any(poly_eval(eq, assignment) for eq in s.closed_equations):
                out.append(assignment)
                break
        else:  # pragma: no cover - astronomically unlikely
            raise RuntimeError("could not draw a point off the cone")
    return out


def _parametrization_rank(s: SliceModel, rng: random.Random) -> int:
    """Exact Jacobian rank of the case parametrization at a generic point."""
    frame = s.frame
    case = frame["case"]
    zero = Fraction(0)
    if case == 1:
        rows, cols = frame["rows"], frame["cols"]
        u = dict(zip(rows, _draw_nonzero(rng, len(rows))))
        x = dict(zip(cols, _draw_nonzero(rng, len(cols))))
        params = [("u", j) for j in rows] + [("x", k) for k in cols]
        col_of = {p: i for i, p in enumerate(params)}
        jac = []
        for j, k in s.free:
            row = [zero] * len(params)
            row[col_of[("u", j)]] = Fraction(x[k])
            row[col_of[("x", k)]] = Fraction(u[j])
            jac.append(row)
        return matrix_rank(jac)
    if case == 2:
        pairs = frame["pairs"]
        solved = pairs[0][1]
        params = [cell for cell in s.free if cell != solved]
        col_of = {cell: i for i, cell in enumerate(params)}
        point = {cell: Fraction(val) for cell, val in zip(params, _draw_nonzero(rng, len(params)))}
        a0 = point[pairs[0][0]]
        jac = []
        for cell in s.free:
            row = [zero] * len(params)
            if cell != solved:
                row[col_of[cell]] = Fraction(1)
            else:
                rest = sum(
                    (point[a] * point[b] for a, b in pairs[1:]), Fraction(0)
                )
                row[col_of[pairs[0][0]]] = rest / (a0 * a0)
                for a, b in pairs[1:]:
                    row[col_of[a]] = -point[b] / a0
                    row[col_of[b]] = -point[a] / a0
            jac.append(row)
        return matrix_rank(jac)
    if case == 3:
        rows_a, cols_b = frame["rows_a"], frame["cols_b"]
        c1, c2 = frame["pair_cols"]
        r1, r2 = frame["rows_b"]
        s1, s2 = _draw_nonzero(rng, 2)
        u = dict(zip(rows_a, _draw_nonzero(rng, len(rows_a))))
        x = dict(zip(cols_b, _draw_nonzero(rng, len(cols_b))))
        params = [("s", 1), ("s", 2)] + [("u", i) for i in rows_a] + [("x", k) for k in cols_b]
        col_of = {p: i for i, p in enumerate(params)}
        jac = []
        for j, k in s.free:
            row = [zero] * len(params)
            if k == c1 and j in u:
                row[col_of[("s", 1)]] = Fraction(u[j])
                row[col_of[("u", j)]] = Fraction(s1)
            elif k == c2 and j in u:
                row[col_of[("s", 2)]] = Fraction(u[j])
                row[col_of[("u", j)]] = Fraction(s2)
            elif j == r1:
                row[col_of[("s", 2)]] = Fraction(x[k])
                row[col_of[("x", k)]] = Fraction(s2)
            elif j == r2:
                row[col_of[("s", 1)]] = Fraction(-x[k])
                row[col_of[("x", k)]] = Fraction(-s1)
            else:  # pragma: no cover - frame and free always agree
                raise SliceStructureError(f"position ({j}, {k}) outside both blocks")
            jac.append(row)
        return matrix_rank(jac)
    return 0


def verify_slice(
    c: Component,
    w: Permutation,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    model: SliceModel | None = None,
) -> SliceVerdict:
    """Run the five exact checks tying the slice model to X_w itself."""
    if model is None:
        model = build_slice(c, w)
    failures: list[str] = []
    expected_dim = tangent_dimension(c.v, w).dim - length(c.v)
    tangent_ok = len(model.free) == expected_dim and all(
        poly_is_homogeneous_quadratic(eq) for eq in model.closed_equations
    )
    if not tangent_ok:
        failures.append(
            f"tangent: {len(model.free)} free coordinates, expected {expected_dim}"
        )

    codim = length(w) - length(c.v)
    rank = _parametrization_rank(model, _rng(seed, "jac", c.v, w))
    dim_ok = rank == codim
    if not dim_ok:
        failures.append(f"dim: parametrization rank {rank}, expected {codim}")

    cone = sample_cone(model, trials, seed)
    off = _sample_off_cone(model, trials, seed)

    containment_ok = True
    for assignment in cone:
        if not in_schubert(w, embed_point(model, assignment)):
            containment_ok = False
            failures.append(f"containment: cone point {assignment} escapes X_w")
            break

    exclusion_ok = True
    for assignment in off:
        if in_schubert(w, embed_point(model, assignment)):
            exclusion_ok = False
            failures.append(f"exclusion: off-cone point {assignment} lies in X_w")
            break

    equivalence_ok = True
    for assignment in cone:
        if any(poly_eval(eq, assignment) for eq in model.determinantal_equations):
            equivalence_ok = False
            failures.append(
                f"equivalence: determinantal model rejects cone point {assignment}"
            )
            break
    if equivalence_ok:
        for assignment in off:
            if all(
                poly_eval(eq, assignment) == 0
                for eq in model.determinantal_equations
            ):
                equivalence_ok = False
                failures.append(
                    f"equivalence: determinantal model accepts off-cone point {assignment}"
                )
                break

    return SliceVerdict(
        tangent_ok=tangent_ok,
        dim_ok=dim_ok,
        containment_ok=containment_ok,
        exclusion_ok=exclusion_ok,
        equivalence_ok=equivalence_ok,
        samples=len(cone) + len(off),
        failures=tuple(failures),
    )


def _variable_names(s: SliceModel) -> dict[int, str]:
    return {i: f"m_{j}_{k}" for i, (j, k) in enumerate(s.free)}


def equation_strings(s: SliceModel) -> dict[str, list[str]]:
    names = _variable_names(s)
    return {
        "closed": [poly_to_string(eq, names) for eq in s.closed_equations],
        "determinantal": [
            poly_to_string(eq, names) for eq in s.determinantal_equations
        ],
    }


def _verdict_dict(verdict: SliceVerdict) -> dict:
    return {
        "tangent_ok": verdict.tangent_ok,
        "dim_ok": verdict.dim_ok,
        "containment_ok": verdict.containment_ok,
        "exclusion_ok": verdict.exclusion_ok,
        "equivalence_ok": verdict.equivalence_ok,
        "samples": verdict.samples,
        "failures": list(verdict.failures),
    }


def slice_report(
    v: Permutation,
    w: Permutation,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> dict:
    """JSON-ready slice description for a pair v <= w (CLI backend).

    Component pairs get the full closed model and verdict; v = w gets the
    trivial slice with a vacuous verdict; other pairs get free coordinates
    and the determinantal model only (no closed model exists for them).
    """
    if v == w:
        verdict = SliceVerdict(True, True, True, True, True, samples=0)
        return {
            "free": [],
            "type": None,
            "equations": [],
            "determinantal_equations": [],
            "verdict": _verdict_dict(verdict),
        }
    if not bruhat_leq(v, w):
        raise ValueError(f"{v.values} is not Bruhat-below {w.values}")
    if v in singular_components(w):
        c = classify_component(v, w)
        model = build_slice(c, w)
        verdict = verify_slice(c, w, trials=trials, seed=seed, model=model)
        strings = equation_strings(model)
        return {
            "free": [list(cell) for cell in model.free],
            "type": model.ctype,
            "equations": strings["closed"],
            "determinantal_equations": strings["determinantal"],
            "verdict": _verdict_dict(verdict),
        }
    model = SliceModel(
        v=v,
        w=w,
        ctype=None,
        free=tuple(free_coordinates(v, w)),
        closed_equations=(),
        determinantal_equations=tuple(determinantal_model(v, w)),
        frame={"case": 0},
    )
    strings = equation_strings(model)
    return {
        "free": [list(cell) for cell in model.free],
        "type": None,
        "equations": [],
        "determinantal_equations": strings["determinantal"],
        "verdict": None,
    }
