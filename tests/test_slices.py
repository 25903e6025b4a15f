"""Tests for transversal slice models, sampling, and exact membership."""

import ast
import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

import schubsing.slices
import schubsing.sweep
from schubsing.cli import main
from schubsing.components import (
    QuadricComponent,
    RectangleComponent,
    _Grid,
    _Quadric,
    classify_component,
)
from schubsing.linalg import poly_canonical, poly_eval, poly_var, reduce_row, sym_det
from schubsing.perms import (
    Permutation,
    bruhat_leq,
    format_permutation,
    inverse,
    make_permutation,
    rank_table,
)
from schubsing.slices import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    SliceModel,
    SliceStructureError,
    _caps,
    _chart_rows,
    _member,
    _membership,
    _plan,
    _sample_off_cone,
    build_slice,
    determinantal_model,
    embed_point,
    equation_strings,
    free_coordinates,
    in_schubert,
    mv_support,
    pair_slice,
    sample_cone,
    verify_slice,
)
from schubsing.sweep import _verify, component_pairs, verify_all, verify_permutation
from schubsing.symgroup import SymmetricGroup, symmetric_group
from schubsing.tangent import tangent_dimension


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def perm_flag(u):
    """The coordinate flag of a permutation matrix."""
    return embed_point(pair_slice(u, u), ())


# ---------------------------------------------------------------------------
# free coordinates


def test_free_coordinates_of_equal_pair_empty():
    v = make_permutation([2, 1, 4, 3])
    assert free_coordinates(v, v) == []


def test_free_coordinates_4231():
    free = free_coordinates(make_permutation([2, 1, 4, 3]), make_permutation([4, 2, 3, 1]))
    assert free == [(1, 3), (1, 4), (2, 3), (2, 4)]


def test_free_coordinates_3412():
    free = free_coordinates(make_permutation([1, 3, 2, 4]), make_permutation([3, 4, 1, 2]))
    assert free == [(1, 2), (1, 3), (2, 4), (3, 4)]


def test_mv_support_shape():
    v = make_permutation([1, 3, 2, 4])
    assert mv_support(v) == [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]


def reference_free_coordinates(v, w):
    """Chart positions whose test rectangle lies in the excess region (r_v > r_w), cell by cell."""
    rv, rw = rank_table(v), rank_table(w)
    vinv = inverse(v)
    return [
        (j, k)
        for j, k in mv_support(v)
        if all(rv[p][q] > rw[p][q] for p in range(j, vinv(k)) for q in range(v(j), k))
    ]


def test_free_coordinates_match_cell_by_cell_reference():
    """The prefix-sum rectangle test against the cell scan, on every v <= w of S_5."""
    group = symmetric_group(5)
    pairs = 0
    for wi, w_values in enumerate(itertools.permutations(range(1, 6))):
        w = Permutation(w_values)
        for vi in group.interval(wi):
            v = group.perm(vi)
            assert free_coordinates(v, w) == reference_free_coordinates(v, w)
            pairs += 1
    assert pairs == 3781


@pytest.mark.parametrize("n", [4, 5])
def test_free_count_equals_tangent_excess_over_cell(n):
    for w, c in component_pairs(n):
        free = free_coordinates(c.v, w)
        assert len(free) == tangent_dimension(c.v, w) - c.v.length


# ---------------------------------------------------------------------------
# slice models


def test_4231_slice_is_one_minor():
    w = make_permutation([4, 2, 3, 1])
    c = classify_component(make_permutation([2, 1, 4, 3]), w)
    model = build_slice(c, w)
    assert equation_strings(model, model.closed_equations) == ["m_1_3*m_2_4 - m_1_4*m_2_3"]
    assert equation_strings(model, model.determinantal_equations) == [
        "m_1_3*m_2_4 - m_1_4*m_2_3"
    ]


def test_3412_slice_is_one_quadric():
    w = make_permutation([3, 4, 1, 2])
    c = classify_component(make_permutation([1, 3, 2, 4]), w)
    model = build_slice(c, w)
    assert equation_strings(model, model.closed_equations) == ["m_1_2*m_3_4 + m_1_3*m_2_4"]
    assert model.cone.pairs == [(0, 3), (1, 2)]
    assert [(model.free[a], model.free[b]) for a, b in model.cone.pairs] == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
    ]


def test_case3_slice_equations():
    """Two-block models: the first aggregate-1 pair of S_5, and a pair with two lines per block.

    The order is A-minors, then B-minors, then the mixed products.
    """
    w = make_permutation([3, 5, 1, 4, 2])
    c = classify_component(make_permutation([1, 3, 2, 5, 4]), w)
    model = build_slice(c, w)
    assert model.free == ((1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5))
    assert equation_strings(model, model.closed_equations) == [
        "m_2_4*m_3_5 - m_2_5*m_3_4",
        "m_1_2*m_3_4 + m_1_3*m_2_4",
        "m_1_2*m_3_5 + m_1_3*m_2_5",
    ]
    w = make_permutation([4, 2, 6, 1, 5, 3])
    c = classify_component(make_permutation([2, 1, 4, 3, 6, 5]), w)
    assert c.ctype == "3412empty"
    model = build_slice(c, w)
    assert equation_strings(model, model.closed_equations) == [
        "m_1_3*m_2_4 - m_1_4*m_2_3",
        "m_3_5*m_4_6 - m_3_6*m_4_5",
        "m_1_3*m_4_5 + m_1_4*m_3_5",
        "m_1_3*m_4_6 + m_1_4*m_3_6",
        "m_2_3*m_4_5 + m_2_4*m_3_5",
        "m_2_3*m_4_6 + m_2_4*m_3_6",
    ]


def test_rectangle_minor_count():
    """Every 2 x 2 minor of the rank-one grid, each once.

    The grid is (l+1) x (m+1) for 4231 and 2 x (l+m+2) for 3412empty.
    """
    two_block = 0
    for n in (4, 5):
        for w, c in component_pairs(n):
            if c.ctype == "4231":
                expected = (c.l + 1) * c.l // 2 * ((c.m + 1) * c.m // 2)
            elif c.ctype == "3412empty":
                expected = (c.l + c.m + 2) * (c.l + c.m + 1) // 2
                two_block += 1
            else:
                continue
            assert len(build_slice(c, w).closed_equations) == expected
    assert two_block > 0


def test_structure_error_on_mislabeled_component():
    w = make_permutation([3, 4, 1, 2])
    c = classify_component(make_permutation([1, 3, 2, 4]), w)
    wrong = RectangleComponent(v=c.v, l=1, m=1)
    with pytest.raises(SliceStructureError):
        build_slice(wrong, w)


def test_degenerate_quadric_fails_dim():
    """A quadric that drops a pair is degenerate: the dim check names its rank."""
    w = make_permutation([3, 4, 1, 2])
    c = classify_component(make_permutation([1, 3, 2, 4]), w)
    model = build_slice(c, w)
    broken = dataclasses.replace(model, cone=model.cone._replace(pairs=model.cone.pairs[:1]))
    assert equation_strings(broken, broken.closed_equations) == ["m_1_2*m_3_4"]
    verdict = verify_slice(broken, trials=3, seed=101)
    assert not verdict.dim_ok
    assert "dim: quadric rank 2, expected 4" in verdict.failures


def test_rank_one_cone_with_wrong_dim_fails_dim():
    """A rank-one cone that claims one dimension too many fails only the dim check."""
    w = make_permutation([4, 2, 3, 1])
    c = classify_component(make_permutation([2, 1, 4, 3]), w)
    model = build_slice(c, w)
    assert model.cone.dim == c.codim == 3
    broken = dataclasses.replace(model, cone=model.cone._replace(dim=4))
    verdict = verify_slice(broken, trials=3, seed=101)
    assert not verdict.dim_ok
    assert verdict.failures == ("dim: parametrization rank 3, expected 4",)


def test_cones_index_each_free_coordinate_once():
    """A grid's cells and a quadric's pairs cover 0..len(free)-1, each index once.

    The samplers fill points by index, so a missed index would read 0.
    """
    kinds = set()
    for n in (2, 3, 4, 5, 6):
        for w, c in component_pairs(n):
            model = build_slice(c, w)
            cone = model.cone
            if isinstance(cone, _Grid):
                used = [i for line in cone.cells for _, i in line]
                assert cone.dim == c.codim
            else:
                assert isinstance(cone, _Quadric) and cone.size == len(model.free)
                used = [i for pair in cone.pairs for i in pair]
            assert sorted(used) == list(range(len(model.free))), (w.values, c.v.values)
            kinds.add(type(cone))
    assert kinds == {_Grid, _Quadric}


@pytest.mark.parametrize("n", [4, 5])
def test_closed_equations_homogeneous_quadratic(n):
    from schubsing.linalg import poly_is_homogeneous_quadratic

    for w, c in component_pairs(n):
        model = build_slice(c, w)
        assert all(poly_is_homogeneous_quadratic(eq) for eq in model.closed_equations)


def test_closed_equations_are_pinned():
    """The closed equations of every component pair of S_2..S_6, as printed strings."""
    rows = []
    for n in range(2, 7):
        for w, c in component_pairs(n):
            m = build_slice(c, w)
            eqs = equation_strings(m, m.closed_equations)
            rows.append([format_permutation(w), format_permutation(c.v), eqs])
    assert len(rows) == 656
    digest = hashlib.md5(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "b3d05e8e7c09fba425d08a096a75a016"


def test_a_sign_flipped_in_a_closed_minor_is_caught(mutate):
    mutate(_Grid, "equations", "[[top[c1], top[c2]]", "[[poly_scale(top[c1], -1), top[c2]]")
    with pytest.raises(AssertionError):
        test_closed_equations_are_pinned()


# ---------------------------------------------------------------------------
# membership


@pytest.mark.parametrize("n", [2, 3, 4])
def test_permutation_matrix_membership_matches_bruhat(n):
    for u in all_perms(n):
        flag = perm_flag(u)
        for w in all_perms(n):
            assert in_schubert(w, flag) == bruhat_leq(u, w), (u.values, w.values)


def test_membership_size_mismatch():
    with pytest.raises(ValueError):
        in_schubert(make_permutation([2, 1, 3]), perm_flag(make_permutation([1, 2])))


@pytest.mark.parametrize("values", [(3, 2, 1), (1, 2, 3), (2, 1, 3)])
def test_membership_rejects_zero_matrix(values):
    """The all-zero matrix is no flag, whatever w is."""
    zero = ((0, 0, 0),) * 3
    with pytest.raises(ValueError, match="linearly independent"):
        in_schubert(make_permutation(list(values)), zero)


@pytest.mark.parametrize(
    "rows",
    [
        ((1, 0), (0, 1), (1, 1)),  # rows of width 2
        ((1, 0, 0), (0, 1, 0)),  # two rows
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),  # four rows
    ],
)
def test_membership_rejects_misshapen_flags(rows):
    for w in all_perms(3):
        with pytest.raises(ValueError, match="needs 3 rows of 3 entries"):
            # Read through the module, so that a patched check is tested.
            schubsing.slices.in_schubert(w, rows)


def test_a_dropped_row_count_check_is_caught(mutate):
    """Two rows of three entries pass the width check; w0 then has no condition to break."""
    mutate(schubsing.slices, "in_schubert", "len(flag) != n or ", "")
    with pytest.raises(pytest.fail.Exception):
        test_membership_rejects_misshapen_flags(((1, 0, 0), (0, 1, 0)))


@pytest.mark.parametrize("entry", [1.5, 1.0, "1", None, 1j])
def test_membership_rejects_entries_that_are_not_rational(entry):
    """A float, string, None or complex entry is a ValueError, not an AttributeError."""
    flag = ((entry, 1), (0, 1))
    with pytest.raises(ValueError, match="entries must be ints or fractions"):
        in_schubert(make_permutation([2, 1]), flag)
    # Ints, bools and fractions are rational.
    for entry in (2, True, Fraction(3, 2)):
        flag = ((entry, 1), (0, 1))
        assert in_schubert(make_permutation([2, 1]), flag) is True


def test_membership_rejects_dependent_rows_after_a_broken_condition():
    """Row 1 already breaks X_123's conditions; rows 1 and 2 are still dependent."""
    flag = ((0, 0, 1), (0, 0, 2), (1, 0, 0))
    with pytest.raises(ValueError, match="linearly independent"):
        in_schubert(make_permutation([1, 2, 3]), flag)
    # The same first row in a genuine flag is an answer, not an error.
    flag = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert in_schubert(make_permutation([1, 2, 3]), flag) is False
    assert in_schubert(make_permutation([3, 2, 1]), flag) is True


def test_vertex_always_contained():
    for v in all_perms(4):
        flag = perm_flag(v)
        for w in all_perms(4):
            if bruhat_leq(v, w):
                assert in_schubert(w, flag)


def test_generic_flag_only_in_full_variety():
    rng = random.Random(7)
    n = 4
    flag = tuple(
        tuple(Fraction(rng.randint(-9, 9)) for _ in range(n)) for _ in range(n)
    )
    w0 = make_permutation([4, 3, 2, 1])
    assert in_schubert(w0, flag)
    hits = [w.values for w in all_perms(n) if w.values != w0.values and in_schubert(w, flag)]
    assert hits == []


def assert_live_membership_matches_full(model):
    """The pruned predicate agrees with ``_member`` on w's full conditions and all rows.

    The points are the cone and off-cone samples a sweep tests, which
    include points on both sides of X_w.
    """
    (chart, _), caps = model.chart, _caps(model.w)
    member = _membership(model)
    points = sample_cone(model, DEFAULT_TRIALS, DEFAULT_SEED)
    points += _sample_off_cone(model, DEFAULT_TRIALS, DEFAULT_SEED)
    verdicts = set()
    for assignment in points:
        full = _member(caps, _chart_rows(chart, assignment))
        assert member(assignment) == full, (model.v, model.w, assignment)
        verdicts.add(full)
    return verdicts


def test_live_membership_matches_full_conditions():
    """Every cone and off-cone point of the 656 component pairs of S_<=6."""
    pairs, verdicts = 0, set()
    for n in range(1, 7):
        for w, c in component_pairs(n):
            verdicts |= assert_live_membership_matches_full(build_slice(c, w))
            pairs += 1
    assert pairs == 656 and verdicts == {True, False}


def _zero_heavy(rng, model):
    """An assignment that often zeroes an entry a pivot's lead sits on."""
    return [rng.choice((0, 0, 0, 1, -1, 2, 3)) for _ in model.free]


def test_plan_matches_member_on_zero_heavy_points():
    """60 seeded zero-heavy points per component pair of S_3..S_6, all of w's conditions.

    Cone and off-cone samples rarely make a stored pivot lose its lead to a
    deleted column; these points often do.
    """
    rng = random.Random(2024)
    points, verdicts = 0, set()
    for n in range(3, 7):
        for w, c in component_pairs(n):
            model = build_slice(c, w)
            (chart, _), caps = model.chart, _caps(w)
            member = _membership(model)
            for _ in range(60):
                assignment = _zero_heavy(rng, model)
                full = _member(caps, _chart_rows(chart, assignment))
                assert member(assignment) == full, (model.v, w, assignment)
                verdicts.add(full)
                points += 1
    assert points == 39_360 and verdicts == {True, False}


def _one_condition_mismatches():
    """Points where the plan and ``_member`` differ, one live condition at a time.

    w's conditions overlap: with all of them, one condition whose cap is
    off by one, or whose rank counts a deleted column, is still enforced
    by its neighbours, so only a plan of a single condition shows such a
    fault.  For each live condition of each component pair of S_<=5, the
    model's chart is replaced by one that keeps that condition alone, and
    20 zero-heavy points are tested.
    """
    rng = random.Random(7)
    bad, verdicts = [], set()
    for n in range(3, 6):
        for w, c in component_pairs(n):
            template, live = build_slice(c, w).chart
            for p, row in enumerate(live):
                for cond in row:
                    one = tuple((cond,) if i == p else () for i in range(len(live)))
                    model = build_slice(c, w)
                    model.__dict__["chart"] = (template, one)  # the cached chart
                    # Read through the module, so that a patched kernel is tested.
                    member = schubsing.slices._membership(model)
                    for _ in range(20):
                        assignment = _zero_heavy(rng, model)
                        expected = _member(one, _chart_rows(template, assignment))
                        verdicts.add(expected)
                        if member(assignment) != expected:
                            bad.append((w, c.v, p + 1, cond, assignment))
    assert verdicts == {True, False}
    return bad


def test_plan_matches_member_one_condition_at_a_time():
    assert _one_condition_mismatches() == []


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("_plan", "col >= q for col in deleted", "col > q for col in deleted"),
        ("_plan", "bool(slots) or any(c in cols for cols in free)", "bool(slots)"),
        ("_membership", "pivot[c] = 0", "pass"),
        ("_membership", "moved = pivots.pop(c, None)", "moved = None"),
    ],
    ids=["fixed-lead-count", "fixed-rows-dropped", "column-not-zeroed", "pivot-not-reduced"],
)
def test_a_faulty_plan_is_caught(mutate, name, old, new):
    mutate(schubsing.slices, name, old, new)
    assert _one_condition_mismatches()


def test_plan_of_a_vertex_is_bruhat_order():
    """With no free coordinate the plan holds no row, only its caps.

    The chart point is then the permutation matrix of v, in X_w iff v <= w:
    a condition whose fixed leads exceed its cap fails at every point.
    """
    for w in all_perms(4):
        for v in all_perms(4):
            member = _membership(SliceModel(v, w, None, ()))
            assert member(()) == bruhat_leq(v, w), (v, w)


def test_plan_reduces_only_free_rows():
    """The plans of the 613 component pairs of S_6, read at the vertex (all zeros).

    Each point meets 1,624 free rows, each reduced once, and 280 fixed rows
    that delete their column; ``_member`` on the rows up to the last live
    condition reduces 2,792 rows for the same points.  No pivot loses its
    lead at the vertex, so no reduction is repeated.
    """
    calls = []

    def counting(pivots, row):
        calls.append(len(row))
        return reduce_row(pivots, row)

    free = fixed = full = 0
    for w, c in component_pairs(6):
        model = build_slice(c, w)
        chart, live = model.chart
        plan = _plan(model.chart)
        free += sum(base is not None for _, base, _, _ in plan)
        fixed += sum(base is None for _, base, _, _ in plan)
        last = max((p for p, row in enumerate(live, 1) if row), default=0)
        full += last
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(schubsing.slices, "reduce_row", counting)
            assert _membership(model)([0] * len(model.free))
    assert (len(calls), free, fixed, full) == (1_624, 1_624, 280, 2_792)


# ---------------------------------------------------------------------------
# sampling and verification


def test_cone_samples_satisfy_closed_equations():
    for wv, vv in (((4, 2, 3, 1), (2, 1, 4, 3)), ((3, 4, 1, 2), (1, 3, 2, 4))):
        w = Permutation(wv)
        c = classify_component(Permutation(vv), w)
        model = build_slice(c, w)
        for assignment in sample_cone(model, 30, seed=5):
            for eq in model.closed_equations:
                assert poly_eval(eq, assignment) == 0


def test_sampling_is_deterministic():
    w = make_permutation([4, 2, 3, 1])
    c = classify_component(make_permutation([2, 1, 4, 3]), w)
    model = build_slice(c, w)
    assert sample_cone(model, 10, seed=3) == sample_cone(model, 10, seed=3)
    assert sample_cone(model, 10, seed=3) != sample_cone(model, 10, seed=4)


def test_cone_property_scaling():
    """Scaling a cone sample by any rational keeps it on the cone."""
    w = make_permutation([3, 4, 1, 2])
    c = classify_component(make_permutation([1, 3, 2, 4]), w)
    model = build_slice(c, w)
    for assignment in sample_cone(model, 5, seed=11):
        for scale in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            scaled = tuple(scale * x for x in assignment)
            assert in_schubert(w, embed_point(model, scaled))


@pytest.mark.parametrize("extra", [-1, 1])
def test_embed_point_needs_one_value_per_free_coordinate(extra):
    """A short assignment used to raise IndexError, a long one to lose its tail."""
    w = make_permutation([4, 2, 3, 1])
    model = build_slice(classify_component(make_permutation([2, 1, 4, 3]), w), w)
    assignment = (1,) * (len(model.free) + extra)
    with pytest.raises(ValueError, match="4 free coordinates, got"):
        embed_point(model, assignment)


def test_containment_monotone_in_w():
    """Cone points of a slice for w lie in every variety above w."""
    w = make_permutation([4, 2, 3, 1])
    c = classify_component(make_permutation([2, 1, 4, 3]), w)
    model = build_slice(c, w)
    bigger = [u for u in all_perms(4) if bruhat_leq(w, u)]
    for assignment in sample_cone(model, 10, seed=13):
        flag = embed_point(model, assignment)
        for u in bigger:
            assert in_schubert(u, flag)


@pytest.mark.parametrize("n", [4, 5])
def test_verify_slice_all_pairs(n):
    for w, c in component_pairs(n):
        verdict = verify_slice(build_slice(c, w), trials=25, seed=101)
        assert verdict.ok == (not verdict.failures), (w.values, c.v.values)
        assert verdict.ok, (w.values, c.v.values, verdict.failures)


@pytest.mark.parametrize(
    "old, new",
    [
        ("eqs = model.determinantal_equations", "eqs = model.determinantal_equations[:1]"),
        ("point in off if not any(map(poly_eval, eqs,", "point in off if any(map(poly_eval, eqs,"),
    ],
    ids=["first-minor-only", "off-cone-test-inverted"],
)
def test_an_equivalence_check_misreading_the_minors_is_caught(mutate, old, new):
    """The equivalence check evaluates every minor at every point it needs."""
    mutate(schubsing.slices, "verify_slice", old, new)
    failing = [
        (w, c.v)
        for n in (4, 5)
        for w, c in component_pairs(n)
        if not schubsing.slices.verify_slice(build_slice(c, w), trials=25, seed=101).equivalence_ok
    ]
    assert failing


def test_failure_witness_prints_plain_integers(monkeypatch):
    """A forced containment failure names its cone point as a tuple of ints."""
    w = make_permutation([3, 4, 1, 2])
    c = classify_component(make_permutation([1, 3, 2, 4]), w)
    monkeypatch.setattr(schubsing.slices, "sample_cone", schubsing.slices._sample_off_cone)
    verdict = verify_slice(build_slice(c, w), trials=3, seed=101)
    assert not verdict.containment_ok
    witness = verdict.failures[0]
    assert witness.startswith("containment: cone point (")
    assert not any("Fraction(" in note for note in verdict.failures)
    point = ast.literal_eval(witness[len("containment: cone point "):-len(" escapes X_w")])
    assert len(point) == 4 and all(type(x) is int for x in point)


def test_exclusion_reads_the_rank_conditions(monkeypatch):
    """With no rank conditions every chart point is in X_w, so exclusion must fail.

    ``in_schubert`` runs the same conditions through the same kernel.
    """
    monkeypatch.setattr(schubsing.slices, "_caps", lambda w: ((),) * w.n)
    w = make_permutation([3, 4, 1, 2])
    c = classify_component(make_permutation([1, 3, 2, 4]), w)
    verdict = verify_slice(build_slice(c, w), trials=3, seed=101)
    assert verdict.containment_ok and not verdict.exclusion_ok
    assert verdict.failures[0].startswith("exclusion: off-cone point (")
    assert in_schubert(make_permutation([1, 2, 3, 4]), perm_flag(w))


class _ShiftedExcess(QuadricComponent):
    """A 3412* component whose family formula gives one tangent direction too many."""

    @property
    def excess(self):
        return 2


def test_a_tangent_count_off_its_family_formula_is_named():
    w = make_permutation([3, 4, 1, 2])
    c = classify_component(make_permutation([1, 3, 2, 4]), w)
    verdict = verify_slice(build_slice(_ShiftedExcess(c.v, c.l, c.m), w), trials=3, seed=101)
    assert (verdict.tangent_ok, verdict.dim_ok, verdict.containment_ok) == (False, True, True)
    assert verdict.failures == ("tangent: 4 free coordinates, expected 5",)


def test_a_closed_equation_that_is_not_a_quadric_is_named():
    """An empty polynomial among the closed equations fails the tangent check alone.

    It vanishes everywhere, so sampling and membership still agree.
    """
    w = make_permutation([3, 4, 1, 2])
    model = build_slice(classify_component(make_permutation([1, 3, 2, 4]), w), w)
    model.__dict__["closed_equations"] = (*model.closed_equations, {})  # the cached equations
    verdict = verify_slice(model, trials=3, seed=101)
    assert (verdict.tangent_ok, verdict.dim_ok, verdict.equivalence_ok) == (False, True, True)
    assert verdict.failures == ("tangent: a closed equation is not a homogeneous quadric",)


def test_each_pair_fact_is_built_once_per_model(monkeypatch):
    """Free coordinates, w's rank conditions and the chart: once per component pair.

    ``build_slice`` finds the free coordinates, and the chart pass (with
    ``_caps``) runs on the first read of ``model.chart``; the minors and the
    membership test then read the same chart.
    """
    calls = {"free_coordinates": 0, "_caps": 0, "_chart": 0}

    def counting(name):
        real = getattr(schubsing.slices, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(schubsing.slices, name, counting(name))
    pairs = 0
    for w, c in component_pairs(5):
        model = build_slice(c, w)
        assert "chart" not in model.__dict__  # singular-locus never pays for it
        assert verify_slice(model, trials=3, seed=101).ok
        pairs += 1
    assert pairs == 41 and calls == dict.fromkeys(calls, pairs)


def test_verify_slice_needs_a_component():
    v = make_permutation([2, 1, 4, 3])
    with pytest.raises(ValueError, match="component"):
        verify_slice(pair_slice(v, v))


@pytest.mark.parametrize("trials", [0, -3])
def test_vacuous_trials_are_refused(monkeypatch, trials):
    """No trials would check nothing: every entry point refuses before any work.

    ``verify_permutation`` refuses before the smoothness test, for a smooth
    w as for a singular one.
    """
    w = make_permutation([4, 2, 3, 1])
    model = build_slice(classify_component(make_permutation([2, 1, 4, 3]), w), w)

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(schubsing.slices, "_rng", no_work)
    for name in ("_verify_chunk", "_verify", "is_smooth", "enumerate_components"):
        monkeypatch.setattr(schubsing.sweep, name, no_work)
    refused = pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}")
    with refused:
        verify_slice(model, trials=trials)
    with refused:
        verify_all(4, trials=trials)
    for u in (make_permutation([2, 1, 3]), w):
        with refused:
            verify_permutation(u, trials=trials)


def test_verify_slice_builds_no_flag_per_point(monkeypatch):
    def no_flags(*args):
        raise AssertionError("verify_slice built or tested a flag of n rows")

    for name in ("embed_point", "in_schubert", "_member"):
        monkeypatch.setattr(schubsing.slices, name, no_flags)
    for w, c in component_pairs(4):
        assert verify_slice(build_slice(c, w), trials=5, seed=101).ok


def test_sampler_violation_is_a_witness(monkeypatch):
    """A cone sampler off its own equations is a slice-structure failure."""
    monkeypatch.setattr(_Quadric, "sample", lambda self, rng: (1,) * self.size)
    w = make_permutation([3, 4, 1, 2])
    c = classify_component(make_permutation([1, 3, 2, 4]), w)
    with pytest.raises(SliceStructureError, match="violated its own equation"):
        sample_cone(build_slice(c, w), 1, seed=101)
    record, witnesses = _verify(w, DEFAULT_TRIALS, DEFAULT_SEED)
    assert record == verify_permutation(w) and record["ok"] is False
    assert [(x["v"], x["check"]) for x in witnesses] == [("1,3,2,4", "slice-structure")]
    assert "violated its own equation" in witnesses[0]["detail"]


def test_zero_assignment_vanishes_in_determinantal_model():
    v = make_permutation([2, 1, 4, 3])
    w = make_permutation([4, 2, 3, 1])
    zero = (Fraction(0),) * 4
    for eq in determinantal_model(pair_slice(v, w)):
        assert poly_eval(eq, zero) == 0


def unexpanded_selections(v, w):
    """Every (rows, columns) minor selection of every binding cell, unpruned.

    At cell (p, q) the minors of size p - r_w(p, q) + 1 of rows 1..p
    against columns q+1..n, for every cell where that size fits.
    """
    n, rw = w.n, rank_table(w)
    selections = []
    for p in range(1, n + 1):
        for q in range(1, n):
            size = p - rw[p][q] + 1
            if size <= min(p, n - q):
                selections += itertools.product(
                    itertools.combinations(range(1, p + 1), size),
                    itertools.combinations(range(q + 1, n + 1), size),
                )
    return selections


def unexpanded_minors(v, w):
    """The determinantal model by the unpruned loop: expand every selection, then deduplicate."""
    free = free_coordinates(v, w)

    def entry(j, k):
        if k == v(j):
            return {(): 1}
        return poly_var(free.index((j, k))) if (j, k) in free else {}

    canons = set()
    for rows, cols in set(unexpanded_selections(v, w)):
        det = sym_det([[entry(j, k) for k in cols] for j in rows])
        det.pop((), None)
        if det:
            canons.add(poly_canonical(det))
    return [dict(canon) for canon in sorted(canons)]


def test_determinantal_model_expands_each_selection_once(monkeypatch):
    """One S_6 pair whose cells share 60 of their 127 minor selections.

    Of the 67 distinct selections only one is live, and it reaches
    ``sym_det`` once; the equations equal those of expanding every cell's
    minors in full and deduplicating afterwards.
    """
    v = make_permutation([1, 2, 4, 3, 5, 6])
    w = make_permutation([1, 4, 5, 2, 3, 6])
    selections = unexpanded_selections(v, w)
    assert (len(selections), len(set(selections))) == (127, 67)
    expected = unexpanded_minors(v, w)

    matrices = []

    def counting_det(matrix):
        matrices.append(matrix)
        return sym_det(matrix)

    monkeypatch.setattr(schubsing.slices, "sym_det", counting_det)
    eqs = determinantal_model(pair_slice(v, w))
    assert len(matrices) == 1
    assert eqs == expected
    c = classify_component(v, w)
    model = build_slice(c, w)
    names = equation_strings(model, eqs)
    assert names == equation_strings(model, expected) and len(names) == len(set(names))


def test_determinantal_model_matches_unexpanded_loop_on_every_pair():
    """Every v <= w of S_<=5, and every component pair of S_6."""
    pairs = 0
    for n in range(1, 6):
        group = symmetric_group(n)
        for wi in range(group.order):
            w = group.perm(wi)
            for vi in group.interval(wi):
                v = group.perm(vi)
                assert determinantal_model(pair_slice(v, w)) == unexpanded_minors(v, w), (v, w)
                pairs += 1
    assert pairs == 1 + 3 + 19 + 213 + 3781
    for w, c in component_pairs(6):
        assert determinantal_model(pair_slice(c.v, w)) == unexpanded_minors(c.v, w), (c.v, w)


@pytest.mark.n7
def test_live_conditions_match_full_conditions_on_s7():
    """Both live-condition readers against their unpruned references, on S_7."""
    pairs = 0
    for w, c in component_pairs(7):
        assert determinantal_model(pair_slice(c.v, w)) == unexpanded_minors(c.v, w), (c.v, w)
        assert_live_membership_matches_full(build_slice(c, w))
        pairs += 1
    assert pairs == 8426


def test_determinantal_model_builds_each_chart_entry_once(monkeypatch):
    """One polynomial per free coordinate, shared by every minor that reads it."""
    calls = []

    def counting_var(i):
        calls.append(i)
        return poly_var(i)

    monkeypatch.setattr(schubsing.slices, "poly_var", counting_var)
    v = make_permutation([1, 2, 4, 3, 5, 6])
    w = make_permutation([1, 4, 5, 2, 3, 6])
    eqs = determinantal_model(pair_slice(v, w))
    assert eqs and sorted(calls) == list(range(len(free_coordinates(v, w))))


def test_determinantal_model_of_equal_pair_empty():
    v = make_permutation([2, 1, 4, 3])
    assert determinantal_model(pair_slice(v, v)) == []


def test_equal_pair_expands_no_minor(monkeypatch):
    """Without free coordinates every minor is constant, so none is expanded.

    Expanding them for this w would mean up to 15,337,270 selections.
    """

    def no_minors(matrix):
        raise AssertionError("a minor was expanded")

    monkeypatch.setattr(schubsing.slices, "sym_det", no_minors)
    w = make_permutation([*range(11, 21), *range(1, 11)])
    assert determinantal_model(pair_slice(w, w)) == []


@pytest.mark.parametrize("n", range(1, 7))
def test_caps_select_the_rank_filter_cells(n):
    """``_caps`` keeps exactly the cells whose minors can be nonconstant.

    The reference is the determinantal model's former filter: a minor of
    size p - r_w(p, q) + 1 fits rows 1..p and columns q+1..n.
    """
    for w in all_perms(n):
        rw = rank_table(w)
        expected = [
            (p, q, p - rw[p][q])
            for p in range(1, n + 1)
            for q in range(1, n)
            if p - rw[p][q] + 1 <= min(p, n - q)
        ]
        caps = schubsing.slices._caps(w)
        assert [(p, q, cap) for p, row in enumerate(caps, 1) for q, cap in row] == expected


def test_slice_model_is_frozen():
    w = make_permutation([4, 2, 3, 1])
    model = build_slice(classify_component(make_permutation([2, 1, 4, 3]), w), w)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.free = ()


# ---------------------------------------------------------------------------
# reports


def run_slice(capsys, *argv):
    """Exit code and parsed stdout of the CLI's ``slice`` command."""
    code = main(["slice", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_slice_report_equal_pair(capsys):
    code, report = run_slice(capsys, "2143", "2143")
    assert code == 0
    assert report["free"] == []
    assert report["type"] is None
    assert report["verdict"]["samples"] == 0


def test_slice_report_component_pair(capsys):
    code, report = run_slice(capsys, "2143", "4231", "--trials", "10")
    assert code == 0
    assert report["type"] == "4231"
    assert report["equations"] == ["m_1_3*m_2_4 - m_1_4*m_2_3"]
    assert all(
        report["verdict"][key]
        for key in ("tangent_ok", "dim_ok", "containment_ok", "exclusion_ok", "equivalence_ok")
    )


def test_slice_report_non_component_pair(capsys):
    code, report = run_slice(capsys, "1234", "4231")
    assert code == 0
    assert report["type"] is None
    assert report["verdict"] is None
    assert report["equations"] == []
    assert report["determinantal_equations"]


def test_slice_report_builds_the_interval_mask_once(capsys, monkeypatch):
    """The component search reads w's interval once, as the sweep does."""
    masks = []
    real = SymmetricGroup.lower_mask

    def counted(self, wi):
        masks.append(wi)
        return real(self, wi)

    monkeypatch.setattr(SymmetricGroup, "lower_mask", counted)
    code, report = run_slice(capsys, "2143", "4231", "--trials", "3")
    assert code == 0
    assert report["type"] == "4231"
    assert len(masks) == 2  # w's interval, then the one component's


def test_slice_report_incomparable_raises(capsys):
    """The ``ValueError`` becomes one ``error:`` line and exit 2."""
    code = main(["slice", "2143", "1324"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: (2, 1, 4, 3) is not Bruhat-below (1, 3, 2, 4)\n"
