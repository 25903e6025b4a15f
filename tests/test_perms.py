"""Tests for permutations, rank tables, Bruhat order, and the excess region."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubsing.perms import (
    Permutation,
    all_transpositions,
    bruhat_leq,
    compose,
    format_permutation,
    identity,
    inverse,
    length,
    longest_element,
    make_permutation,
    parse_permutation,
    rank_excess_region,
    rank_table,
    transposition,
)

perm_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def permutation_from_rank_table(t):
    """Recover the unique permutation with the rank table ``t`` (rows ``[p][q]``).

    Position i takes the value q where the 2 x 2 corner of the table at
    (i, q) jumps by one.
    """
    n = len(t) - 1
    vals = []
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            if t[p][q] - t[p - 1][q] - t[p][q - 1] + t[p - 1][q - 1] == 1:
                vals.append(q)
                break
        else:
            raise ValueError(f"row {p} of the table has no unit corner step")
    return make_permutation(vals)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


# ---------------------------------------------------------------------------
# construction and validation


def test_make_permutation_accepts_valid():
    assert make_permutation([1, 2, 3]) == identity(3)
    assert make_permutation([4, 2, 3, 1]).values == (4, 2, 3, 1)


@pytest.mark.parametrize("bad", [[1, 1, 2], [0, 1], [2, 3], [], [1, 2, 4]])
def test_make_permutation_rejects_non_bijections(bad):
    with pytest.raises(ValueError):
        make_permutation(bad)


def test_call_is_one_indexed():
    w = make_permutation([4, 2, 3, 1])
    assert w(1) == 4 and w(4) == 1


def test_longest_element():
    assert longest_element(3).values == (3, 2, 1)
    assert length(longest_element(5)) == 10


def test_inverse_example():
    assert inverse(make_permutation([2, 3, 1])).values == (3, 1, 2)


def test_all_transpositions_count():
    assert len(all_transpositions(4)) == 6
    assert all(isinstance(t, Permutation) for t in all_transpositions(4))


def test_transposition_values():
    t = transposition(4, 2, 4)
    assert t.values == (1, 4, 3, 2)
    with pytest.raises(ValueError):
        transposition(4, 3, 3)


@given(perm_strategy)
def test_inverse_involution(values):
    w = Permutation(tuple(values))
    assert inverse(inverse(w)) == w
    assert compose(w, inverse(w)) == identity(w.n)
    assert compose(inverse(w), w) == identity(w.n)


@given(perm_strategy)
def test_length_of_inverse(values):
    w = Permutation(tuple(values))
    assert length(w) == length(inverse(w))


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


# ---------------------------------------------------------------------------
# rank tables


def test_rank_table_frozen_example():
    r = rank_table(make_permutation([3, 4, 1, 2]))
    expected = {
        (1, 1): 0, (1, 2): 0, (1, 3): 1, (1, 4): 1,
        (2, 1): 0, (2, 2): 0, (2, 3): 1, (2, 4): 2,
        (3, 1): 1, (3, 2): 1, (3, 3): 2, (3, 4): 3,
        (4, 1): 1, (4, 2): 2, (4, 3): 3, (4, 4): 4,
    }
    for (p, q), value in expected.items():
        assert r[p][q] == value
    assert r[0][3] == 0 and r[2][0] == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rank_table_round_trip_exhaustive(n):
    for w in all_perms(n):
        assert permutation_from_rank_table(rank_table(w)) == w


@given(perm_strategy)
def test_rank_table_boundary_rows(values):
    w = Permutation(tuple(values))
    r = rank_table(w)
    for q in range(w.n + 1):
        assert r[w.n][q] == q
    for p in range(w.n + 1):
        assert r[p][w.n] == p


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_length_complement_identity(n):
    w0 = longest_element(n)
    top = n * (n - 1) // 2
    for w in all_perms(n):
        assert length(w) + length(compose(w0, w)) == top


# ---------------------------------------------------------------------------
# Bruhat order


def _bruhat_by_covers(n):
    """Independent oracle: reflexive-transitive closure of length-1 steps.

    v is covered by v*t whenever the transposition t raises the length by
    exactly one; chaining such steps generates the whole order.
    """
    elems = all_perms(n)
    index = {w.values: i for i, w in enumerate(elems)}
    up = [[] for _ in elems]
    for i, v in enumerate(elems):
        for t in all_transpositions(n):
            vt = compose(v, t)
            if length(vt) == length(v) + 1:
                up[i].append(index[vt.values])
    reach = []
    for i in range(len(elems)):
        seen = {i}
        stack = [i]
        while stack:
            k = stack.pop()
            for j in up[k]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    return elems, index, reach


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bruhat_leq_matches_cover_closure(n):
    elems, index, reach = _bruhat_by_covers(n)
    for i, v in enumerate(elems):
        for j, w in enumerate(elems):
            assert bruhat_leq(v, w) == (j in reach[i]), (v.values, w.values)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bruhat_partial_order(n):
    elems = all_perms(n)
    below = []
    for v in elems:
        mask = 0
        for j, w in enumerate(elems):
            if bruhat_leq(v, w):
                mask |= 1 << j
        below.append(mask)
    for i, v in enumerate(elems):
        assert bruhat_leq(v, v)
        for j, w in enumerate(elems):
            vw = bool(below[i] & (1 << j))
            wv = bool(below[j] & (1 << i))
            if vw and wv:
                assert v == w  # antisymmetry
            if vw:
                # transitivity: everything above w is above v
                assert below[j] & below[i] == below[j]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bruhat_length_strictly_monotone(n):
    for v in all_perms(n):
        for w in all_perms(n):
            if v != w and bruhat_leq(v, w):
                assert length(v) < length(w)


@given(perm_strategy)
def test_bruhat_extremes(values):
    w = Permutation(tuple(values))
    assert bruhat_leq(identity(w.n), w)
    assert bruhat_leq(w, longest_element(w.n))


# ---------------------------------------------------------------------------
# excess region


@pytest.mark.parametrize("n", [2, 3, 4])
def test_region_empty_iff_equal(n):
    for v in all_perms(n):
        for w in all_perms(n):
            if not bruhat_leq(v, w):
                continue
            region = rank_excess_region(v, w)
            assert bool(region) == (v != w)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_region_avoids_last_row_and_column(n):
    for v in all_perms(n):
        for w in all_perms(n):
            if bruhat_leq(v, w):
                for p, q in rank_excess_region(v, w):
                    assert 1 <= p < n and 1 <= q < n


def test_region_frozen_example():
    # r_v and r_w computed by hand for v=2143, w=4231:
    # row 1: (0,1,1) vs (0,0,0); row 2: (1,2,2) vs (0,1,1);
    # row 3: (1,2,2) vs (0,1,2).
    v = make_permutation([2, 1, 4, 3])
    w = make_permutation([4, 2, 3, 1])
    assert rank_excess_region(v, w) == {
        (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
    }


# ---------------------------------------------------------------------------
# text round trips


def test_parse_both_forms():
    assert parse_permutation("4,2,3,1").values == (4, 2, 3, 1)
    assert parse_permutation("4231").values == (4, 2, 3, 1)
    assert parse_permutation(" 2, 1").values == (2, 1)
    assert parse_permutation("3 ,1,\t2 ").values == (3, 1, 2)


def test_parse_rejects_garbage():
    for bad in ("", "abc", "1,2,2", "0,1", "12x"):
        with pytest.raises(ValueError):
            parse_permutation(bad)
    # Signs, underscores and non-ASCII digits: int() accepts most of these.
    for bad in ("４２３１", "2,1_0,3,4,5,6,7,8,9,1", "+2,1", "²³¹", "2,-1", "2,١"):
        with pytest.raises(ValueError, match="malformed permutation"):
            parse_permutation(bad)


@given(st.one_of(st.text(), st.text(alphabet="0123456789 ,+-_²٣４")))
def test_parse_either_rejects_or_round_trips(text):
    try:
        w = parse_permutation(text)
    except ValueError:
        return
    assert parse_permutation(format_permutation(w)) == w


@given(perm_strategy)
def test_format_parse_round_trip(values):
    w = Permutation(tuple(values))
    assert parse_permutation(format_permutation(w)) == w


def test_format_is_comma_separated():
    assert format_permutation(make_permutation([4, 2, 3, 1])) == "4,2,3,1"
