import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum.core_arith import (
    MAX_INPUT,
    Quad1,
    Quad2,
    _slots,
    _split_slots,
    check_nat,
    eval_quad,
    indices_to_quad1,
    split_square_plus_double_tri,
    triangular,
)


def test_triangular_small_values():
    assert [triangular(k) for k in range(-1, 8)] == [0, 0, 1, 3, 6, 10, 15, 21, 28]


def test_triangular_rejects_below_minus_one():
    with pytest.raises(ValueError):
        triangular(-2)


def test_check_nat_accepts_bounds():
    assert check_nat(0) == 0
    assert check_nat(MAX_INPUT) == MAX_INPUT


@pytest.mark.parametrize("bad", [-1, MAX_INPUT + 1, True, False, 1.0])
def test_check_nat_rejects(bad):
    with pytest.raises((ValueError, TypeError)):
        check_nat(bad)


def test_eval_quad_known_values():
    assert eval_quad("thm1", Quad1(7, 5, 5, 2)) == 201
    assert eval_quad("thm1", Quad1(5, 6, 4, 5)) == 202
    assert eval_quad("thm2", Quad2(48, 19, 50, 6)) == 20001
    assert eval_quad("thm2", Quad2(18, 63, 24, 65)) == 20002
    assert eval_quad("thm1", (0, 0, 0, 0)) == 0
    assert eval_quad("thm2", (0, 0, 0, 0)) == 0


def test_eval_quad_unknown_form():
    with pytest.raises(ValueError):
        eval_quad("thm3", (0, 0, 0, 0))


@given(a=st.integers(min_value=0, max_value=5000), b=st.integers(min_value=0, max_value=5000))
@settings(max_examples=200)
def test_split_recombines_square_and_double_triangular(a, b):
    i, j = split_square_plus_double_tri(a, b)
    assert i >= -1 and j >= -1
    assert triangular(i) + triangular(j) == a * a + 2 * triangular(b)


def test_split_known_edges():
    assert split_square_plus_double_tri(3, 1) == (4, 1)
    assert split_square_plus_double_tri(1, 1) == (2, 0)
    assert split_square_plus_double_tri(0, 0) == (0, 0)
    # a = b + 1 exercises the j = 0 edge, a <= b the other branch
    assert split_square_plus_double_tri(2, 1) == (3, 0)
    assert split_square_plus_double_tri(1, 3) == (4, 2)


def test_indices_to_quad1_known():
    assert indices_to_quad1(13, 10, 9, 4) == Quad1(7, 5, 5, 2)
    assert indices_to_quad1(9, 8, 11, 10) == Quad1(5, 6, 4, 5)
    # index -1 encodes a zero odd-slot term
    assert indices_to_quad1(-1, 0, 1, 0) == Quad1(0, 1, 0, 0)


@pytest.mark.parametrize("indices", [(1, 1, 1, 2), (2, 2, 2, 2), (1, 3, 5, 7)])
def test_indices_to_quad1_needs_two_of_each_parity(indices):
    with pytest.raises(ValueError):
        indices_to_quad1(*indices)


@given(
    odd=st.lists(st.integers(min_value=-1, max_value=999).map(lambda k: 2 * k + 1), min_size=2, max_size=2),
    even=st.lists(st.integers(min_value=0, max_value=999).map(lambda k: 2 * k), min_size=2, max_size=2),
    order=st.permutations(range(4)),
)
@settings(max_examples=200)
def test_indices_to_quad1_matches_triangular_sum(odd, even, order):
    merged = odd + even
    indices = [merged[i] for i in order]
    quad = indices_to_quad1(*indices)
    assert eval_quad("thm1", quad) == sum(triangular(i) for i in indices)


def test_slots_fill_one_odd_and_one_even_slot():
    # every index pair of opposite parity, index -1 included
    for i in range(-1, 301):
        for j in range(i + 1, 301, 2):
            odd, even = _slots(i, j)
            assert odd >= 0 and even >= 0
            assert odd * (2 * odd - 1) + even * (2 * even + 1) == triangular(i) + triangular(j)
            assert _slots(j, i) == (odd, even)


def test_split_slots_match_the_checked_split():
    for a in range(301):
        for x in range(a):
            assert _split_slots(a, x) == _slots(*split_square_plus_double_tri(a, x))


@pytest.mark.parametrize("a", [0, 1, 2, 7, 300])
def test_split_slots_at_a_equal_x(a):
    # four_squares_to_quad2 reaches a == x (w = 2a+1): the indices are
    # (2a, -1), where the checked split would return (2a, 0) instead
    assert _split_slots(a, a) == _slots(2 * a, -1) == (0, a)
    assert a * (2 * a + 1) == a * a + 2 * triangular(a)
