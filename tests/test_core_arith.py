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


@given(a=st.integers(min_value=0, max_value=5000), x=st.integers(min_value=0, max_value=5000))
@settings(max_examples=200)
def test_split_recombines_square_and_double_triangular(a, x):
    a, x = max(a, x), min(a, x)
    odd, even = _split_slots(a, x)
    assert odd >= 0 and even >= 0
    assert odd * (2 * odd - 1) + even * (2 * even + 1) == a * a + 2 * triangular(x)


def test_split_known_edges():
    # a^2 + 2T(x) = T(a+x) + T(a-x-1); a = x + 1 gives index 0, a = x index -1
    assert _split_slots(3, 1) == _slots(4, 1) == (1, 2)
    assert _split_slots(2, 1) == _slots(3, 0) == (2, 0)
    assert _split_slots(1, 0) == _slots(1, 0) == (1, 0)
    assert _split_slots(0, 0) == _slots(0, -1) == (0, 0)


def test_slots_known_values():
    # the index pairs of represent_thm1(201) and (202): (a, c) from the
    # first pair, (b, d) from the second
    (a, c), (b, d) = _slots(13, 10), _slots(9, 4)
    assert Quad1(a, b, c, d) == Quad1(7, 5, 5, 2)
    (a, c), (b, d) = _slots(9, 8), _slots(11, 10)
    assert Quad1(a, b, c, d) == Quad1(5, 6, 4, 5)
    # index -1 encodes a zero odd-slot term
    assert _slots(-1, 0) == _slots(0, -1) == (0, 0)
    assert _slots(1, 0) == (1, 0)


def test_slots_fill_one_odd_and_one_even_slot():
    # every index pair of opposite parity, index -1 included
    for i in range(-1, 301):
        for j in range(i + 1, 301, 2):
            odd, even = _slots(i, j)
            assert odd >= 0 and even >= 0
            assert odd * (2 * odd - 1) + even * (2 * even + 1) == triangular(i) + triangular(j)
            assert _slots(j, i) == (odd, even)


def test_split_slots_match_the_checked_split():
    # the split of a^2 + 2T(x) into T(a+x) + T(a-x-1), mapped to slots
    for a in range(301):
        for x in range(a):
            assert _split_slots(a, x) == _slots(a + x, a - x - 1)


@pytest.mark.parametrize("a", [0, 1, 2, 7, 300])
def test_split_slots_at_a_equal_x(a):
    # four_squares_to_quad2 reaches a == x (w = 2a+1): the indices are
    # (2a, -1), and index -1 puts a zero in the odd slot
    assert _split_slots(a, a) == _slots(2 * a, -1) == (0, a)
    assert a * (2 * a + 1) == a * a + 2 * triangular(a)
