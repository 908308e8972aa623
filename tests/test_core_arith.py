import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum.core_arith import MAX_INPUT, Quad1, Quad2, _quad, check_nat, eval_quad


def _tri(k):
    return k * (k + 1) // 2


def _slots(i, j):
    # the pair map _quad applies to each of its two index pairs, kept as the
    # reference: (odd slot, even slot) of an index pair of opposite parity
    if i & 1:
        return (i + 1) // 2, j // 2
    return (j + 1) // 2, i // 2


def _split_slots(a, x):
    # the reference's (odd slot, even slot) of a^2 + 2T(x) = T(a+x) + T(a-x-1)
    return _slots(a + x, a - x - 1)


def _split(a, x):
    # _quad on the split's index pair, given as both pairs: (a, c) and (b, d)
    # must agree
    q = _quad(Quad1, a + x, a - x - 1, a - x - 1, a + x)
    assert (q.a, q.c) == (q.b, q.d), (a, x)
    return q.a, q.c


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
    odd, even = _split(a, x)
    assert (odd, even) == _split_slots(a, x)
    assert odd >= 0 and even >= 0
    assert odd * (2 * odd - 1) + even * (2 * even + 1) == a * a + 2 * _tri(x)


def test_split_known_edges():
    # a^2 + 2T(x) = T(a+x) + T(a-x-1); a = x + 1 gives index 0, a = x index -1
    assert _split(3, 1) == _split_slots(3, 1) == _slots(4, 1) == (1, 2)
    assert _split(2, 1) == _split_slots(2, 1) == _slots(3, 0) == (2, 0)
    assert _split(1, 0) == _split_slots(1, 0) == _slots(1, 0) == (1, 0)
    assert _split(0, 0) == _split_slots(0, 0) == _slots(0, -1) == (0, 0)


def test_slots_known_values():
    # the index pairs of represent_thm1(201) and (202): (a, c) from the
    # first pair, (b, d) from the second
    assert _quad(Quad1, 13, 10, 9, 4) == Quad1(7, 5, 5, 2)
    assert _quad(Quad1, 9, 8, 11, 10) == Quad1(5, 6, 4, 5)
    # index -1 encodes a zero odd-slot term
    assert _quad(Quad1, -1, 0, 0, -1) == Quad1(0, 0, 0, 0)
    assert _slots(-1, 0) == _slots(0, -1) == (0, 0)
    assert _quad(Quad1, 1, 0, 0, 1) == Quad1(1, 1, 0, 0)


def test_slots_fill_one_odd_and_one_even_slot():
    # every index pair of opposite parity, index -1 included, in either order
    # and in either pair
    for i in range(-1, 301):
        for j in range(i + 1, 301, 2):
            odd, even = _slots(i, j)
            assert odd >= 0 and even >= 0
            assert odd * (2 * odd - 1) + even * (2 * even + 1) == _tri(i) + _tri(j)
            assert _slots(j, i) == (odd, even)
            assert _quad(Quad1, i, j, j, i) == _quad(Quad1, j, i, i, j) == Quad1(odd, odd, even, even)


def test_split_slots_match_the_checked_split():
    # the split of a^2 + 2T(x) into T(a+x) + T(a-x-1), mapped to slots
    for a in range(301):
        for x in range(a):
            assert _split(a, x) == _split_slots(a, x) == _slots(a + x, a - x - 1)


@pytest.mark.parametrize("a", [0, 1, 2, 7, 300])
def test_split_slots_at_a_equal_x(a):
    # four_squares_to_quad2 reaches a == x (w = 2a+1): the indices are
    # (2a, -1), and index -1 puts a zero in the odd slot
    assert _split(a, a) == _split_slots(a, a) == _slots(2 * a, -1) == (0, a)
    assert _quad(Quad2, 2 * a, -1, -1, 2 * a) == Quad2(0, 0, a, a)
    assert a * (2 * a + 1) == a * a + 2 * _tri(a)
