import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum.core_arith import MAX_INPUT, triangular
from trisum.squares import three_squares
from trisum.ternary import (
    COMPOSITE_MODULUS,
    EVEN_LIFT_NARROW,
    EVEN_LIFT_WIDE,
    MODULI,
    ODD_LIFT,
    ROTATION,
    PreconditionViolated,
    _parity_split,
    TernaryRep,
    balance_odd_pair,
    lift_even_odd_pair,
    lift_odd_pair,
    rep_2t_t_t,
    rep_square_two_tri,
    rep_tt4t_mixed,
    rep_ttt_mixed,
)

moduli = pytest.mark.parametrize("t", MODULI)

# the shape each representation promises, as a formula in its witness
_SHAPES = {
    rep_square_two_tri: lambda x, y, z: x * x + triangular(y) + triangular(z),
    rep_2t_t_t: lambda x, y, z: 2 * triangular(x) + triangular(y) + triangular(z),
    rep_ttt_mixed: lambda x, y, z: triangular(x) + triangular(y) + triangular(z),
    rep_tt4t_mixed: lambda x, y, z: triangular(x) + triangular(y) + 4 * triangular(z),
}


def test_constants_are_two_square_splittings():
    assert COMPOSITE_MODULUS == 5 * 13 * 61
    for pair in (ODD_LIFT, EVEN_LIFT_WIDE, EVEN_LIFT_NARROW):
        assert pair[0] ** 2 + pair[1] ** 2 == COMPOSITE_MODULUS
    for t, (alpha, beta) in ROTATION.items():
        assert alpha**2 + beta**2 == t * t


def test_universal_rep_known_values():
    assert rep_square_two_tri(0) == TernaryRep(0, 0, 0)
    assert rep_square_two_tri(1) == TernaryRep(1, 0, 0)
    assert rep_square_two_tri(7) == TernaryRep(0, 3, 1)
    assert rep_2t_t_t(0) == TernaryRep(0, 0, 0)
    assert rep_2t_t_t(7) == TernaryRep(0, 3, 1)
    assert rep_2t_t_t(10) == TernaryRep(2, 2, 1)


@pytest.mark.parametrize("rep_fn", [rep_square_two_tri, rep_2t_t_t])
@given(m=st.integers(min_value=0, max_value=100000))
@settings(max_examples=200)
def test_universal_reps_evaluate_back(rep_fn, m):
    rep = rep_fn(m)
    assert _SHAPES[rep_fn](*rep) == m
    assert rep.x >= 0 and rep.y >= 0 and rep.z >= 0


def test_universal_reps_are_total_on_a_dense_range():
    # no eligibility condition: every shifted input must decompose
    for m in range(4000):
        assert _SHAPES[rep_square_two_tri](*rep_square_two_tri(m)) == m
        assert _SHAPES[rep_2t_t_t](*rep_2t_t_t(m)) == m


def _split_by_filter(tri, parity):
    # the selection the universal reps made before: the one component of the
    # given parity, then the other two sorted
    one = next(v for v in tri if v & 1 == parity)
    rest = sorted(v for v in tri if v & 1 != parity)
    return (one, *rest)


def test_parity_split_picks_the_same_roots_as_filtering():
    rng = random.Random(3965)
    ms = [*range(5000), *(rng.randint(5000, 1 << 40) for _ in range(300))]
    for m in ms:
        for v, parity in ((4 * m + 1, 1), (8 * m + 6, 0), (4 * m + 2, 0)):
            tri = three_squares(v)
            assert _parity_split(tri, parity) == _split_by_filter(tri, parity), v


@pytest.mark.parametrize(
    "n,t,expected",
    [(50, 5, (7, 1)), (338, 13, (17, 7)), (7442, 61, (71, 49))],
)
def test_balance_odd_pair_known_values(n, t, expected):
    assert balance_odd_pair(n, t) == expected


def test_balance_odd_pair_preconditions():
    with pytest.raises(ValueError):
        balance_odd_pair(50, 7)  # not a supported modulus
    with pytest.raises(PreconditionViolated):
        balance_odd_pair(52, 5)  # 25 does not divide 52
    with pytest.raises(PreconditionViolated):
        balance_odd_pair(100, 5)  # 100 = 4 mod 8, not two odd squares
    with pytest.raises(PreconditionViolated):
        balance_odd_pair(25 * 42, 5)  # 42 has no two-square splitting


@moduli
def test_balance_odd_pair_properties(t):
    rng = random.Random(t)
    for _ in range(300):
        x = 2 * rng.randint(0, 149) + 1
        y = 2 * rng.randint(0, 149) + 1
        n = t * t * (x * x + y * y)
        a, b = balance_odd_pair(n, t)
        assert a * a + b * b == n
        assert a >= b > 0
        assert a & 1 and b & 1
        assert a % 4 != b % 4


def test_mixed_rep_known_values():
    assert rep_ttt_mixed(9, 5) == TernaryRep(0, 3, 2)
    assert rep_ttt_mixed(63, 13) == TernaryRep(3, 8, 6)
    assert rep_ttt_mixed(1809, 5) == TernaryRep(35, 48, 2)
    assert rep_tt4t_mixed(18, 5) == TernaryRep(0, 3, 2)
    assert rep_tt4t_mixed(126, 13) == TernaryRep(3, 8, 6)
    assert rep_tt4t_mixed(793, 5) == TernaryRep(37, 12, 2)


def test_mixed_rep_preconditions():
    with pytest.raises(PreconditionViolated):
        rep_ttt_mixed(10, 5)  # 83 is not divisible by 25
    with pytest.raises(PreconditionViolated):
        rep_tt4t_mixed(10, 5)
    with pytest.raises(ValueError):
        rep_ttt_mixed(9, 6)


@moduli
def test_mixed_reps_evaluate_back_and_mix_parity(t):
    tt = t * t
    hits = 0
    for n in range(20000):
        if (8 * n + 3) % tt == 0:
            rep = rep_ttt_mixed(n, t)
            assert _SHAPES[rep_ttt_mixed](*rep) == n
            assert (rep.x ^ rep.y) & 1, (n, t)
            hits += 1
        if (8 * n + 6) % tt == 0:
            rep = rep_tt4t_mixed(n, t)
            assert _SHAPES[rep_tt4t_mixed](*rep) == n
            assert (rep.x ^ rep.y) & 1, (n, t)
            hits += 1
    assert hits > 0


def test_lift_odd_pair_known_values():
    assert lift_odd_pair(3, 1) == (125, 155)
    assert lift_odd_pair(5, 3) == (163, 329)
    assert lift_odd_pair(5, 1) == (187, 261)
    assert lift_odd_pair(1, 1) == (3, 89)
    # argument order must not matter
    assert lift_odd_pair(1, 3) == lift_odd_pair(3, 1)


def test_lift_odd_pair_preconditions():
    with pytest.raises(PreconditionViolated):
        lift_odd_pair(3, 3)  # same class, no wildcard component
    with pytest.raises(PreconditionViolated):
        lift_odd_pair(2, 1)
    with pytest.raises(PreconditionViolated):
        lift_odd_pair(7, 11)


@given(
    p=st.integers(min_value=0, max_value=500).map(lambda k: 2 * k + 1),
    q=st.integers(min_value=0, max_value=500).map(lambda k: 2 * k + 1),
)
@settings(max_examples=300)
def test_lift_odd_pair_closure(p, q):
    if p % 4 == q % 4 and p != 1 and q != 1:
        with pytest.raises(PreconditionViolated):
            lift_odd_pair(p, q)
        return
    a, b = lift_odd_pair(p, q)
    assert a * a + b * b == COMPOSITE_MODULUS * (p * p + q * q)
    assert a & 1 and b & 1
    assert a % 4 != b % 4
    assert a > 0 and b > 0


def test_lift_even_odd_pair_known_values():
    assert lift_even_odd_pair(6, 1) == (332, 191)
    assert lift_even_odd_pair(4, 1) == (218, 141)
    assert lift_even_odd_pair(2, 3) == (224, 37)
    assert lift_even_odd_pair(0, 1) == (46, 43)


def test_lift_even_odd_pair_preconditions():
    with pytest.raises(PreconditionViolated):
        lift_even_odd_pair(1, 2)
    with pytest.raises(PreconditionViolated):
        lift_even_odd_pair(2, 2)


@given(
    p=st.integers(min_value=0, max_value=500).map(lambda k: 2 * k),
    q=st.integers(min_value=0, max_value=500).map(lambda k: 2 * k + 1),
)
@settings(max_examples=300)
def test_lift_even_odd_pair_closure(p, q):
    a, b = lift_even_odd_pair(p, q)
    assert a * a + b * b == COMPOSITE_MODULUS * (p * p + q * q)
    assert not a & 1 and b & 1
    assert a >= b - 1


# the universal representations shift m to 4m+1 and 4m+2, which pass 2^58
# well inside the input domain; each must take every m up to MAX_INPUT
@pytest.mark.parametrize("rep", [rep_square_two_tri, rep_2t_t_t])
@pytest.mark.parametrize("m", [MAX_INPUT // 8, MAX_INPUT // 8 + 1, MAX_INPUT - 1, MAX_INPUT])
def test_universal_reps_at_the_top_of_the_domain(rep, m):
    r = rep(m)
    assert _SHAPES[rep](*r) == m
    assert min(r.x, r.y, r.z) >= 0


@pytest.mark.parametrize("rep", [rep_square_two_tri, rep_2t_t_t])
def test_universal_reps_on_seeded_top_inputs(rep):
    rng = random.Random(58)
    for _ in range(30):
        m = rng.randint(1 << 56, MAX_INPUT)
        assert _SHAPES[rep](*rep(m)) == m
    with pytest.raises(ValueError):
        rep(MAX_INPUT + 1)
