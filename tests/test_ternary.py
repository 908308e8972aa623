import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum import ternary
from trisum.core_arith import MAX_INPUT, ConstructionFailed
from trisum.squares import three_squares, two_squares
from trisum.ternary import (
    MODULI,
    ROTATION,
    _parity_split,
    _balance_raw,
    _rep_mixed,
    _tt4t_mixed,
    _ttt_mixed,
    rep_2t_t_t,
    rep_square_two_tri,
)

from caches import package_caches

moduli = pytest.mark.parametrize("t", MODULI)


def _tri(k):
    return k * (k + 1) // 2


# the shape each representation promises, as a formula in its witness
_SHAPES = {
    rep_square_two_tri: lambda x, y, z: x * x + _tri(y) + _tri(z),
    rep_2t_t_t: lambda x, y, z: 2 * _tri(x) + _tri(y) + _tri(z),
    _ttt_mixed: lambda x, y, z: _tri(x) + _tri(y) + _tri(z),
    _tt4t_mixed: lambda x, y, z: _tri(x) + _tri(y) + 4 * _tri(z),
}


def test_constants_are_two_square_splittings():
    # each modulus is a prime 5 mod 8 whose rotation pair splits t^2 with
    # the even leg 0 mod 4 and the larger, and the moduli multiply past
    # 4 * MAX_INPUT + 3, so every 4n+3 has one coprime to it; theorem 2
    # tries them in this order
    assert MODULI == (5, 13, 61, 149, 157, 181, 269, 317, 389, 421)
    for t, (alpha, beta) in ROTATION.items():
        assert alpha**2 + beta**2 == t * t
        assert t % 8 == 5 and all(t % d for d in range(2, math.isqrt(t) + 1)), t
        assert alpha % 4 == 0 and alpha > beta, t
    assert math.prod(MODULI) > 4 * MAX_INPUT + 3


def test_universal_rep_known_values():
    # each tie rule's branches: equal roots, a tie between distinct roots,
    # the first root closer to the singleton, the second root closer
    assert rep_square_two_tri(0) == (0, 0, 0)
    assert rep_square_two_tri(1) == (1, 0, 0)
    assert rep_square_two_tri(4) == (2, 0, 0)
    assert rep_square_two_tri(7) == (0, 3, 1)
    assert rep_2t_t_t(0) == (0, 0, 0)
    assert rep_2t_t_t(3) == (1, 1, 0)
    assert rep_2t_t_t(7) == (0, 3, 1)
    assert rep_2t_t_t(10) == (2, 2, 1)


@pytest.mark.parametrize("rep_fn", [rep_square_two_tri, rep_2t_t_t])
@given(m=st.integers(min_value=0, max_value=100000))
@settings(max_examples=200)
def test_universal_reps_evaluate_back(rep_fn, m):
    rep = rep_fn(m)
    assert _SHAPES[rep_fn](*rep) == m
    assert min(rep) >= 0


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
def test_balance_raw_known_values(n, t, expected):
    a, b = _balance_raw(*two_squares(n // (t * t)), t)  # in construction order
    assert (max(a, b), min(a, b)) == expected


def test_mixed_rep_known_values():
    assert _ttt_mixed(9, 5) == (0, 3, 2)
    assert _ttt_mixed(63, 13) == (3, 8, 6)
    assert _ttt_mixed(1809, 5) == (35, 48, 2)
    assert _tt4t_mixed(18, 5) == (0, 3, 2)
    assert _tt4t_mixed(126, 13) == (3, 8, 6)
    assert _tt4t_mixed(793, 5) == (37, 12, 2)


def test_mixed_rep_preconditions():
    # theorem 2's class arithmetic never asks for these; if it did, the
    # construction failed where its proof says it cannot
    with pytest.raises(ConstructionFailed, match=r"5\^2 does not divide 8n"):
        _ttt_mixed(10, 5)  # 83 is not divisible by 25
    with pytest.raises(ConstructionFailed, match=r"5\^2 does not divide 8n"):
        _tt4t_mixed(10, 5)


@moduli
def test_mixed_reps_evaluate_back_and_mix_parity(t):
    # the first 300 eligible n of each shape: 8n+3 (8n+6) = t^2 * q with
    # q = 3 (6) mod 8, since t^2 = 1 mod 8
    tt = t * t
    hits = 0
    for rep_fn, c in ((_ttt_mixed, 3), (_tt4t_mixed, 6)):
        for q in range(c, 2400, 8):
            n = (tt * q - c) // 8
            x, y, z = rep_fn(n, t)
            assert _SHAPES[rep_fn](x, y, z) == n
            assert (x ^ y) & 1, (n, t)
            hits += 1
    assert hits == 600


_CACHES = package_caches()


def test_every_package_cache_is_found():
    expected = {"rep_ttt_mixed", "rep_tt4t_mixed", "rep_square_two_tri", "rep_2t_t_t", "_two_square_splits",
                "_peel_odd", "_peel_even"}
    assert expected <= set(_CACHES)


# the name predates the other caches; every cache the package defines must
# have a bound, so that a long run cannot grow one without limit
@pytest.mark.parametrize("cached", list(_CACHES.values()), ids=list(_CACHES))
def test_mixed_reps_have_a_bounded_cache(cached):
    assert cached.cache_info().maxsize is not None


@moduli
@pytest.mark.parametrize("k", [1, 2])
def test_cached_mixed_rep_equals_the_uncached_one(t, k):
    rep_fn = _ttt_mixed if k == 1 else _tt4t_mixed
    tt = t * t
    # the n with t^2 | 8n+2+k^2 form one class mod t^2
    n0 = -(2 + k * k) * pow(8, -1, tt) % tt
    rng = random.Random(1000 * t + k)
    for _ in range(200):
        n = n0 + tt * rng.randrange(10**9 // tt)
        first = rep_fn(n, t)
        assert rep_fn(n, t) == first == _rep_mixed(n, t, k), (n, t)


# --- the doubled shape with an odd first root balances the split it holds ---

# t^2 | 8n+6 at these n, and three_squares((8n+6)/t^2) is (a, b, c) with odd a:
# (1, 1, 2) for the first of each t, (3, 5, 6) for the second; t^2 = 1 mod 8,
# so the quotients 6 and 70 give integer n (18 and 218 for t = 5)
_ODD_FIRST_ROOT = {t: tuple((t * t * m - 6) // 8 for m in (6, 70)) for t in MODULI}


def _even_root(tri):
    # the root r of the doubled shape, and the two others
    a, b, c = tri
    if not a & 1:
        return a, b, c
    return (b, a, c) if not b & 1 else (c, a, b)


@moduli
def test_doubled_rep_balances_the_least_split_of_its_remainder(t, monkeypatch):
    balanced, listed = [], []
    real_balance, real_two = ternary._balance_raw, ternary.two_squares

    def balance(p, q, t):
        balanced.append((p, q))
        return real_balance(p, q, t)

    def two(m):
        listed.append(m)
        return real_two(m)

    monkeypatch.setattr(ternary, "_balance_raw", balance)
    monkeypatch.setattr(ternary, "two_squares", two)
    tt = t * t
    n0 = -6 * pow(8, -1, tt) % tt
    rng = random.Random(2 * t)
    seeded = [n0 + tt * rng.randrange(10**12 // tt) for _ in range(300)]
    firsts = []
    for n in (*_ODD_FIRST_ROOT[t], *seeded):
        m = (8 * n + 6) // tt
        tri = three_squares(m)
        r = _even_root(tri)[0]
        balanced.clear()
        listed.clear()
        _rep_mixed(n, t, 2)
        assert balanced == [tuple(real_two(m - r * r))], (n, t)
        # only an even first root asks two_squares for the split
        assert listed == ([] if tri[0] & 1 else [m - r * r]), (n, t)
        firsts.append(tri[0])
    assert firsts[:2] == [1, 3]
    assert sum(a & 1 for a in firsts) >= 50


def test_no_split_of_the_doubled_remainder_lies_below_the_odd_first_root():
    # every quotient of the doubled shape is 6 mod 8; a split q^2 + p^2 of
    # m - r^2 with q < a would give m the distinct triple (q, p, r), whose
    # first root is smaller than the one three_squares returned
    rng = random.Random(8)
    ms = [*range(6, 2 * 10**5, 8), *(8 * rng.randrange(1 << 37) + 6 for _ in range(2000))]
    odd_first = 0
    for m in ms:
        tri = three_squares(m)
        if tri[0] & 1:
            r, a, w = _even_root(tri)
            s = m - r * r
            assert s == a * a + w * w and a <= w, m
            assert all(math.isqrt(s - q * q) ** 2 != s - q * q for q in range(a)), m
            odd_first += 1
    assert odd_first > 5000


def test_mixed_rep_failures_are_not_cached():
    for cached in (_ttt_mixed, _tt4t_mixed):
        cached.cache_clear()
        for _ in range(2):
            with pytest.raises(ConstructionFailed):
                cached(10, 5)
        assert cached.cache_info().currsize == 0


# the universal representations shift m to 4m+1 and 4m+2, which pass 2^58
# well inside the input domain; each must take every m up to MAX_INPUT
@pytest.mark.parametrize("rep", [rep_square_two_tri, rep_2t_t_t])
@pytest.mark.parametrize("m", [MAX_INPUT // 8, MAX_INPUT // 8 + 1, MAX_INPUT - 1, MAX_INPUT])
def test_universal_reps_at_the_top_of_the_domain(rep, m):
    r = rep(m)
    assert _SHAPES[rep](*r) == m
    assert min(r) >= 0


@pytest.mark.parametrize("rep", [rep_square_two_tri, rep_2t_t_t])
def test_universal_reps_on_seeded_top_inputs(rep):
    rng = random.Random(58)
    for _ in range(30):
        m = rng.randint(1 << 56, MAX_INPUT)
        assert _SHAPES[rep](*rep(m)) == m
