import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum import squares
from trisum.core_arith import MAX_INPUT
from trisum.ternary import rep_ttt_mixed
from trisum.squares import (
    NoRepresentation,
    NotRepresentable,
    ThreeSquares,
    TwoSquares,
    eligible_three_squares,
    three_squares,
    two_squares,
)


def _eligible_by_definition(m: int) -> bool:
    # strip factors of 4, then test the residue class directly
    while m % 4 == 0 and m > 0:
        m //= 4
    return m % 8 != 7


def test_eligibility_matches_definition():
    for m in range(20000):
        assert eligible_three_squares(m) == _eligible_by_definition(m), m


@pytest.mark.parametrize(
    "m,expected",
    [
        (0, (0, 0, 0)),
        (1, (0, 0, 1)),
        (2, (0, 1, 1)),
        (3, (1, 1, 1)),
        (5, (0, 1, 2)),
        (6, (1, 1, 2)),
        (14, (1, 2, 3)),
        (25, (0, 3, 4)),
        (29, (0, 2, 5)),
        (30, (1, 2, 5)),
        (42, (1, 4, 5)),
        (62, (1, 5, 6)),
        (254, (2, 5, 15)),
        (579, (1, 7, 23)),
    ],
)
def test_three_squares_canonical_values(m, expected):
    assert three_squares(m) == ThreeSquares(*expected)


@pytest.mark.parametrize("m", [7, 15, 23, 28, 112, 2**10 * 7])
def test_three_squares_rejects_ineligible(m):
    assert not eligible_three_squares(m)
    with pytest.raises(NotRepresentable):
        three_squares(m)


@given(st.integers(min_value=0, max_value=200000))
@settings(max_examples=300)
def test_three_squares_sound_and_ordered(m):
    if not eligible_three_squares(m):
        with pytest.raises(NotRepresentable):
            three_squares(m)
        return
    t = three_squares(m)
    assert t.a * t.a + t.b * t.b + t.c * t.c == m
    assert 0 <= t.a <= t.b <= t.c


def test_three_squares_prefers_distinct_components():
    # when a fully distinct decomposition exists at the same leading
    # component it wins over one with repeats
    assert three_squares(54) == (1, 2, 7)
    assert len(set(three_squares(30))) == 3
    # but inputs with no distinct option still come back first-found
    assert three_squares(3) == (1, 1, 1)
    assert three_squares(2) == (0, 1, 1)


@pytest.mark.parametrize(
    "m,expected",
    [(0, (0, 0)), (2, (1, 1)), (250, (15, 5)), (578, (23, 7))],
)
def test_two_squares_canonical_values(m, expected):
    assert two_squares(m) == TwoSquares(*expected)


@pytest.mark.parametrize("m", [3, 7, 21, 42, 2 * 9 * 49 * 3])
def test_two_squares_unrepresentable(m):
    with pytest.raises(NoRepresentation):
        two_squares(m)


@given(st.integers(min_value=0, max_value=50000))
@settings(max_examples=300)
def test_two_squares_returns_largest_leading_component(m):
    best = None
    for q in range(math.isqrt(m // 2) + 1):
        p2 = m - q * q
        p = math.isqrt(p2)
        if p * p == p2:
            best = (p, q)
            break
    if best is None:
        with pytest.raises(NoRepresentation):
            two_squares(m)
    else:
        assert two_squares(m) == best
        assert two_squares(m).p >= two_squares(m).q


# --- the factor path against the scan it replaces above FACTOR_FROM ---

def _scan_or_none(scan, m):
    try:
        return scan(m)
    except NoRepresentation:
        return None


def _factored_two_squares(m):
    splits = squares._two_square_splits(m)
    return TwoSquares(splits[0][1], splits[0][0]) if splits else None


def _splits_by_scan(m):
    return tuple(
        (q, math.isqrt(m - q * q))
        for q in range(math.isqrt(m // 2) + 1)
        if math.isqrt(m - q * q) ** 2 == m - q * q
    )


def test_factor_path_matches_scan_on_small_range():
    for m in range(20001):
        if eligible_three_squares(m):
            assert squares._three_squares_factored(m) == squares._three_squares_scan(m), m
        assert _factored_two_squares(m) == _scan_or_none(squares._two_squares_scan, m), m


def test_factor_path_matches_scan_on_seeded_inputs():
    rng = random.Random(2016)
    for _ in range(1000):
        m = rng.randint(1 << 16, 1 << 28)
        if eligible_three_squares(m):
            assert three_squares(m) == squares._three_squares_scan(m), m
        assert _scan_or_none(two_squares, m) == _scan_or_none(squares._two_squares_scan, m), m


@pytest.mark.parametrize(
    "m",
    [
        65537,  # prime 1 mod 4
        1000000009,  # prime 1 mod 4
        65539,  # prime 3 mod 4
        1000003,  # prime 3 mod 4
        99991**2,  # p^2, p = 3 mod 4
        3 * 65539**2,
        9 * 7**4 * 13 * 65537,
        *(1 << k for k in (16, 17, 24, 25)),
        2 * 65537,
        2 * 65537**2,
        2 * 13**7,
        2 * 1000033**2,
        5 * 13 * 17 * 29 * 37 * 41,  # 32 splits
        2 * 5 * 13 * 17 * 29 * 37 * 41,
        4 * 5**3 * 13**2 * 17 * 29,
    ],
)
def test_factor_path_matches_scan_on_edge_shapes(m):
    assert m >= squares.FACTOR_FROM
    assert squares._two_square_splits(m) == _splits_by_scan(m)
    assert _scan_or_none(two_squares, m) == _scan_or_none(squares._two_squares_scan, m)
    if eligible_three_squares(m):
        assert three_squares(m) == squares._three_squares_scan(m)


@pytest.mark.parametrize(
    "m,expected",
    [
        (65544, (2, 32, 254)),  # the split q == a comes first; the next one wins
        (65538, (3, 45, 252)),  # a = 1 has only q == a; a later a wins
        (67712, (24, 40, 256)),  # a = 0 has only q == p; a later a wins
        (65536, (0, 0, 256)),  # no distinct triple: the first one, q == a
        (68608, (96, 96, 224)),  # no distinct triple: the first one, q == a
        (68352, (80, 176, 176)),  # no distinct triple: the first one, q == p
        (3 * 4**9, (512, 512, 512)),  # no distinct triple: q == a == p
    ],
)
def test_factor_path_follows_the_scan_tie_rules(m, expected):
    assert squares._three_squares_scan(m) == expected
    assert three_squares(m) == expected


def test_large_splits_need_rho_and_square_roots():
    p3 = 1073741783  # prime 3 mod 4 near 2^30
    assert two_squares(p3 * p3) == (p3, 0)
    with pytest.raises(NoRepresentation):
        two_squares(p3 * 536870909)
    with pytest.raises(NoRepresentation):
        two_squares((1 << 61) - 1)  # a prime 3 mod 4
    m = 536870909 * 1000000009  # two primes 1 mod 4 near 2^29 and 2^30: two splits
    splits = squares._two_square_splits(m)
    assert len(splits) == 2
    assert all(q * q + p * p == m and q <= p for q, p in splits)
    assert two_squares(m) == (splits[0][1], splits[0][0])


def test_primality_and_gaussian_primes():
    small = {n for n in range(2, 1 << 16) if all(n % d for d in range(2, math.isqrt(n) + 1))}
    assert squares._ODD_PRIMES == tuple(sorted(p for p in small if 2 < p < 1 << 10))
    for n in range(1025, 1 << 16, 2):
        assert squares._is_prime(n) == (n in small), n
    # the least strong pseudoprime to the first k prime bases sits on the
    # bound that switches to more bases, so the bases used must catch it
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383):
        assert not squares._is_prime(n)
    assert squares._is_prime((1 << 61) - 1)
    for p in (*(p for p in small if p & 3 == 1), 1000000009, 536870909):
        a, b = squares._gaussian_prime(p)
        assert a * a + b * b == p


def test_domain_reaches_squares_max():
    top = 8 * MAX_INPUT + 6
    assert squares.SQUARES_MAX == top < 1 << 64
    t = three_squares(top)
    assert t.a * t.a + t.b * t.b + t.c * t.c == top
    assert 0 <= t.a <= t.b <= t.c
    for bad in (top + 1, -1, True, 2.0):
        with pytest.raises(ValueError):
            three_squares(bad)
        with pytest.raises(ValueError):
            two_squares(bad)


# --- multiples of 4: squares are 0 or 1 mod 4, so every triple is even ---

def test_multiples_of_four_are_twice_the_quarter():
    for m in range(1, 1 << 12):
        if eligible_three_squares(m):
            doubled = tuple(2 * v for v in three_squares(m))
            assert three_squares(4 * m) == squares._three_squares_scan(4 * m) == doubled, m


def test_multiples_of_four_match_the_unscaled_factor_path():
    rng = random.Random(4)
    for _ in range(200):
        m = rng.randint(1 << 16, 1 << 30)
        if eligible_three_squares(m):
            assert three_squares(4 * m) == squares._three_squares_factored(4 * m), m


@pytest.mark.parametrize(
    "m,expected",
    [
        (2**33, (0, 2**16, 2**16)),
        (2**60, (0, 0, 2**30)),
        (3 * 2**58, (2**29, 2**29, 2**29)),
        (2 * 4**29, (0, 2**29, 2**29)),
    ],
)
def test_powers_of_four_without_a_distinct_triple(m, expected):
    # the walk over every a up to sqrt(m/3) is skipped by taking out 4^k first
    assert three_squares(m) == expected


# --- the split listing is memoised: three_squares' last remainder is reused ---

def test_mixed_rep_reuses_the_last_listed_remainder():
    n = 10**12 + 9  # 25 | 8n+3; the quotient and its remainders are above FACTOR_FROM
    squares._two_square_splits.cache_clear()
    rep_ttt_mixed(n, 5)
    assert squares._two_square_splits.cache_info().hits >= 1


def test_split_listing_is_immutable():
    splits = squares._two_square_splits(5 * 13 * 65537)
    assert isinstance(splits, tuple) and len(splits) == 4
    assert all(isinstance(split, tuple) for split in splits)
    assert squares._two_square_splits(65539) == ()


def _outcome(fn, m):
    try:
        return fn(m)
    except (NoRepresentation, NotRepresentable) as exc:
        return type(exc)


def _interleaved(seed, lo, hi):
    # three_squares(m), two_squares of its last listed remainder, two_squares of another value
    rng = random.Random(seed)
    calls = []
    for _ in range(500):
        m = rng.randint(lo, hi)
        tri = _outcome(three_squares, m)
        calls.append((three_squares, m, tri))
        if isinstance(tri, ThreeSquares):
            rest = m - tri.a * tri.a
            calls.append((two_squares, rest, _outcome(two_squares, rest)))
        other = rng.randint(lo, hi)
        calls.append((two_squares, other, _outcome(two_squares, other)))
    return calls


def test_memoised_listing_matches_the_scan_when_interleaved():
    scans = {three_squares: squares._three_squares_scan, two_squares: squares._two_squares_scan}
    for fn, m, got in _interleaved(6, 1 << 16, 1 << 28):
        if fn is three_squares and not eligible_three_squares(m):
            assert got is NotRepresentable, m
        else:
            assert got == _outcome(scans[fn], m), (fn.__name__, m)


def test_memoised_listing_matches_a_cold_cache_when_interleaved():
    # above 2^28 the scans are too slow; the reference is the same call on an empty cache
    for fn, m, got in _interleaved(7, 1 << 28, 1 << 40):
        squares._two_square_splits.cache_clear()
        assert got == _outcome(fn, m), (fn.__name__, m)
