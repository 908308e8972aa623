import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum import squares, ternary, theorem1, theorem2
from trisum.core_arith import MAX_INPUT
from trisum.squares import NoRepresentation, NotRepresentable, three_squares, two_squares

from caches import clear_package_caches


def _eligible_by_definition(m: int) -> bool:
    # strip factors of 4, then test the residue class directly
    while m % 4 == 0 and m > 0:
        m //= 4
    return m % 8 != 7


def test_eligibility_matches_definition():
    for m in range(20000):
        if _eligible_by_definition(m):
            three_squares(m)
        else:
            with pytest.raises(NotRepresentable):
                three_squares(m)


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
    assert three_squares(m) == expected


@pytest.mark.parametrize("m", [7, 15, 23, 28, 112, 2**10 * 7])
def test_three_squares_rejects_ineligible(m):
    assert not _eligible_by_definition(m)
    with pytest.raises(NotRepresentable):
        three_squares(m)


@given(st.integers(min_value=0, max_value=200000))
@settings(max_examples=300)
def test_three_squares_sound_and_ordered(m):
    if not _eligible_by_definition(m):
        with pytest.raises(NotRepresentable):
            three_squares(m)
        return
    a, b, c = three_squares(m)
    assert a * a + b * b + c * c == m
    assert 0 <= a <= b <= c


def test_three_squares_prefers_distinct_components():
    # when a fully distinct decomposition exists at the same leading
    # component it wins over one with repeats
    assert three_squares(54) == (1, 2, 7)
    assert len(set(three_squares(30))) == 3
    # but inputs with no distinct option still come back first-found
    assert three_squares(3) == (1, 1, 1)
    assert three_squares(2) == (0, 1, 1)


def test_no_remainder_the_scan_reaches_splits_below_its_root():
    # three_squares takes each split as listed: at every a up to the first
    # root of its triple, m - a^2 has no split (q, p) with q < a (module
    # docstring), on every m up to 2*10^5 and on seeded m below 2^40
    rng = random.Random(2440)
    seeded = []
    while len(seeded) < 2000:
        m = rng.randrange(1 << 40)
        if _eligible_by_definition(m):
            seeded.append(m)
    for m in (*filter(_eligible_by_definition, range(200001)), *seeded):
        for a in range(three_squares(m)[0] + 1):
            assert all(q >= a for q, _ in squares._two_square_splits(m - a * a)), (m, a)


def _odd_part_3_mod_4(r):
    # r > 0 with its factors of 2 taken out is 3 mod 4: r has a prime 3 mod 4
    # to an odd power, so no split
    while r % 2 == 0:
        r //= 2
    return r % 4 == 3


_PRIMES_3_MOD_4_BELOW_2_10 = tuple(
    p for p in range(3, 1 << 10, 4) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))
)


def _gcd_rule_rejects(r):
    # three_squares' second skip: some prime 3 mod 4 below 2^10 divides r
    # exactly once
    return any(r % p == 0 and r % (p * p) for p in _PRIMES_3_MOD_4_BELOW_2_10)


def _skipped_roots(m, stop):
    # the a below stop that leave m = 2 mod 4 a remainder 6 mod 8, twice an
    # odd part 3 mod 4: a = 0 mod 4 for m = 6 mod 8, a = 2 mod 4 for m = 2 mod 8
    return range(0 if m & 4 else 2, stop, 4)


def test_remainders_the_mod_8_rule_skips_have_no_split(monkeypatch):
    # three_squares skips every remainder whose odd part is 3 mod 4, and
    # every one the gcd rule finds a prime 3 mod 4 below 2^10 dividing
    # exactly once (module docstring).  Below 2*10^5, against every sum of
    # two squares: each such r (the remainders of every m up to the limit
    # lie in [0, limit]) and, for m = 2 mod 4, each a up to isqrt(m // 3)
    # that leaves 6 mod 8.  On seeded m = 2 mod 4 below 2^40, against the
    # scan, each such a up to the triple's first root.
    limit = 200000
    sums = bytearray(limit + 1)
    for q in range(math.isqrt(limit) + 1):
        for p in range(q, math.isqrt(limit - q * q) + 1):
            sums[q * q + p * p] = 1
    skipped = [r for r in range(1, limit + 1) if _odd_part_3_mod_4(r)]
    assert skipped and not any(sums[r] for r in skipped)
    # the gcd skip, which takes one product of the primes 3 mod 4 below 2^10;
    # 1617 = 3 * 7^2 * 11 and 11021 = 103 * 107 have a prime once, 45 = 3^2 * 5
    # has none
    assert len(_PRIMES_3_MOD_4_BELOW_2_10) == 88
    assert squares._FERMAT == math.prod(_PRIMES_3_MOD_4_BELOW_2_10)
    assert _gcd_rule_rejects(1617) and _gcd_rule_rejects(11021) and not _gcd_rule_rejects(45)
    listed, real = [], squares._two_square_splits
    monkeypatch.setattr(squares, "_two_square_splits", lambda r: listed.append(r) or real(r))
    for m in (1617, 11021, 45):  # a = 0 leaves m itself
        three_squares(m)
    assert 1617 not in listed and 11021 not in listed and 45 in listed
    monkeypatch.undo()
    skipped = [r for r in range(1, limit + 1) if _gcd_rule_rejects(r)]
    assert skipped and not any(sums[r] for r in skipped)
    for m in range(2, limit + 1, 4):
        assert not any(sums[m - a * a] for a in _skipped_roots(m, math.isqrt(m // 3) + 1)), m
    rng = random.Random(2826)
    for _ in range(2000):
        m = rng.randrange(1 << 40) >> 2 << 2 | 2
        for a in _skipped_roots(m, three_squares(m)[0] + 1):
            assert _splits_by_scan(m - a * a) == (), (m, a)


def test_three_squares_lists_no_remainder_6_mod_8(monkeypatch):
    # nor any other remainder whose odd part is 3 mod 4, for m of every class
    listed = []
    real = squares._two_square_splits

    def spy(r):
        listed.append(r)
        return real(r)

    monkeypatch.setattr(squares, "_two_square_splits", spy)
    rng = random.Random(68)
    inputs = (
        *range(2, 20001, 4),
        *(rng.randrange(1 << 40) >> 2 << 2 | 2 for _ in range(2000)),
        *range(20001),
        *(rng.randrange(1 << 40) for _ in range(2000)),
    )
    for m in filter(_eligible_by_definition, inputs):
        three_squares(m)
    assert listed and not [r for r in listed if r & 7 == 6]
    assert not [r for r in listed if r and _odd_part_3_mod_4(r)]
    assert not [r for r in listed if r and _gcd_rule_rejects(r)]


@pytest.mark.parametrize(
    "m,expected",
    [(0, (0, 0)), (2, (1, 1)), (250, (15, 5)), (578, (23, 7))],
)
def test_two_squares_canonical_values(m, expected):
    assert two_squares(m) == expected


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
        p, q = two_squares(m)
        assert p >= q


# --- the factor path against a direct q-scan, the tests' reference ---

# q is the smaller root of a split q^2 + p^2 = m only if m - q^2 is a square
# mod 720 = 16 * 9 * 5; _WHEEL[r] lists the q mod 720 that pass for m = r
_WHEEL_MOD = 720
_SQUARES_MOD = {x * x % _WHEEL_MOD for x in range(_WHEEL_MOD)}
_WHEEL = [
    tuple(q for q in range(_WHEEL_MOD) if (r - q * q) % _WHEEL_MOD in _SQUARES_MOD)
    for r in range(_WHEEL_MOD)
]


def _split_candidates(m, lo=0):
    # the q in [lo, sqrt(m/2)] that pass the wheel, ascending: every split
    # with lo <= q <= p has its q among them
    qmax = math.isqrt(m // 2)
    wheel = _WHEEL[m % _WHEEL_MOD]
    for base in range(lo - lo % _WHEEL_MOD, qmax + 1, _WHEEL_MOD):
        for q in wheel:
            q += base
            if q > qmax:
                return
            if q >= lo:
                yield q


def _three_squares_scan(m):
    # for each a, q runs over the wheel's candidates from a
    first = None
    for a in range(math.isqrt(m // 3) + 1):
        resid = m - a * a
        for q in _split_candidates(resid, a):
            p = math.isqrt(resid - q * q)
            if p * p == resid - q * q:
                if a < q < p:
                    return a, q, p
                if first is None:
                    first = a, q, p
    if first is None:
        raise NotRepresentable(f"no three-square decomposition of {m}")
    return first


def _splits_by_scan(m):
    return tuple(
        (q, p)
        for q in _split_candidates(m)
        if (p := math.isqrt(m - q * q)) ** 2 == m - q * q
    )


def test_wheel_keeps_every_split():
    # against a scan of every q
    for m in range(20001):
        every = tuple(
            (q, p) for q in range(math.isqrt(m // 2) + 1) if (p := math.isqrt(m - q * q)) ** 2 == m - q * q
        )
        assert _splits_by_scan(m) == every, m


def _two_squares_scan(m):
    # the reference for two_squares: the scanned split with the smallest q
    for q in _split_candidates(m):
        if (p := math.isqrt(m - q * q)) ** 2 == m - q * q:
            return p, q
    raise NoRepresentation(f"{m} is not a sum of two squares")


def _scan_or_none(scan, m):
    try:
        return scan(m)
    except NoRepresentation:
        return None


def test_factor_path_matches_scan_on_small_range():
    for m in range(20001):
        if _eligible_by_definition(m):
            assert three_squares(m) == _three_squares_scan(m), m
        assert _scan_or_none(two_squares, m) == _scan_or_none(_two_squares_scan, m), m


def test_factor_path_matches_scan_on_seeded_inputs():
    rng = random.Random(2016)
    for _ in range(1000):
        m = rng.randint(1 << 16, 1 << 28)
        if _eligible_by_definition(m):
            assert three_squares(m) == _three_squares_scan(m), m
        assert _scan_or_none(two_squares, m) == _scan_or_none(_two_squares_scan, m), m


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
        # the first split prime contributes its powers up to half its exponent
        5**2 * 13,
        2 * 5**2 * 13,
        5**3 * 29**2,
        2 * 5**3 * 29**2,
        8 * 5**3 * 13,
        13**4 * 17,
        2 * 13**4 * 17,
        4 * 5**4 * 13 * 17,
        5**2 * 13**2 * 17**2,
        2 * 1033**3,  # the first split prime above the trial bound
        1033**4,
    ],
)
def test_factor_path_matches_scan_on_edge_shapes(m):
    assert squares._two_square_splits(m) == _splits_by_scan(m)
    assert _scan_or_none(two_squares, m) == _scan_or_none(_two_squares_scan, m)
    if _eligible_by_definition(m):
        assert three_squares(m) == _three_squares_scan(m)


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
    assert _three_squares_scan(m) == expected
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


# --- below 2^26 a rough cofactor is decided without Miller-Rabin or rho ---

# listings pinned before the gcd stage decided the cofactors below 2^26;
# the digest must not move when the factoring inside the listing changes
LISTING_DIGEST = "c02ecb1e4662e16ed3e9526b6c11d2df22bbeb82026689d146aa64ee16cd5cd7"

# cofactors on both sides of the gcd stage's limits: products of the
# primes in [2^10, 2^13), alone, squared, times a prime above 2^13 and
# times small factors, and the values around 2^26
_LISTING_EDGES = (
    1031 * 1033,
    1031**2,
    8179 * 8191,  # 66,994,189
    8191**2,  # 67,092,481
    67108837,  # the largest prime 1 mod 4 below 2^26
    67108859,  # the largest prime 3 mod 4 below 2^26
    *((1 << 26) + d for d in range(-15, 16, 2)),
    1031 * 8209,
    1033 * 8221,
    1031 * 65089,
    1033 * 64951,
    4093 * 16381,
    1033 * 1049 * 1061,  # three mid-range primes, above 2^26
    8191 * 8209,  # above 2^26
    8209 * 8221,  # the least product of two primes above 2^13, above 2^26
    2 * 8179 * 8191,
    25 * 8191**2,
    5 * 1033 * 1049,
)


def _listing_inputs():
    rng = random.Random(26)
    for _ in range(20000):
        yield rng.randrange(1 << 20, 1 << 27)
    yield from _LISTING_EDGES


def test_listing_matches_its_pinned_digest():
    squares._two_square_splits.cache_clear()
    h = hashlib.sha256()
    for n in _listing_inputs():
        h.update(f"{n} {squares._two_square_splits(n)!r}\n".encode())
    assert h.hexdigest() == LISTING_DIGEST


# pinned before the listing's body and the top band's factoring were
# rewritten: the listings of seeded r in [2^26, 2^44), whose cofactors reach
# Miller-Rabin, rho and the mid-prime gcd, and the witnesses of both
# theorems on the same seeded n in [2^56, 2^58]
WIDE_LISTING_DIGEST = "c8117021d14a791a1a9f9c727d4cd7352878067a03afa09c838d1081c1d33347"
TOP_BAND_DIGEST = "2881905b615586f2716ead799291dbd59c13a7722f49043163c0ed23cc9fb762"


def _wide_listing_digest():
    squares._two_square_splits.cache_clear()
    rng = random.Random(44)
    h = hashlib.sha256()
    for _ in range(5000):
        n = rng.randrange(1 << 26, 1 << 44)
        h.update(f"{n} {squares._two_square_splits(n)!r}\n".encode())
    return h.hexdigest()


def _top_band_digest():
    clear_package_caches()
    rng = random.Random(58)
    h = hashlib.sha256()
    for _ in range(300):
        n = rng.randint(1 << 56, 1 << 58)
        for represent in (theorem1.represent_thm1, theorem2.represent_thm2):
            h.update(f"{represent.__name__}({n}) = {tuple(represent(n))!r}\n".encode())
    return h.hexdigest()


def test_wide_listings_and_top_band_witnesses_match_their_pinned_digests():
    assert _wide_listing_digest() == WIDE_LISTING_DIGEST
    assert _top_band_digest() == TOP_BAND_DIGEST


# pinned before the primes in [2^10, 2^13) moved into the trial loop: the
# listings of seeded products of 1 to 4 of those primes, each to the power
# 1 to 3, times a small factor.  Nothing in them reaches Miller-Rabin, so
# the listing is exact past 2^64 too.
MID_PASS_DIGEST = "8ad4757c1eb56028bc1e06ee7a1407ad869cbe768b9b3e2255422578f5dd03c2"


def test_mid_prime_products_match_their_pinned_digest():
    squares._two_square_splits.cache_clear()
    rng = random.Random(13)
    h = hashlib.sha256()
    for _ in range(50000):
        n = rng.choice((1, 2, 5, 9, 13, 25, 441))
        for p in rng.sample(squares._MID_PRIMES, rng.randint(1, 4)):
            n *= p ** rng.randint(1, 3)
        h.update(f"{n} {squares._two_square_splits(n)!r}\n".encode())
    assert h.hexdigest() == MID_PASS_DIGEST


@pytest.mark.parametrize("n", _LISTING_EDGES)
def test_listing_edges_match_the_scan(n):
    squares._two_square_splits.cache_clear()
    assert squares._two_square_splits(n) == _splits_by_scan(n)


def _refuse(name):
    def call(*args):
        raise AssertionError(f"{name}{args} called below 2^26")

    return call


def test_listings_below_two_to_the_26_need_no_primality_test(monkeypatch):
    monkeypatch.setattr(squares, "_is_prime", _refuse("_is_prime"))
    monkeypatch.setattr(squares, "_rho_factor", _refuse("_rho_factor"))
    squares._two_square_splits.cache_clear()
    rng = random.Random(2026)
    for n in (*(rng.randrange(1 << 20, 1 << 26) for _ in range(20000)), *_LISTING_EDGES):
        if n < 1 << 26:
            squares._two_square_splits(n)


def test_listings_above_two_to_the_26_still_reach_both(monkeypatch):
    calls = {"_is_prime": 0, "_rho_factor": 0}
    for name in calls:
        real = getattr(squares, name)

        def counted(n, name=name, real=real):
            calls[name] += 1
            return real(n)

        monkeypatch.setattr(squares, name, counted)
    squares._two_square_splits.cache_clear()
    assert len(squares._two_square_splits(8209 * 8221)) == 2
    assert len(squares._two_square_splits(536870909 * 1000000009)) == 2
    assert calls["_is_prime"] > 0 and calls["_rho_factor"] > 0


def test_a_small_prime_3_mod_4_to_an_odd_power_returns_before_the_cofactor(monkeypatch):
    # 21 * P with P a prime 1 mod 4 above 2^26: the trial loop meets 3 to
    # the first power, so the listing is empty and P is never factored
    p = 1000000009
    assert p >= 1 << 26 and p & 3 == 1 and all(p % d for d in range(2, math.isqrt(p) + 1))

    def refuse(*args):
        raise AssertionError(f"_factor_rough{args} called")

    monkeypatch.setattr(squares, "_factor_rough", refuse)
    squares._two_square_splits.cache_clear()
    assert squares._two_square_splits(21 * p) == ()


def test_a_mid_prime_3_mod_4_to_an_odd_power_returns_before_the_cofactor(monkeypatch):
    # 1031 * P with P a prime 3 mod 4 above 2^26: the mid pass meets 1031
    # to the first power, so P is neither tested nor factored
    p = 67108879
    assert p >= 1 << 26 and p & 3 == 3 and _is_prime_by_division(p)
    for name in ("_is_prime", "_factor_rough"):

        def refuse(*args, name=name):
            raise AssertionError(f"{name}{args} called")

        monkeypatch.setattr(squares, name, refuse)
    squares._two_square_splits.cache_clear()
    assert squares._two_square_splits(1031 * p) == ()


def _is_prime_by_division(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


@pytest.mark.parametrize("lo,hi", [(5, 1 << 10), (1 << 10, 1 << 13), (1 << 20, 1 << 26)])
def test_one_prime_listings_match_the_scan(lo, hi):
    # p, 2p, p*s^2 and 2p*s^2 for primes p = 1 mod 4 below the trial bound,
    # among the mid primes and in the cofactor band, with squares of 2 and
    # of primes 3 mod 4 (1031 from the cofactor): one split, read off p's
    # Gaussian prime, times 1 + i for the odd powers of 2
    rng = random.Random(lo)
    candidates = (lo, hi - 1, *(rng.randrange(lo, hi) for _ in range(4)))
    primes = []
    for start in candidates:
        p = start | 1
        while not (p & 3 == 1 and _is_prime_by_division(p)):
            p += -2 if start == hi - 1 else 2
        primes.append(p)
    assert primes[0] >= lo and primes[1] < hi
    for p in primes:
        for s in (1, 3, 14, 1031):
            for m in (p * s * s, 2 * p * s * s):
                if m < 1 << 36:
                    splits = squares._two_square_splits(m)
                    assert len(splits) == 1 and splits == _splits_by_scan(m), m


# odd and even powers of 2, and squares of primes 3 mod 4, one from trial
# division (3, 7) and one from the cofactor (1031)
_SPLIT_FREE = (1, 2, 4, 8, 9, 18, 4 * 49, 8 * 9 * 49, 1031**2, 2 * 1031**2)


@pytest.mark.parametrize(
    "primes",
    [
        (5, 13),
        (5, 1033),
        (13, 8209),
        (1013, 1033),  # the largest trial prime 1 mod 4, the least mid one
        (5, 13, 17),
        (5, 17, 1033),
        (13, 1033, 8209),
    ],
)
def test_multi_prime_listings_match_the_scan(primes):
    # primes 1 mod 4 from the Gaussian table and above the trial bound, each
    # to the power 1 to 3, times squares and powers of 2, below 2^36
    squares._two_square_splits.cache_clear()
    checked = 0
    for exps in itertools.product((1, 2, 3), repeat=len(primes)):
        core = math.prod(p**e for p, e in zip(primes, exps))
        for m in (core * s for s in _SPLIT_FREE if core * s < 1 << 36):
            splits = squares._two_square_splits(m)
            assert splits == _splits_by_scan(m), m
            checked += 1
    assert checked >= 15


@pytest.mark.parametrize(
    "m,expected",
    [
        # 5^2 * 13: the first prime's middle power 5 times pi and conj(pi)
        # of 13 gives (10, 15) twice, which the listing keeps once
        (325, ((1, 18), (6, 17), (10, 15))),
        (2 * 5 * 13 * 17, ((1, 47), (19, 43), (23, 41), (29, 37))),
    ],
)
def test_multi_prime_listings_list_each_split_once(m, expected):
    squares._two_square_splits.cache_clear()
    assert squares._two_square_splits(m) == _splits_by_scan(m) == expected


# --- the mid pass: the primes in [2^10, 2^13) come out of the trial loop ---

# listings pinned before the mid primes moved from _factor_rough into the
# trial loop, for the products below that reach past the scan's 2^36
_PINNED_LISTINGS = {
    69578260859: (),
    69933811793: ((1033, 264448), (48137, 260032), (50167, 259648)),
    137220947959: (),
    274441895918: (),
    275817778333: ((88618, 517653), (221643, 476122), (339062, 401067)),
    1049000009441: ((37096, 1023535), (276904, 986065)),
    1129886087521: ((0, 1062961),),
    1174225802689: ((0, 1083617), (132992, 1075425), (201408, 1064735), (330560, 1031967), (516608, 952545)),
    1234988531631: (),
    2348451605378: ((435937, 1469153), (701407, 1362527), (863327, 1266143), (942433, 1208417), (1083617, 1083617)),
    9063823925327: (),
    10568032224201: ((0, 3250851), (398976, 3226275), (604224, 3194205), (991680, 3095901), (1549824, 2857635)),
    18127647850654: (),
    69083908058929: ((0, 8311673),),
    70137492784969: ((0, 8374813),),
    71735186945629: ((4286898, 7304635), (5920002, 6057125)),
    81574415327943: (),
    1123976784732169: ((0, 33525763), (21583285, 25654212)),
    1185355849496473: ((3213627, 34278688),),
}


def _listing_reference(m):
    return _splits_by_scan(m) if m < 1 << 36 else _PINNED_LISTINGS[m]


def _made_even(factors):
    # the product times each prime 3 mod 4 it holds to an odd power: its
    # listing is not (), and it depends on every prime and exponent
    return math.prod(factors) * math.prod(p for p in set(factors) if p & 3 == 3 and factors.count(p) & 1)


def _refuse_primality(monkeypatch):
    monkeypatch.setattr(squares, "_is_prime", _refuse("_is_prime"))
    monkeypatch.setattr(squares, "_rho_factor", _refuse("_rho_factor"))


@pytest.mark.parametrize(
    "factors",
    [
        # below 2^23: the smaller factor is at most isqrt(2^23) = 2896
        (2887, 2897),
        (2887, 2887),
        (2879, 2887),
        (1031, 8123),
        (8388593,),  # the largest prime below 2^23
        # from 2^23 on: the mid primes whose square is below 2^24
        (2897, 2897),
        (2897, 2903),
        (2887, 2909),
        (2897, 2909),
        (1031, 8161),
        (8388617,),  # the least prime above 2^23
    ],
)
def test_cofactors_on_both_sides_of_two_to_the_23(factors, monkeypatch):
    _refuse_primality(monkeypatch)
    n = math.prod(factors)
    squares._two_square_splits.cache_clear()
    for m in (n, 4 * 9 * n, _made_even(factors)):
        assert squares._two_square_splits(m) == _listing_reference(m), m


@pytest.mark.parametrize("k", range(21, 27))
def test_cofactors_at_each_bit_length(k, monkeypatch):
    # a cofactor of k bits takes its gcd with the mid primes whose square is
    # below 2^k: the largest such prime as the smaller factor, and the least
    # prime past it one bit length up, where the next product takes it in
    _refuse_primality(monkeypatch)
    inside = [p for p in squares._MID_PRIMES if p * p < 1 << k]
    assert squares._MID_GCD[k] == math.prod(inside)
    p = inside[-1]
    q = next(q for q in range(p, 1 << 26, 2) if _is_prime_by_division(q) and (p * q).bit_length() == k)
    past = squares._MID_PRIMES[len(inside)] if k < 26 else None
    for factors in ((p, q), (p, p), *([(past, past)] if past else ())):
        n = math.prod(factors)
        assert n.bit_length() <= 26
        squares._two_square_splits.cache_clear()
        for m in (n, _made_even(factors)):
            assert squares._two_square_splits(m) == _listing_reference(m), factors


def _strong_probable_prime(n, base):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    return x in (1, n - 1) or any(pow(x, 1 << i, n) == n - 1 for i in range(1, s))


def test_jaeschke_bases_below_their_bound():
    # below 4759123141 Miller-Rabin runs the bases 2, 7 and 61 (Jaeschke);
    # the bound itself, 48781 * 97561, passes all three, so from it on the
    # next row's five bases run
    bound = 4759123141
    assert squares._MR_BOUNDS[0] == (bound, (2, 7, 61))
    assert bound == 48781 * 97561 and all(_strong_probable_prime(bound, b) for b in (2, 7, 61))
    assert not squares._is_prime(bound)
    limit = math.isqrt(bound + 200)
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, limit + 1, d)))
    divisors = [d for d in range(3, limit + 1, 2) if sieve[d]]
    # odd n on both sides of the bound, and the least strong pseudoprime to
    # the bases 2, 3, 5 and 7 below it
    for n in (*range(bound - 200, bound + 200, 2), 3215031751):
        assert squares._is_prime(n) == all(n % d for d in divisors if d * d <= n), n


@pytest.mark.parametrize(
    "factors",
    [
        (1031, 1031),  # p^2, below 2^26
        (8191, 8191),
        (1031, 1031, 1031),  # p^3, above 2^26
        (1031, 1033, 1039),  # p*q*r
        (4093, 4093, 8191),  # p^2*q
        (1033, 1033, 1049, 1049),  # p^2*q^2
        (1031, 1033, 1039, 8191),
    ],
)
def test_cofactors_made_of_mid_primes_need_no_primality_test(factors, monkeypatch):
    # one gcd with the mid primes finds them all, and the mid pass takes
    # each out to its full power: no Miller-Rabin, no rho
    _refuse_primality(monkeypatch)
    n = math.prod(factors)
    squares._two_square_splits.cache_clear()
    for m in (n, 2 * n, 9 * n, _made_even(factors)):
        if m < 1 << 64:  # the listing's domain
            assert squares._two_square_splits(m) == _listing_reference(m), m


@pytest.mark.parametrize(
    "n,expected",
    [
        (1031 * 8209 * 8221, {1031: 1, 8209: 1, 8221: 1}),  # a mid prime times a rho cofactor
        (1033**2 * 65537, {1033: 2, 65537: 1}),
        (4093 * 8209**2, {4093: 1, 8209: 2}),
        (1049 * 1000000009, {1049: 1, 1000000009: 1}),
    ],
)
def test_mid_primes_come_out_before_the_primality_test(n, expected, monkeypatch):
    tested = []
    real = squares._is_prime
    monkeypatch.setattr(squares, "_is_prime", lambda m: tested.append(m) or real(m))
    factors = tuple(p for p, e in expected.items() for _ in range(e))
    assert math.prod(factors) == n
    squares._two_square_splits.cache_clear()
    for m in (n, _made_even(factors)):
        assert squares._two_square_splits(m) == _listing_reference(m), m
    assert not [m for m in tested if math.gcd(m, squares._MID_PRIMORIAL) > 1]


def test_primality_and_gaussian_primes():
    small = {n for n in range(2, 1 << 16) if all(n % d for d in range(2, math.isqrt(n) + 1))}
    assert squares._ODD_PRIMES == tuple(sorted(p for p in small if 2 < p < 1 << 10))
    assert squares._MID_PRIMES == tuple(sorted(p for p in small if 1 << 10 < p < 1 << 13))
    assert squares._MID_PRIMORIAL == math.prod(squares._MID_PRIMES)
    for n in range(1025, 1 << 16, 2):
        assert squares._is_prime(n) == (n in small), n
    # the least strong pseudoprime to the first k prime bases (OEIS A014233)
    # must be caught: the first four lie below Jaeschke's bound, where the
    # bases 2, 7 and 61 run, and from 2152302898747 up each sits on the
    # bound that switches to more bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383):
        assert not squares._is_prime(n)
    assert squares._is_prime((1 << 61) - 1)
    for p in (*(p for p in small if p & 3 == 1), 1000000009, 536870909):
        a, b = squares._gaussian_prime(p)
        assert a * a + b * b == p and a > b, p  # the one-prime listing relies on a > b


def _gaussian_prime_by_least_non_residue(p):
    # Hermite-Serret from the least c whose power is a square root of -1
    for c in itertools.count(2):
        x = pow(c, (p - 1) // 4, p)
        if x * x % p == p - 1:
            break
    a, b = p, x
    while b * b > p:
        a, b = b, a % b
    return b, math.isqrt(p - b * b)


def test_non_residue_table_flags_the_non_squares():
    assert [c for c, _ in squares._NON_RESIDUES] == [c for c in squares._ODD_PRIMES if c < 64]
    for c, flags in squares._NON_RESIDUES:
        squares_mod_c = {x * x % c for x in range(c)}
        assert list(flags) == [r not in squares_mod_c for r in range(c)], c


@pytest.mark.parametrize(
    "p,least",
    [
        (1129, 11),
        (2689, 13),
        (8089, 17),
        (33049, 19),
        (53881, 23),
        (87481, 29),
        (483289, 31),
        (515761, 37),
        (1083289, 41),
        (7921489, 43),
        (3818929, 47),
        (9257329, 53),
        (22000801, 59),
        (48473881, 67),  # past the table: Euler's criterion finds it
    ],
)
def test_gaussian_prime_with_a_large_least_non_residue(p, least):
    assert p % 8 == 1 and squares._is_prime(p)
    assert all(pow(c, p >> 1, p) == 1 for c in range(2, least))
    assert pow(least, p >> 1, p) == p - 1
    past_table = all(not flags[p % c] for c, flags in squares._NON_RESIDUES)
    assert past_table == (least > 61)
    a, b = squares._gaussian_prime(p)
    assert a * a + b * b == p
    assert (a, b) == _gaussian_prime_by_least_non_residue(p)


def test_gaussian_primes_near_2_61():
    rng = random.Random(61)
    found = {1: 0, 5: 0}
    while min(found.values()) < 20:
        p = rng.randrange((1 << 61) - (1 << 40), 1 << 61) | 1
        if p & 3 == 1 and found[p & 7] < 20 and squares._is_prime(p):
            found[p & 7] += 1
            a, b = squares._gaussian_prime(p)
            assert a * a + b * b == p and a > b, p
            assert (a, b) == _gaussian_prime_by_least_non_residue(p), p


def test_gaussian_prime_refuses_a_composite_in_bounded_time():
    # an odd square is 1 mod 8 and a residue of every prime of the table,
    # and has no c with c^((p-1)/2) = -1, so Euler's criterion finds none
    # past the table either: the search must stop at its bound and raise.
    # It runs in a child with a timeout, so that a hang fails this test
    # instead of stalling the suite
    code = (
        "from trisum import squares\n"
        "from trisum.core_arith import ConstructionFailed\n"
        "try:\n"
        "    squares._gaussian_prime(67 ** 2)\n"
        "except ConstructionFailed:\n"
        "    print('refused')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.stdout == "refused\n", done.stderr


def test_rho_refuses_a_prime_in_bounded_time():
    # a prime has no proper factor, so every c ends without one and rho
    # must raise; in a child with a timeout, as above.  A product of
    # two primes near 2^26 still splits on its first c
    assert squares._rho_factor(67108879 * 67108913) == 67108879
    code = (
        "from trisum import squares\n"
        "from trisum.core_arith import ConstructionFailed\n"
        "try:\n"
        "    squares._rho_factor(67108913)\n"
        "except ConstructionFailed:\n"
        "    print('refused')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.stdout == "refused\n", done.stderr


# products of two primes in [2^13, 2^14), the smallest cofactors rho is
# handed, on which c = 1 and c = 2 both end with g = n: their cycles
# modulo the two primes close at the same step
_RHO_THIRD_C = (
    (8219, 14951), (8521, 8839), (8521, 12917), (8521, 13499), (8663, 9007), (8663, 14419),
    (8699, 8783), (8839, 12917), (8839, 13499), (8867, 13267), (8971, 13877), (9007, 14419),
    (9029, 12659), (9067, 13913), (9619, 11927), (10289, 15643), (10691, 13337), (10711, 12373),
    (10789, 13799), (11197, 14341), (11287, 12743), (11489, 12329), (12409, 14489), (12917, 13499),
    (13487, 14431), (13487, 14923), (13859, 15581), (13879, 14401), (14431, 14923), (14657, 15227),
)


def test_rho_splits_products_of_two_primes_above_2_13():
    # a c that ends with g = n hands on to the next c; all 379,756 such
    # products split, a seeded sample and the 30 that need c = 3 here
    primes = [p for p in range(1 << 13 | 1, 1 << 14, 2) if squares._is_prime(p)]
    assert len(primes) == 872
    rng = random.Random(8192)
    for p, q in [tuple(rng.sample(primes, 2)) for _ in range(2000)] + list(_RHO_THIRD_C):
        assert squares._rho_factor(p * q) in (p, q), (p, q)


def test_domain_reaches_squares_max():
    top = 8 * MAX_INPUT + 6
    assert top < 1 << 64
    a, b, c = three_squares(top)
    assert a * a + b * b + c * c == top
    assert 0 <= a <= b <= c


# --- multiples of 4: squares are 0 or 1 mod 4, so every triple is even ---

def test_multiples_of_four_are_twice_the_quarter():
    for m in range(1, 1 << 12):
        if _eligible_by_definition(m):
            doubled = tuple(2 * v for v in three_squares(m))
            assert three_squares(4 * m) == _three_squares_scan(4 * m) == doubled, m


def _unscaled_factor_walk(m):
    # three_squares' order run on m itself, 4^k not taken out; too slow for the scan above 2^28
    first = None
    for a in range(math.isqrt(m // 3) + 1):
        for q, p in squares._two_square_splits(m - a * a):
            if q < a:
                continue
            if a < q < p:
                return a, q, p
            if first is None:
                first = a, q, p
    return first


def test_multiples_of_four_match_the_unscaled_factor_path():
    rng = random.Random(4)
    for _ in range(200):
        m = rng.randint(1 << 16, 1 << 30)
        if _eligible_by_definition(m):
            assert three_squares(4 * m) == _unscaled_factor_walk(4 * m), m


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


def _three_squares_by_recursion(m):
    # Legendre's test on m itself, then m // 4's triple doubled, one level
    # per factor of 4; the scan below 4 | m is three_squares' own
    if not _eligible_by_definition(m):
        raise NotRepresentable(f"{m} is of the form 4^l(8k+7)")
    if m and m % 4 == 0:
        return tuple(2 * v for v in _three_squares_by_recursion(m // 4))
    return three_squares(m)


def test_one_strip_of_four_matches_the_recursion(monkeypatch):
    # every l up to 29 with seeded m, 8k+7 shapes and the triples with no
    # distinct roots (3 = 1+1+1, 2 = 0+1+1, 6 = 1+1+4); a self-call would
    # show in the spy on the module's name
    rng = random.Random(29)
    cases = []
    for l in range(30):
        top = min((8 * MAX_INPUT + 6) >> 2 * l, 1 << 40)
        shapes = [1, 2, 3, 5, 6, 7, *(rng.randrange(1, top + 1) for _ in range(4))]
        shapes += [8 * rng.randrange(top // 8 + 1) + 7]
        cases += [m << 2 * l for m in shapes if m <= top]
    assert max(cases) <= 8 * MAX_INPUT + 6 and 3 << 18 in cases
    calls = []
    real = squares.three_squares
    monkeypatch.setattr(squares, "three_squares", lambda m: calls.append(m) or real(m))
    for m in cases:
        try:
            expected = _three_squares_by_recursion(m)
        except NotRepresentable as exc:
            with pytest.raises(NotRepresentable) as got:
                real(m)
            assert str(got.value) == str(exc), m
        else:
            assert real(m) == expected, m
    assert calls == []


@pytest.mark.parametrize("m", [0, 5, 20, 3 << 18, 10**12 + 9])
def test_no_listed_split_is_a_typed_error(m, monkeypatch):
    # the scan's last resort: an eligible m whose remainders list no split
    # is refused with NotRepresentable, never answered with None
    monkeypatch.setattr(squares, "_two_square_splits", lambda r: ())
    with pytest.raises(NotRepresentable, match=f"^no three-square decomposition of {m}$"):
        three_squares(m)


# --- the split listing is memoised: three_squares' last remainder is reused ---

def test_mixed_rep_reuses_the_last_listed_remainder():
    # 25 | 8n+3 for both; the quotients are 320000000003 and 323
    for n in (10**12 + 9, 1009):
        ternary._ttt_mixed.cache_clear()  # an earlier call must not answer this one
        squares._two_square_splits.cache_clear()
        ternary._ttt_mixed(n, 5)
        assert squares._two_square_splits.cache_info().hits >= 1, n


@pytest.mark.parametrize("represent", [theorem2.represent_thm2, theorem1.represent_thm1])
def test_large_witnesses_list_few_remainders(represent):
    # the 2,000 seed-1 inputs of [10^12, 2*10^12) from cold caches:
    # three_squares' gcd skip cut the listings from 4,981 (thm2) and 5,036
    # (thm1) to 2,111 and 2,093
    clear_package_caches()
    rng = random.Random(1)
    for _ in range(2000):
        represent(rng.randint(10**12, 2 * 10**12 - 1))
    assert squares._two_square_splits.cache_info().misses <= 2300


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
        if isinstance(tri, tuple):
            rest = m - tri[0] * tri[0]
            calls.append((two_squares, rest, _outcome(two_squares, rest)))
        other = rng.randint(lo, hi)
        calls.append((two_squares, other, _outcome(two_squares, other)))
    return calls


def test_memoised_listing_matches_the_scan_when_interleaved():
    scans = {three_squares: _three_squares_scan, two_squares: _two_squares_scan}
    for fn, m, got in _interleaved(6, 1 << 16, 1 << 28):
        if fn is three_squares and not _eligible_by_definition(m):
            assert got is NotRepresentable, m
        else:
            assert got == _outcome(scans[fn], m), (fn.__name__, m)


def test_memoised_listing_matches_a_cold_cache_when_interleaved():
    # above 2^28 the scans are too slow; the reference is the same call on an empty cache
    for fn, m, got in _interleaved(7, 1 << 28, 1 << 40):
        squares._two_square_splits.cache_clear()
        assert got == _outcome(fn, m), (fn.__name__, m)
