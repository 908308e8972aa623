"""Constructive decomposition of integers into two and three squares.

Legendre's three-square theorem: m is a sum of three squares exactly when
m is not of the form 4^l(8k+7).  Both decompositions are canonical, which
is what makes the higher-level constructions reproducible:

* three_squares goes through the smallest component a in ascending order
  and, for each a, through the splits m - a^2 = q^2 + p^2 with
  a <= q <= p in ascending q.  The first split with a < q < p wins;
  if there is none at all, the first split met is returned.  Squares are
  0 or 1 mod 4, so every triple for 4m is twice one for m, in the same
  order: powers of 4 are taken out first.
* two_squares returns the split p^2 + q^2 with the smallest q.

How the splits of a remainder are found depends on the size of m.
Below FACTOR_FROM a direct q-scan with an exact square test is fastest.
From FACTOR_FROM on, the remainder is factored instead: trial division by
the primes below 2^10, deterministic Miller-Rabin and Pollard-Brent rho.
A prime 3 mod 4 to an odd power rules the remainder out at once
(Fermat); otherwise its splits are the products of the Gaussian primes
over its prime factors 1 mod 4 (Hermite-Serret).  Both paths give the
same output; the scan is also the reference the tests hold the factor
path to.  Inputs run up to SQUARES_MAX = 8*MAX_INPUT + 6, the largest
value the ternary layer derives from an input, which is below 2^64,
where this Miller-Rabin is exact.

The listing of a remainder's splits is memoised for the last few
remainders.  The mixed ternary representations call three_squares(m)
and then two_squares(m - r^2) for a root r of the triple; when r is
the smallest component, that remainder is the last one three_squares
listed, so its factorisation is not done a second time.  Listings are
tuples, so a shared one cannot be changed by a caller.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import gcd, isqrt, prod
from typing import NamedTuple

from .core_arith import MAX_INPUT, check_nat

SQUARES_MAX = 8 * MAX_INPUT + 6  # 8m+6 for m = MAX_INPUT, below 2^64

# Below this the q-scan beats factoring.  Measured crossovers: about 2^13
# for three_squares, 2^15 for two_squares on inputs that have a split.
FACTOR_FROM = 1 << 16


class NotRepresentable(ValueError):
    """Input is of the excluded form 4^l(8k+7)."""


class NoRepresentation(ValueError):
    """Input is not a sum of two squares."""


class ThreeSquares(NamedTuple):
    a: int
    b: int
    c: int


class TwoSquares(NamedTuple):
    p: int
    q: int


# Quadratic residues mod 256; cheap reject filter before isqrt in scans.
_SQ_MOD256 = frozenset((i * i) & 255 for i in range(256))


def eligible_three_squares(m: int) -> bool:
    """True iff m is a sum of three squares (m = 0 included)."""
    check_nat(m, "m", SQUARES_MAX)
    return _eligible(m)


def _eligible(m: int) -> bool:
    # Legendre: m is not of the form 4^l(8k+7); m is already validated
    while m and m % 4 == 0:
        m //= 4
    return m % 8 != 7


def three_squares(m: int) -> ThreeSquares:
    """Decompose m = a^2 + b^2 + c^2 with a <= b <= c, deterministically.

    Scan order: a ascending, then the middle component q ascending from a.
    Among the triples in that order, the first with all components
    distinct is preferred (it exists for every interesting input);
    otherwise the first triple found is returned.  Defined for
    0 <= m <= SQUARES_MAX.
    """
    check_nat(m, "m", SQUARES_MAX)
    if not _eligible(m):
        raise NotRepresentable(f"{m} is of the form 4^l(8k+7)")
    if m and not m & 3:
        return ThreeSquares(*(2 * v for v in three_squares(m >> 2)))
    if m < FACTOR_FROM:
        return _three_squares_scan(m)
    return _three_squares_factored(m)


def two_squares(m: int) -> TwoSquares:
    """Decompose m = p^2 + q^2 with p >= q, maximizing p (minimizing q).

    Defined for 0 <= m <= SQUARES_MAX.
    """
    check_nat(m, "m", SQUARES_MAX)
    if m < FACTOR_FROM:
        return _two_squares_scan(m)
    splits = _two_square_splits(m)
    if not splits:
        raise NoRepresentation(f"{m} is not a sum of two squares")
    q, p = splits[0]
    return TwoSquares(p, q)


def _three_squares_scan(m: int) -> ThreeSquares:
    # the reference: for each a, q runs over every value of the right parity
    first: ThreeSquares | None = None
    for a in range(isqrt(m // 3) + 1):
        resid = m - a * a
        r4 = resid & 3
        if r4 == 3:
            continue  # two squares never sum to 3 mod 4
        q = a
        step = 1
        if r4 == 0:  # both remaining components even
            if q & 1:
                q += 1
            step = 2
        elif r4 == 2:  # both remaining components odd
            if not q & 1:
                q += 1
            step = 2
        qmax = isqrt(resid >> 1)
        while q <= qmax:
            rem = resid - q * q
            if (rem & 255) in _SQ_MOD256:
                p = isqrt(rem)
                if p * p == rem:
                    if a < q < p:
                        return ThreeSquares(a, q, p)
                    if first is None:
                        first = ThreeSquares(a, q, p)
            q += step
    if first is None:
        raise NotRepresentable(f"no three-square decomposition of {m}")
    return first


def _three_squares_factored(m: int) -> ThreeSquares:
    # the same order as the scan, with each remainder's splits listed at once
    first: ThreeSquares | None = None
    for a in range(isqrt(m // 3) + 1):
        for q, p in _two_square_splits(m - a * a):
            if q < a:
                continue
            if a < q < p:
                return ThreeSquares(a, q, p)
            if first is None:
                first = ThreeSquares(a, q, p)
    if first is None:
        raise NotRepresentable(f"no three-square decomposition of {m}")
    return first


def _two_squares_scan(m: int) -> TwoSquares:
    # the reference: the ascending-q scan stops at the smallest q
    q = 0
    while 2 * q * q <= m:
        rem = m - q * q
        if (rem & 255) in _SQ_MOD256:
            p = isqrt(rem)
            if p * p == rem:
                return TwoSquares(p, q)
        q += 1
    raise NoRepresentation(f"{m} is not a sum of two squares")


def _primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


_TRIAL = 1 << 10  # trial division covers the primes below this
_ODD_PRIMES = tuple(_primes_below(_TRIAL)[1:])
_ODD_PRIMORIAL = prod(_ODD_PRIMES)

# The first k of these bases decide primality exactly below the paired
# bound (the least strong pseudoprimes to the first k primes, OEIS A014233).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (1 << 64, 12),
)

_RHO_BATCH = 64  # rho steps between gcds


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 37 below 2^64."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    k = next(k for bound, k in _MR_BOUNDS if n < bound)
    for b in _MR_BASES[:k]:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite non-square n (Pollard-Brent rho)."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r <<= 1
        if g == n:  # the batch went past the collision: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor_rough(n: int, out: dict[int, int], mult: int = 1) -> None:
    # add the factorisation of n > 1, which has no prime factor below _TRIAL,
    # to out with every exponent times mult
    if n < _TRIAL * _TRIAL or _is_prime(n):
        out[n] = out.get(n, 0) + mult
        return
    r = isqrt(n)
    if r * r == n:
        _factor_rough(r, out, 2 * mult)
        return
    d = _rho_factor(n)
    _factor_rough(d, out, mult)
    _factor_rough(n // d, out, mult)


def _gaussian_prime(p: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = p, for a prime p = 1 mod 4 (Hermite-Serret)."""
    # c^((p-1)/4) is a square root of -1 mod p for every non-residue c
    for c in count(2):
        x = pow(c, (p - 1) >> 2, p)
        if x * x % p == p - 1:
            break
    a, b = p, x
    while b * b > p:
        a, b = b, a % b
    return b, isqrt(p - b * b)


_GAUSS_SMALL = {p: _gaussian_prime(p) for p in _ODD_PRIMES if p & 3 == 1}


@lru_cache(maxsize=8)
def _two_square_splits(n: int) -> tuple[tuple[int, int], ...]:
    """Every (q, p) with q <= p and q^2 + p^2 = n, by ascending q; () if none."""
    if n == 0:
        return ((0, 0),)
    e2 = (n & -n).bit_length() - 1
    n >>= e2
    if n & 3 == 3:
        return ()  # a prime 3 mod 4 divides n to an odd power
    factors: list[tuple[int, int]] = []
    g = gcd(n, _ODD_PRIMORIAL)
    for p in _ODD_PRIMES:
        if g == 1:
            break
        if g % p:
            continue
        g //= p
        e = 0
        while not n % p:
            n //= p
            e += 1
        if p & 3 == 3 and e & 1:
            return ()  # before any work on the cofactor
        factors.append((p, e))
    if n > 1:
        rough: dict[int, int] = {}
        _factor_rough(n, rough)
        factors += rough.items()
    # the input is 2^e2 * scale^2 * prod p^e over the (p, e) in `split`, p = 1 mod 4
    scale = 1 << (e2 >> 1)
    split = []
    for p, e in factors:
        if p & 3 == 1:
            split.append((p, e))
        elif e & 1:
            return ()
        else:
            scale *= p ** (e >> 1)
    # Gaussian integers x + iy of norm n, one per class under units:
    # (1+i)^e2 = 2^(e2//2) (1+i)^(e2%2) up to a unit, times pi^j conj(pi)^(e-j)
    zs = [(scale, scale) if e2 & 1 else (scale, 0)]
    for p, e in split:
        a, b = _GAUSS_SMALL.get(p) or _gaussian_prime(p)
        pows = [(1, 0)]
        for _ in range(e):
            x, y = pows[-1]
            pows.append((x * a - y * b, x * b + y * a))
        parts = []
        for j in range(e + 1):
            (x, y), (u, v) = pows[j], pows[e - j]  # pi^j times conj(pi^(e-j))
            parts.append((x * u + y * v, y * u - x * v))
        zs = [(x * u - y * v, x * v + y * u) for x, y in zs for u, v in parts]
    splits = set()
    for x, y in zs:
        x, y = abs(x), abs(y)
        splits.add((x, y) if x <= y else (y, x))
    return tuple(sorted(splits))
