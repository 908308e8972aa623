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

The splits of a remainder are found by factoring it.  Trial division
takes out the primes below 2^10.  A cofactor below 2^26 then has at most
two prime factors, the smaller one below 2^13, so one gcd with the product
of the primes in [2^10, 2^13) decides it: 1 means prime, and otherwise
the gcd is that factor, or the cofactor itself when both factors lie in
the range, which one pass over those primes splits.  Below 2^23 the
smaller factor is at most isqrt(2^23) = 2896, so the gcd takes only the
primes up to there.  Deterministic Miller-Rabin and Pollard-Brent rho
run only on cofactors from 2^26 up.  A prime 3 mod 4 to an odd power
rules the remainder out at once (Fermat); otherwise its splits are the
products of the Gaussian primes over its prime factors 1 mod 4
(Hermite-Serret).  A product and its conjugate give the same split, so
the first of those primes contributes only the powers up to half its
exponent; with one such prime, to the first power, the one split is
read off its Gaussian prime.  Each Gaussian prime takes one modular
power, of its least non-residue c: 2 for p = 5 mod 8, else the least
odd prime with (p/c) = -1 (reciprocity), read off a table of the
non-residues mod each odd prime below 64, or found past it by Euler's
criterion.  three_squares does not list a remainder r that has a prime
3 mod 4 to an odd power by either of two tests: its odd part is 3 mod 4,
or g = gcd(r, the product of the primes 3 mod 4 below 100) is above 1
and prime to r // g, so that each of those primes dividing r divides it
once.  No remainder m - a^2 the scan reaches has a split with q < a, so
it takes every split as listed.  Were there one with distinct roots
q < a, p, the scan would have returned by a' = q, which it visits: the
tests above skip only remainders without a split, and m - q^2 = a^2 + p^2
has one.  Any other split with q < a is (q, q, a) or (q, a, a), so
m < 3a^2 and a lies past the scan's end, isqrt(m // 3).  Every input
takes this one path; the tests hold it to a direct q-scan with an exact
square test.  Nothing here checks its input: the callers pass ints from
0 up to 8*MAX_INPUT + 2, below 2^64, where this Miller-Rabin is exact.
That largest value is the 8m+2 whose splits
verifier.brute_quad(form, MAX_INPUT, budget=None) lists for its last
two slots; the ternary representations pass at most 4*MAX_INPUT + 2
(rep_2t_t_t(MAX_INPUT)), since the mixed ones divide 8n+2+k^2 by t^2
first.

The listing of a remainder's splits is memoised for the last few
remainders.  The mixed ternary representations call three_squares(m)
and peel the first root r of k's parity off the triple.  When r is the
smallest component, they call two_squares(m - r^2), which is the last
remainder three_squares listed, so its factorisation is not done a
second time.  Otherwise (the doubled shape with an odd smallest root)
the least split of m - r^2 is the triple's other two roots, and no
call is made.  Listings are tuples, so a shared one cannot be changed
by a caller.  The mixed representations are memoised themselves, so a
repeated one never reaches three_squares at all.
"""

from functools import lru_cache
from itertools import compress, count
from math import gcd, isqrt, prod

# check_nat is unused here: perfbench's tracer wraps this binding by name
from .core_arith import check_nat


class NotRepresentable(ValueError):
    """Input is of the excluded form 4^l(8k+7)."""


class NoRepresentation(ValueError):
    """Input is not a sum of two squares."""


def three_squares(m: int) -> tuple[int, int, int]:
    """Decompose m = a^2 + b^2 + c^2 with a <= b <= c, deterministically.

    Scan order: a ascending, then the middle component q ascending from a.
    Among the triples in that order, the first with all components
    distinct is preferred (it exists for every interesting input);
    otherwise the first triple found is returned.  The callers pass
    0 <= m <= 8*MAX_INPUT + 2, below 2^64.
    """
    # m = 4^l n with n not a multiple of 4: the scan runs on n, and m's
    # triple is n's times 2^l (module docstring)
    n, l = m, 0
    while n and not n & 3:
        n >>= 2
        l += 1
    if n & 7 == 7:  # Legendre
        raise NotRepresentable(f"{m} is of the form 4^l(8k+7)")
    first = None
    for a in range(isqrt(n // 3) + 1):
        r = n - a * a
        if r and (r // (r & -r) & 3 == 3 or (g := gcd(r, _FERMAT)) > 1 and gcd(r // g, g) == 1):
            continue  # a prime 3 mod 4 to an odd power: no split (Fermat)
        for q, p in _two_square_splits(r):
            if a < q < p:
                return a << l, q << l, p << l
            if first is None:
                first = a << l, q << l, p << l
    if first is None:
        raise NotRepresentable(f"no three-square decomposition of {m}")
    return first


def two_squares(m: int) -> tuple[int, int]:
    """Decompose m = p^2 + q^2 as (p, q) with p >= q, maximizing p (minimizing q).

    The callers pass 0 <= m <= 8*MAX_INPUT + 2, below 2^64.
    """
    splits = _two_square_splits(m)
    if not splits:
        raise NoRepresentation(f"{m} is not a sum of two squares")
    q, p = splits[0]
    return p, q


def _odd_sieve(limit: int) -> bytearray:
    # entry k is 1 for the odd primes k below limit (even entries are not cleared)
    sieve = bytearray([1]) * limit
    sieve[1] = 0
    for p in range(3, isqrt(limit - 1) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = bytes(len(range(p * p, limit, 2 * p)))
    return sieve


# trial division takes out the primes below _TRIAL; a cofactor below
# _MID^2 = 2^26 is then decided by one gcd with the primes in [_TRIAL, _MID),
# and one below _LOW = 2^23 by the gcd with those whose square is below _LOW
_TRIAL = 1 << 10
_MID = 1 << 13
_LOW = 1 << 23
_SIEVE = _odd_sieve(_MID)
_ODD_PRIMES = tuple(compress(range(3, _TRIAL, 2), _SIEVE[3:_TRIAL:2]))
_MID_PRIMES = tuple(compress(range(_TRIAL + 1, _MID, 2), _SIEVE[_TRIAL + 1 :: 2]))
_ODD_PRIMORIAL = prod(_ODD_PRIMES)
_MID_PRIMORIAL = prod(_MID_PRIMES)
_LOW_PRIMORIAL = prod(p for p in _MID_PRIMES if p * p < _LOW)
# the primes 3 mod 4 below 100 (64 bits): a remainder that one of them
# divides exactly once has no split, which one gcd with r // g shows
_FERMAT = prod(p for p in _ODD_PRIMES if p < 100 and p & 3 == 3)

# The first k of these bases decide primality exactly below the paired
# bound (the least strong pseudoprimes to the first k primes, OEIS A014233).
# _factor_rough tests only cofactors from 2^26 up, past the bounds for one,
# two and three bases (2047, 1373653, 25326001), so the table starts at
# four bases, which stay exact below 2^26 too.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUNDS = (
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
    for bound, k in _MR_BOUNDS:
        if n < bound:
            break
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
    if n >= _MID * _MID:
        if not _is_prime(n):
            r = isqrt(n)
            if r * r == n:
                _factor_rough(r, out, 2 * mult)
            else:
                d = _rho_factor(n)
                _factor_rough(d, out, mult)
                _factor_rough(n // d, out, mult)
            return
    elif n >= _TRIAL * _TRIAL:
        # n = p or p*q with _TRIAL < p <= q, so p*p <= n, which puts p in the
        # product: the gcd is 1 for a prime, p when q is not in the product
        # or equals p, and n otherwise
        p = gcd(n, _LOW_PRIMORIAL if n < _LOW else _MID_PRIMORIAL)
        if p > 1:
            if p == n:
                for p in _MID_PRIMES:
                    if not n % p:
                        break
            out[p] = out.get(p, 0) + mult
            n //= p
    out[n] = out.get(n, 0) + mult


def _gaussian_prime(p: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = p and a > b, for a prime p = 1 mod 4 (Hermite-Serret)."""
    # c^((p-1)/4) is a square root of -1 mod p for the least non-residue c:
    # 2 for p = 5 mod 8, else an odd prime c with (p/c) = -1 (reciprocity)
    if p & 7 == 5:
        c = 2
    else:
        for c, non_residue in _NON_RESIDUES:
            if non_residue[p % c]:
                break
        else:  # Euler's criterion past the table
            c = next(c for c in count(c + 2, 2) if pow(c, p >> 1, p) == p - 1)
    a, b, s = p, pow(c, p >> 2, p), isqrt(p)
    while b > s:
        a, b = b, a % b
    return b, isqrt(p - b * b)


# (c, flags) for the odd primes c below 64: flags[r] is 1 when r is not a
# square mod c (Euler's criterion)
_NON_RESIDUES = tuple(
    (c, bytes(pow(r, c >> 1, c) == c - 1 for r in range(c))) for c in _ODD_PRIMES if c < 64
)
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
    factors: dict[int, int] = {}
    g = gcd(n, _ODD_PRIMORIAL)
    for p in _ODD_PRIMES:
        if g == 1:
            break
        if p * p > g:
            p = g  # no factor of g below p is left, so g is prime
        elif g % p:
            continue
        g //= p
        e = 0
        while not n % p:
            n //= p
            e += 1
        if p & 3 == 3 and e & 1:
            return ()  # before any work on the cofactor
        factors[p] = e
    if n > 1:
        _factor_rough(n, factors)
    # the input is 2^e2 * scale^2 * prod p^e over the (p, e) in `split`, p = 1 mod 4
    scale = 1 << (e2 >> 1)
    split = []
    for p, e in factors.items():
        if p & 3 == 1:
            split.append((p, e))
        elif e & 1:
            return ()
        else:
            scale *= p ** (e >> 1)
    if len(split) == 1 and split[0][1] == 1:
        # one prime to the first power: its Gaussian prime a + bi, a > b,
        # times 1 + i for an odd e2, is the only split
        a, b = _GAUSS_SMALL.get(split[0][0]) or _gaussian_prime(split[0][0])
        return ((scale * (a - b), scale * (a + b)) if e2 & 1 else (scale * b, scale * a),)
    # Gaussian integers x + iy of norm n, one per class under units:
    # (1+i)^e2 = 2^(e2//2) (1+i)^(e2%2) up to a unit, times pi^j conj(pi)^(e-j)
    zs = [(scale, scale) if e2 & 1 else (scale, 0)]
    for i, (p, e) in enumerate(split):
        a, b = _GAUSS_SMALL.get(p) or _gaussian_prime(p)
        # z and its conjugate give the same split, and conjugating the
        # product sends j to e - j at every prime: the first needs j <= e/2
        if e == 1:
            parts = [(a, b)] if i == 0 else [(a, b), (a, -b)]
        else:
            pows = [(1, 0)]
            for _ in range(e):
                x, y = pows[-1]
                pows.append((x * a - y * b, x * b + y * a))
            parts = []
            for j in range(e // 2 + 1 if i == 0 else e + 1):
                (x, y), (u, v) = pows[j], pows[e - j]  # pi^j times conj(pi^(e-j))
                parts.append((x * u + y * v, y * u - x * v))
        zs = [(x * u - y * v, x * v + y * u) for x, y in zs for u, v in parts]
    splits = set()
    for x, y in zs:
        x, y = abs(x), abs(y)
        splits.add((x, y) if x <= y else (y, x))
    return tuple(sorted(splits))
