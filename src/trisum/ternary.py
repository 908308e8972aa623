"""Ternary triangular representations.

Two families of results live here:

* universal ternary representations (x^2+T+T, 2T+T+T), for every input:
  one body splits 4m+1 (4m+2) into three squares, gives the x^2 (2T)
  slot the even (odd) root farther from (closer to) the third root, and
  pairs the other two into the triangular indices;
* mixed-parity representations T(x) + T(y) + k^2 T(z), k = 1 (T+T+T) or
  k = 2 (T+T+4T), for inputs n with t^2 | 8n+2+k^2, t in MODULI: one
  body peels the first root of k's parity off the quotient for z and
  balances the other two into x and y of different parity, rotating by
  t's pair in ROTATION when they share a class mod 4.

All outputs are deterministic because every two/three-square choice below
delegates to the canonical decompositions in `squares`.  All four ternary
representations are memoised (an lru_cache of 2^15 entries each): a
construction passes them remainders of about sqrt(n), so nearby inputs
repeat their arguments.  The values are immutable TernaryRep tuples, so
one cached value can be shared between callers; a raised error is not
cached.  The mixed pair is theorem 2's own and validates nothing:
theorem 2 calls its caches, _ttt_mixed (k = 1) and _tt4t_mixed (k = 2),
with the integers n >= 0 and t in MODULI that its class arithmetic
derived.  _rep_mixed still checks t^2 | 8n+2+k^2 as a safety net; a
failure there is the construction failing where its proof says it
cannot, so it raises ConstructionFailed.
"""

from functools import lru_cache
from typing import NamedTuple

from .core_arith import ConstructionFailed, check_nat
from .squares import three_squares, two_squares


# The moduli of the second construction: primes t = 5 mod 8, each with a
# rotation pair (alpha, beta), alpha^2 + beta^2 = t^2, whose even leg alpha
# is 0 mod 4 and the larger.  Composing with (p, q) re-represents
# t^2(p^2+q^2) with swapped mod-4 classes and positive roots.  The paper
# uses 5, 13 and 61; the other seven take the inputs all three divide.
ROTATION = {
    5: (4, 3), 13: (12, 5), 61: (60, 11), 149: (140, 51), 157: (132, 85),
    181: (180, 19), 269: (260, 69), 317: (308, 75), 389: (340, 189), 421: (420, 29),
}  # fmt: skip
MODULI = tuple(ROTATION)


class TernaryRep(NamedTuple):
    """A three-index witness (x, y, z); the function that built it names its shape."""

    x: int
    y: int
    z: int


def _parity_split(tri: tuple[int, int, int], parity: int) -> tuple[int, int, int]:
    # (u, v, w) with u the one component of the given parity and v <= w the
    # other two; three_squares lists its components in ascending order
    a, b, c = tri
    if a & 1 == parity:
        return a, b, c
    if b & 1 == parity:
        return b, a, c
    return c, a, b


def _rep_universal(total: int, parity: int, farther: bool) -> TernaryRep:
    # total = s^2 + r1^2 + r2^2 with s the one root of the given parity and
    # r1 <= r2; the slot takes the root farther from s (closer unless
    # farther), the larger on ties, and its mate pairs with s as
    # s^2 + mate^2 = 4(T(y) + T(z)) + 1.  For odd a, (a - 1) // 2 == a // 2.
    s, r1, r2 = _parity_split(three_squares(total), parity)
    gap = abs(s - r2) - abs(s - r1)
    if (gap if farther else -gap) >= 0:
        a, mate = r2, r1
    else:
        a, mate = r1, r2
    return tuple.__new__(TernaryRep, (a // 2, (s + mate - 1) // 2, (abs(s - mate) - 1) // 2))


@lru_cache(maxsize=1 << 15)
def rep_square_two_tri(m: int) -> TernaryRep:
    """Write m = x^2 + T(y) + T(z).

    4m+1 is always a sum of three squares, with exactly one odd component.
    The square slot takes one of the two even components: the one leaving
    the smaller gap |odd - other even| (larger slot value on ties), so the
    triangular indices stay as balanced as the decomposition allows.
    """
    check_nat(m, "m")
    return _rep_universal(4 * m + 1, 1, True)


@lru_cache(maxsize=1 << 15)
def rep_2t_t_t(m: int) -> TernaryRep:
    """Write m = 2T(x) + T(y) + T(z).

    4m+2 is a sum of two odd squares and one even square.  The 2T slot
    takes the odd component that leaves the wider gap |other odd - even|
    (larger slot value on ties), mirroring rep_square_two_tri.
    """
    check_nat(m, "m")
    return _rep_universal(4 * m + 2, 0, False)


def _balance_raw(p: int, q: int, t: int) -> tuple[int, int]:
    """Represent t*t*(p^2 + q^2) as two odd squares with distinct mod-4 root classes.

    (p, q) is the split two_squares gives of a sum of two odd squares;
    _rep_mixed passes the one it holds.  Either the scaled pair (tp, tq)
    already has distinct classes, or the rotation pair for t fixes it.
    Returned in construction order (not sorted).
    """
    # every t in MODULI is 1 mod 4, so tp and tq keep the classes of p and q
    if p & 3 != q & 3:
        return t * p, t * q
    alpha, beta = ROTATION[t]
    return alpha * p - beta * q, beta * p + alpha * q


def _rep_mixed(n: int, t: int, k: int) -> TernaryRep:
    """Write n = T(x) + T(y) + k^2 T(z), k = 1 or 2, with x, y of different parity.

    Requires t in MODULI and t^2 | 8n+2+k^2, that is 8n+3 (T+T+T) or 8n+6
    (T+T+4T).  n = T(x) + T(y) + k^2 T(z) iff 8n+2+k^2 = (2x+1)^2 +
    (2y+1)^2 + (k(2z+1))^2.  The quotient m by t^2 is 3 (6) mod 8, so it
    splits into three odd squares (two odd squares and a root 2 mod 4).
    k(2z+1) is t times the first root r of k's parity in three_squares of
    m: the smallest root for k = 1, the root 2 mod 4 for k = 2.  x, y come
    from balancing the least split of m - r^2 into distinct mod-4 classes.
    When r is the smallest root, that split is two_squares'; else (k = 2
    with an odd smallest root) it is the triple's other two roots.
    """
    m, rest = divmod(8 * n + 2 + k * k, t * t)
    if rest:
        raise ConstructionFailed(f"{t}^2 does not divide 8n+{2 + k * k} for n={n}")
    tri = three_squares(m)
    r, q, p = _parity_split(tri, k & 1)
    if r == tri[0]:
        p, q = two_squares(m - r * r)  # three_squares has just listed it
    # else k = 2 with an odd smallest root q, and r is m's one even root:
    # m - r^2 = q^2 + p^2 for the other odd root p, and that is its least
    # split, since one with a leg below q would make, with r, a triple of
    # distinct roots with a smaller first root, which three_squares would
    # have returned
    x, y = _balance_raw(p, q, t)
    return tuple.__new__(TernaryRep, ((x - 1) // 2, (y - 1) // 2, (t * r - k) // (2 * k)))


# the mixed caches, which theorem 2 calls with the integers it derived
@lru_cache(maxsize=1 << 15)
def _ttt_mixed(n: int, t: int) -> TernaryRep:
    return _rep_mixed(n, t, 1)


@lru_cache(maxsize=1 << 15)
def _tt4t_mixed(n: int, t: int) -> TernaryRep:
    return _rep_mixed(n, t, 2)
