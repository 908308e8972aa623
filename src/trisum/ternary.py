"""Ternary triangular representations and the 3965 lifting lemmas.

Three families of results live here:

* universal ternary representations (x^2+T+T, 2T+T+T), each built by
  decomposing a shifted input into three squares and relabeling by
  residue pattern;
* mixed-parity representations T(x) + T(y) + k^2 T(z), k = 1 (T+T+T) or
  k = 2 (T+T+4T), for inputs n with t^2 | 8n+2+k^2, t in {5, 13, 61}:
  one body peels the first root of k's parity off the quotient for z and
  balances the other two into x and y of different parity;
* the two-square lifts that multiply a sum of two squares by
  3965 = 5*13*61 while preserving the parity/class constraints, used by
  the descent step of the second quadruple construction.

All outputs are deterministic because every two/three-square choice below
delegates to the canonical decompositions in `squares`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .core_arith import check_nat
from .squares import three_squares, two_squares, NoRepresentation


class PreconditionViolated(ValueError):
    """Arguments fall outside the contract of a lemma-style operation."""


MODULI = (5, 13, 61)
COMPOSITE_MODULUS = 3965  # 5 * 13 * 61

# Rotation pairs (alpha, beta) with alpha^2 + beta^2 = t^2: composing with
# (p, q) re-represents t^2(p^2+q^2) with swapped mod-4 classes.
ROTATION = {5: (4, 3), 13: (12, 5), 61: (60, 11)}

# 3965 = 53^2+34^2 = 59^2+22^2 = 46^2+43^2; each pair drives one lift branch.
ODD_LIFT = (53, 34)
EVEN_LIFT_WIDE = (59, 22)
EVEN_LIFT_NARROW = (46, 43)


class TernaryRep(NamedTuple):
    """A three-index witness (x, y, z); the function that built it names its shape."""

    x: int
    y: int
    z: int


def _check_modulus(t: int) -> int:
    if t not in MODULI:
        raise ValueError(f"modulus must be one of {MODULI}, got {t!r}")
    return t


def _parity_split(tri: tuple[int, int, int], parity: int) -> tuple[int, int, int]:
    # (u, v, w) with u the one component of the given parity and v <= w the
    # other two; three_squares lists its components in ascending order
    a, b, c = tri
    if a & 1 == parity:
        return a, b, c
    if b & 1 == parity:
        return b, a, c
    return c, a, b


@lru_cache(maxsize=1 << 15)
def rep_square_two_tri(m: int) -> TernaryRep:
    """Write m = x^2 + T(y) + T(z).

    4m+1 is always a sum of three squares, with exactly one odd component.
    The square slot takes one of the two even components: the one leaving
    the smaller gap |odd - other even| (larger slot value on ties), so the
    triangular indices stay as balanced as the decomposition allows.
    """
    check_nat(m, "m")
    odd, e1, e2 = _parity_split(three_squares(4 * m + 1), 1)
    # taking e1 as the square leaves the pair (odd, e2), and vice versa;
    # pick the assignment with the smaller gap, the larger square on ties
    if abs(odd - e1) <= abs(odd - e2):
        a, mate = e2, e1
    else:
        a, mate = e1, e2
    return TernaryRep(a // 2, (odd + mate - 1) // 2, (abs(odd - mate) - 1) // 2)


@lru_cache(maxsize=1 << 15)
def rep_2t_t_t(m: int) -> TernaryRep:
    """Write m = 2T(x) + T(y) + T(z).

    4m+2 is a sum of two odd squares and one even square.  The 2T slot
    takes the odd component that leaves the wider gap |other odd - even|
    (larger slot value on ties), mirroring rep_square_two_tri.
    """
    check_nat(m, "m")
    even, o1, o2 = _parity_split(three_squares(4 * m + 2), 0)
    # taking o1 leaves the pair (o2, even), and vice versa; pick the
    # assignment with the wider gap, the larger 2T slot on ties
    if abs(o1 - even) >= abs(o2 - even):
        a, mate = o2, o1
    else:
        a, mate = o1, o2
    return TernaryRep((a - 1) // 2, (mate + even - 1) // 2, (abs(mate - even) - 1) // 2)


def _balance_raw(s: int, t: int) -> tuple[int, int]:
    """Represent t*t*s as two odd squares with distinct mod-4 root classes.

    s must itself be a sum of two odd squares.  Either the scaled pair
    (tp, tq) already has distinct classes, or the rotation pair for t
    fixes it.  Returned in construction order (not sorted).
    """
    p, q = two_squares(s)
    if (t * p) % 4 != (t * q) % 4:
        return t * p, t * q
    alpha, beta = ROTATION[t]
    return alpha * p - beta * q, beta * p + alpha * q


def balance_odd_pair(n: int, t: int) -> tuple[int, int]:
    """Write n = a^2 + b^2 with a, b odd, a > b, and a != b (mod 4).

    Requires t^2 | n and n a sum of two odd squares (n = 2 mod 8).
    """
    check_nat(n, "n")
    _check_modulus(t)
    tt = t * t
    if n % tt:
        raise PreconditionViolated(f"{t}^2 does not divide {n}")
    if n % 8 != 2:
        raise PreconditionViolated(f"{n} is not a sum of two odd squares")
    try:
        a, b = _balance_raw(n // tt, t)
    except NoRepresentation as exc:
        raise PreconditionViolated(str(exc)) from exc
    return (a, b) if a >= b else (b, a)


def _rep_mixed(n: int, t: int, k: int) -> TernaryRep:
    # n = T(x) + T(y) + k^2 T(z) iff 8n+2+k^2 = (2x+1)^2 + (2y+1)^2 + (k(2z+1))^2;
    # k(2z+1) is t times the first root of k's parity of the quotient by t^2
    check_nat(n, "n")
    _check_modulus(t)
    m, rest = divmod(8 * n + 2 + k * k, t * t)
    if rest:
        raise PreconditionViolated(f"{t}^2 does not divide 8n+{2 + k * k} for n={n}")
    for r in three_squares(m):
        if r & 1 == k & 1:
            break
    a, b = _balance_raw(m - r * r, t)
    return TernaryRep((a - 1) // 2, (b - 1) // 2, (t * r - k) // (2 * k))


def rep_ttt_mixed(n: int, t: int) -> TernaryRep:
    """Write n = T(x) + T(y) + T(z) with x, y of different parity.

    Requires t^2 | 8n+3.  The quotient splits into three odd squares; the
    smallest root is scaled back up by t to give z, and the remaining two
    are balanced into distinct mod-4 classes to give x and y.
    """
    return _rep_mixed(n, t, 1)


def rep_tt4t_mixed(n: int, t: int) -> TernaryRep:
    """Write n = T(x) + T(y) + 4T(z) with x, y of different parity.

    Requires t^2 | 8n+6.  The quotient splits into two odd squares plus a
    root congruent to 2 mod 4; that root (scaled by t) feeds the 4T slot.
    """
    return _rep_mixed(n, t, 2)


def lift_odd_pair(p: int, q: int) -> tuple[int, int]:
    """Scale an odd two-square pair by 3965, preserving class distinctness.

    Inputs must be odd with distinct residues mod 4; a component equal
    to 1 may stand in for either class ((+/-1)^2 = 1), which is what the
    descent base cases near zero need.  Output components are odd, in
    distinct mod-4 classes, and square-sum to 3965(p^2+q^2).
    """
    check_nat(p, "p")
    check_nat(q, "q")
    if not (p & 1 and q & 1):
        raise PreconditionViolated(f"({p}, {q}) must both be odd")
    if p < q:
        p, q = q, p
    if p % 4 != q % 4:
        alpha, beta = ODD_LIFT
    elif p == 1 or q == 1:
        # same literal class, but the wildcard 1 is reassigned to the
        # other class; the (46, 43) composition keeps both outputs odd
        alpha, beta = EVEN_LIFT_NARROW
    else:
        raise PreconditionViolated(
            f"({p}, {q}) lie in the same class mod 4 and neither is 1"
        )
    return alpha * p - beta * q, beta * p + alpha * q


def lift_even_odd_pair(p: int, q: int) -> tuple[int, int]:
    """Scale an (even, odd) two-square pair by 3965, keeping the shape.

    Returns (P even, Q odd) with P^2 + Q^2 = 3965(p^2+q^2) and P >= Q-1.
    Branch choice follows the magnitude split p > 5q; near the boundary
    (reachable only from the descent's w = 2A+1 edge) the computation is
    done with signed arithmetic, made positive, and reassigned by parity,
    retrying with the other composition pair if the size constraint fails.
    """
    check_nat(p, "p")
    check_nat(q, "q")
    if p & 1 or not q & 1:
        raise PreconditionViolated(f"({p}, {q}) must be (even, odd)")

    def compose(alpha: int, beta: int) -> tuple[int, int]:
        big, small = abs(alpha * p - beta * q), abs(beta * p + alpha * q)
        if big & 1:
            big, small = small, big
        return big, small

    primary = EVEN_LIFT_WIDE if p > 5 * q else EVEN_LIFT_NARROW
    fallback = EVEN_LIFT_NARROW if p > 5 * q else EVEN_LIFT_WIDE
    out = compose(*primary)
    if out[0] < out[1] - 1:
        out = compose(*fallback)
        if out[0] < out[1] - 1:  # pragma: no cover - unreachable on valid input
            raise PreconditionViolated(f"no size-preserving lift for ({p}, {q})")
    return out
