"""Constructive witnesses for 2a(2a-1) + b(2b-1) + 2c(2c+1) + d(2d+1).

One rule serves every input.  Pick the smallest modulus t in {5, 13, 61}
coprime to 4n+3.  If 4n+3 is a quadratic residue mod t, peel off A^2,
else 2A^2 ("doubled"); write k = 1 or 2 for the two shapes.  A is drawn
from a residue class mod t^2; the mixed ternary representations write
(n - A^2)/2 as T+T+T, or n - 2A^2 as T+T+4T when doubled; and the two
parts are glued back together through the slot map of core_arith: the
offset's part splits as T(A+z) + T(A-z-1), which needs A > z, and that
index pair and the ternary's (x, y) each fill one odd and one even slot.
Offsets are tried largest first and come from class arithmetic, not a
scan: one loop walks the multiples of t^2 down from the root's, and an
inner loop adds each residue of the class of 4n+3, so a candidate costs
O(1) even for t = 61; candidates above the root are skipped, and so, in
the square shape, are those that leave n - A^2 odd.  The residues of
each class are built once, at import, in closed form and in descending
order, so the inner loop walks them as stored: t is an odd prime coprime
to k, so a class v coprime to t holds exactly the two roots r and
t^2 - r of kA^2 = v.  Only those classes are kept: t is coprime to
4n+3, so 4n+3 never falls in a class divisible by t, and no multiple of
t is ever an offset.

Above the size bound n > (6 + sqrt 32)s, s = k t^4, the first candidate
passes.  Its class holds a residue and its negative mod t^2, of opposite
parity, so every t^2 consecutive integers hold a candidate of either
parity, and the first candidate A lies within t^2 of the root
R = sqrt(n/k): A > R - t^2.  The bound reads R > (2 + sqrt 2)t^2, so
R - t^2 > R/sqrt 2, and therefore

    2kA^2 > n,  that is  n - kA^2 < kA^2.

The ternary's z sits in one of its squares: (2z+1)^2 <= 8m+3 for
m = (n - A^2)/2, and 4(2z+1)^2 <= 8m+6 for m = n - 2A^2 when doubled;
both read (2z+1)^2 <= (4(n - kA^2) + 3)/k, and so

    (2z+1)^2 < 4A^2 + 3/k <= (2A+1)^2    (A >= 1),

which is A > z.  At or below the bound a later candidate may pass where
the first does not; where none does, the exhaustive search, budgeted at
the size bound, is the construction.  Above the bound a dry scan is the
case ruled out above: the search refuses it and the call raises
ConstructionFailed.

When all three moduli divide 4n+3 the problem is shrunk by a factor of
3965 = 5*13*61 and solved recursively; the small witness is lifted back
up through a four-square normal form.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .core_arith import ConstructionFailed, Quad2, _quad, check_nat, eval_quad
from .ternary import (
    COMPOSITE_MODULUS,
    MODULI,
    lift_even_odd_pair,
    lift_odd_pair,
    rep_tt4t_mixed,
    rep_ttt_mixed,
)
from .verifier import BudgetExceeded, brute_quad


class FourSquareForm(NamedTuple):
    """Witness of 4n+3 = u1^2 + u2^2 + 4a^2 + w^2 in normal form.

    u1 is 3 mod 4 (or the wildcard 1), u2 is 1 mod 4, w is odd with
    w <= 2a + 1.  This is the shape the recursive lifting step preserves.
    """

    u1: int
    u2: int
    a: int
    w: int


# Residue classes mod t^2 from which the offset A may be drawn:
# keyed by (t, doubled); doubled means 8*A0^2 = v instead of 4*A0^2 = v.
# Each v maps to its residues A0 in descending order, the scan's order.
# Built in closed form from the roots a <= t^2/2 coprime to t (module
# docstring): half the steps of a pass over every A0 mod t^2, and paid at
# every import.  The multiples of t are left out, since t never divides
# the 4n+3 they would serve.
_QR_CLASSES: dict[tuple[int, bool], dict[int, tuple[int, ...]]] = {}
# The peel's size bound per (t, doubled): with s = t^4 (2t^4 when doubled)
# the module docstring's argument needs n > (6 + sqrt 32)s, that is n > 6s
# and (n - 6s)^2 > 32s^2; 32s^2 is no square, so for integer n that is
# n > 6s + isqrt(32s^2).
_SIZE_BOUND: dict[tuple[int, bool], int] = {}


def _build_tables() -> None:
    for t in MODULI:
        mod = t * t
        for doubled in (False, True):
            k = 8 if doubled else 4
            # a and mod - a share a class
            _QR_CLASSES[t, doubled] = {k * a * a % mod: (mod - a, a) for a in range(1, mod // 2 + 1) if a % t}
            s = 2 * t**4 if doubled else t**4
            _SIZE_BOUND[t, doubled] = 6 * s + isqrt(32 * s * s)


_build_tables()


def quad2_to_four_squares(n: int, q: Quad2) -> FourSquareForm:
    """Repackage a witness for n as a four-square witness of 4n+3."""
    if eval_quad("thm2", q) != n:
        raise ValueError(f"{tuple(q)} does not represent {n}")
    a, b, c, d = q
    return FourSquareForm(abs(4 * a - 1), 4 * c + 1, b + d, abs(2 * b - 2 * d - 1))


def four_squares_to_quad2(f: FourSquareForm) -> Quad2:
    """Inverse of quad2_to_four_squares; rejects malformed witnesses."""
    u1, u2, a, w = f
    if u1 < 1 or (u1 != 1 and u1 % 4 != 3):
        raise ValueError(f"u1={u1} must be 1 or 3 mod 4")
    if u2 < 1 or u2 % 4 != 1:
        raise ValueError(f"u2={u2} must be positive and 1 mod 4")
    if a < 0 or w < 1 or w % 2 == 0 or w > 2 * a + 1:
        raise ValueError(f"w={w} must be odd and at most 2a+1={2 * a + 1}")
    # u1 = 2i+1 and u2 = 2j+1 give the (a, c) indices, the wildcard u1 = 1
    # index -1; the (b, d) slots hold (4a^2 + w^2 - 1)/4 = a^2 + 2T(x),
    # x = (w-1)/2, split as T(a+x) + T(a-x-1), and w = 2a+1 reaches index -1
    x = (w - 1) // 2
    return _quad(Quad2, (u1 - 1) // 2 if u1 % 4 == 3 else -1, (u2 - 1) // 2, a + x, a - x - 1)


_branches = dict.fromkeys(("brute", "square", "doubled", "descent"), 0)


def branch_counts() -> dict[str, int]:
    """How often each strategy (brute/square/doubled/descent) ran; only those that did."""
    return {branch: count for branch, count in _branches.items() if count}


def reset_branch_counts() -> None:
    _branches.update(dict.fromkeys(_branches, 0))


def represent_thm2(n: int) -> Quad2:
    """Return (a, b, c, d) with 2a(2a-1)+b(2b-1)+2c(2c+1)+d(2d+1) = n."""
    check_nat(n)
    v = 4 * n + 3
    for t in MODULI:
        if v % t:
            break
    else:
        _branches["descent"] += 1
        return _descend(v)
    doubled = pow(v % t, (t - 1) // 2, t) == t - 1
    mod = t * t
    # t is coprime to v, so its class is read directly; the residues are
    # stored in descending order, so with base descending too the offsets
    # of [0, start] come largest first; an empty class walks nothing,
    # rather than the multiples of the modulus
    residues = _QR_CLASSES[t, doubled].get(v % mod)
    start = isqrt(n // 2) if doubled else isqrt(n)
    for base in range(start - start % mod, -1, -mod) if residues else ():
        for r in residues:
            a_off = base + r
            if a_off > start:
                continue
            if doubled:
                x, y, z = rep_tt4t_mixed(n - 2 * a_off * a_off, t)
                if a_off > z:
                    _branches["doubled"] += 1
                    return _quad(Quad2, a_off + z, a_off - z - 1, x, y)
            elif (a_off ^ n) & 1 == 0:  # n - A^2 must be even
                x, y, z = rep_ttt_mixed((n - a_off * a_off) // 2, t)
                if a_off > z:
                    _branches["square"] += 1
                    return _quad(Quad2, x, y, a_off + z, a_off - z - 1)
    # the offsets ran dry, which the size bound confines to inputs at or
    # below it; the search refuses any input above it
    try:
        witness = brute_quad("thm2", n, budget=_SIZE_BOUND[t, doubled])
    except BudgetExceeded as exc:
        raise ConstructionFailed(f"offset scan exhausted for n={n} (t={t}): {exc}") from exc
    _branches["brute"] += 1
    return Quad2(*witness)


def _descend(v: int) -> Quad2:
    inner_n = (v // COMPOSITE_MODULUS - 3) // 4
    inner = represent_thm2(inner_n)
    f = quad2_to_four_squares(inner_n, inner)
    l1, l2 = lift_odd_pair(f.u1, f.u2)
    if l1 % 4 == 1:
        l1, l2 = l2, l1
    even, odd = lift_even_odd_pair(2 * f.a, f.w)
    return four_squares_to_quad2(FourSquareForm(l1, l2, even // 2, odd))
