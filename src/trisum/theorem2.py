"""Constructive witnesses for 2a(2a-1) + b(2b-1) + 2c(2c+1) + d(2d+1).

Strategy: pick the smallest modulus t in {5, 13, 61} coprime to 4n+3.
If 4n+3 is a quadratic residue mod t, peel off A^2, else 2A^2
("doubled"); one path serves both shapes.  With s = t^4 (2t^4 when
doubled), every n > 6s with (n - 6s)^2 > 32s^2 takes A from a residue
class mod t^2, writes the rest as T+T+T or T+T+4T with the mixed ternary
representations, and glues the halves back together through the slot map
of core_arith: the offset's part splits as T(A+z) + T(A-z-1), and that
index pair and the ternary's (x, y) each fill one odd and one even slot.
Offsets are tried largest first and come from class arithmetic, not a
scan: for the square shape the parity rule (n - A^2 even) is folded into
the classes, which then live mod 2t^2, and each candidate is a class
residue plus a multiple of the modulus, so it costs O(1) even for
t = 61.  When all three moduli divide 4n+3 the problem is shrunk by a
factor of 3965 = 5*13*61 and solved recursively; the small witness is
lifted back up through a four-square normal form.  Smaller inputs go to
the exhaustive search instead, with the size bound as its budget.  If the
offsets ever ran dry, the same search would stand in up to
verifier.DEFAULT_BUDGET; beyond it the call raises ConstructionFailed.
"""

from __future__ import annotations

import logging
from collections import Counter
from math import isqrt
from typing import Iterator, NamedTuple

from .core_arith import ConstructionFailed, Quad2, _slots, _split_slots, check_nat, eval_quad
from .ternary import (
    COMPOSITE_MODULUS,
    MODULI,
    lift_even_odd_pair,
    lift_odd_pair,
    rep_tt4t_mixed,
    rep_ttt_mixed,
)
from .verifier import BudgetExceeded, brute_quad

logger = logging.getLogger(__name__)


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
_QR_CLASSES: dict[tuple[int, bool], dict[int, frozenset[int]]] = {}
# The peel's size bound per (t, doubled): with s = t^4 (2t^4 when doubled)
# the argument needs n > 6s and (n - 6s)^2 > 32s^2; 32s^2 is no square, so
# for integer n that is n > 6s + isqrt(32s^2).
_SIZE_BOUND: dict[tuple[int, bool], int] = {}


def _build_tables() -> None:
    for t in MODULI:
        mod = t * t
        for doubled in (False, True):
            k = 8 if doubled else 4
            classes: dict[int, set[int]] = {}
            for a0 in range(mod):
                classes.setdefault(k * a0 * a0 % mod, set()).add(a0)
            _QR_CLASSES[t, doubled] = {r: frozenset(s) for r, s in classes.items()}
            s = 2 * t**4 if doubled else t**4
            _SIZE_BOUND[t, doubled] = 6 * s + isqrt(32 * s * s)


_build_tables()


def _offset_candidates(n: int, t: int, doubled: bool) -> Iterator[int]:
    # every A in [0, start] in one of the classes, in descending order
    # the caller chose t coprime to 4n+3, so the classes are read directly
    classes = _QR_CLASSES[t, doubled].get((4 * n + 3) % (t * t))
    if not classes:
        return  # rather than walk the multiples of the modulus for nothing
    start = isqrt(n // 2) if doubled else isqrt(n)
    mod = t * t
    if not doubled:
        # n - A^2 must stay even: t is odd, so each class mod t^2 has one
        # member mod 2t^2 with A = n mod 2
        classes = [c + mod if (c ^ n) & 1 else c for c in classes]
        mod *= 2
    residues = sorted(classes, reverse=True)
    base = start - start % mod
    top = start - base
    for r in residues:
        if r <= top:
            yield base + r
    for base in range(base - mod, -1, -mod):
        for r in residues:
            yield base + r


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
    # the (b, d) slots hold (4a^2 + w^2 - 1)/4 = a^2 + 2T((w-1)/2); w = 2a+1 reaches index -1
    b, d = _split_slots(a, (w - 1) // 2)
    return Quad2((u1 + 1) // 4 if u1 % 4 == 3 else 0, b, (u2 - 1) // 4, d)


_branches: Counter[str] = Counter()


def branch_counts() -> dict[str, int]:
    """How often each strategy (brute/square/doubled/descent) ran."""
    return dict(_branches)


def reset_branch_counts() -> None:
    _branches.clear()


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
    bound = _SIZE_BOUND[t, doubled]
    if n > bound:
        for a_off in _offset_candidates(n, t, doubled):
            if doubled:
                rep = rep_tt4t_mixed(n - 2 * a_off * a_off, t)
            else:
                rep = rep_ttt_mixed((n - a_off * a_off) // 2, t)
            if a_off > rep.z:
                _branches["doubled" if doubled else "square"] += 1
                split = _split_slots(a_off, rep.z)
                pair = _slots(rep.x, rep.y)
                (a, c), (b, d) = (split, pair) if doubled else (pair, split)
                return Quad2(a, b, c, d)
        logger.warning("offset scan exhausted for n=%d (t=%d); falling back", n, t)
        try:
            witness = brute_quad("thm2", n)
        except BudgetExceeded as exc:
            raise ConstructionFailed(f"offset scan exhausted for n={n} (t={t}): {exc}") from exc
    else:
        # below the size bound (up to about 3.2e8 for t = 61): searched, with
        # the bound as the budget
        witness = brute_quad("thm2", n, budget=bound)
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
