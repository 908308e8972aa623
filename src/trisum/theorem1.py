"""Constructive witnesses for a(2a-1) + b(2b-1) + c(2c+1) + d(2d+1).

The construction peels off the largest available square-ish chunk (driven
by the biggest c with 2c^2(+2c+1) <= n), represents the small remainder
with a ternary identity, and recombines via the split

    a^2 + 2T(b) = T(a+b) + T(a-b-1)    (a > b).

The recombination needs two strict bound checks; they are expected to
hold for every n > 200 and are verified at runtime anyway, with a swap
repair and a brute-force fallback behind them.  The fallback searches
only up to verifier.DEFAULT_BUDGET; beyond it the call raises
ConstructionFailed.
"""

from __future__ import annotations

import logging
from math import isqrt

from .core_arith import ConstructionFailed, Quad1, check_nat, indices_to_quad1
from .ternary import rep_2t_t_t, rep_square_two_tri
from .verifier import BudgetExceeded, brute_quad

logger = logging.getLogger(__name__)

_fallbacks = 0


def fallback_count() -> int:
    """Number of constructive-path bound failures since the last reset."""
    return _fallbacks


def reset_fallback_count() -> None:
    global _fallbacks
    _fallbacks = 0


def _note_fallback(n: int) -> None:
    global _fallbacks
    _fallbacks += 1
    logger.warning("bound check failed for n=%d; trying the brute-force search", n)


def represent_thm1(n: int) -> Quad1:
    """Return (a, b, c, d) with a(2a-1)+b(2b-1)+c(2c+1)+d(2d+1) = n."""
    check_nat(n)
    if n <= 200:
        return Quad1(*brute_quad("thm1", n))
    if n & 1:
        # biggest c with 2c^2 + 2c + 1 <= n, i.e. (2c+1)^2 <= 2n - 1
        c = (isqrt(2 * n - 1) - 1) // 2
        m = (n - (2 * c * c + 2 * c + 1)) // 2
        d, y0, z0, _ = rep_2t_t_t(m)
        for x, y in ((y0, z0), (z0, y0)):
            if c - d > x and c + d + 1 > y:
                return indices_to_quad1(c + d + 1 + y, c + d - y, c - d + x, c - d - x - 1)
    else:
        c = isqrt(n // 2)
        m = (n - 2 * c * c) // 2
        p, y0, z0, _ = rep_square_two_tri(m)
        for x, y in ((y0, z0), (z0, y0)):
            if c - p > x and c + p > y:
                return indices_to_quad1(c - p + x, c - p - x - 1, c + p + y, c + p - y - 1)
    _note_fallback(n)
    try:
        return Quad1(*brute_quad("thm1", n))
    except BudgetExceeded as exc:
        raise ConstructionFailed(f"bound check failed for n={n}: {exc}") from exc
