"""Constructive witnesses for a(2a-1) + b(2b-1) + c(2c+1) + d(2d+1).

One peel serves both parities of n.  It writes

    n = u1^2 + u2^2 + 2T(y) + 2T(z)

from the largest square-ish chunk and a ternary representation of the
small remainder m:

* odd n:  k is the biggest with 2k^2 + 2k + 1 <= n, m = 2T(d) + T(y) + T(z)
  (rep_2t_t_t), u1 = k+d+1 paired with z, u2 = k-d paired with y;
* even n: k is the biggest with 2k^2 <= n, m = p^2 + T(y) + T(z)
  (rep_square_two_tri), u1 = k-p paired with y, u2 = k+p paired with z.

Each pair recombines through the split

    u^2 + 2T(x) = T(u+x) + T(u-x-1)    (u > x),

whose odd and even index fill one odd and one even slot: (a, c) from the
first pair, (b, d) from the second.

The split needs the bound check u1 > x1 and u2 > x2, and it holds for
every n > 200.  Since k+1 would not fit, the peel leaves m <= 2k+1 for
odd n and m <= 2k for even n.  With s = d (odd) or p (even), that gives
s^2 + y^2/2 <= m <= 2k+1, and by Cauchy-Schwarz

    (s + y)^2 <= 3(s^2 + y^2/2) <= 6k+3 < k^2    once k >= 7;

n > 200 gives k >= 8 (odd) and k >= 10 (even).  Hence k - s > y, which
is the check on the pair that holds y; the other root, k+d+1 or k+p, is
no smaller, and both ternary reps return z <= y, which settles the
other check.  (n <= 200 goes straight to the exhaustive search.)  The
check still runs, as a safety net: a failure, which the argument above
rules out, is counted and raises ConstructionFailed at once, with no
search to stand in.
"""

from math import isqrt

from .core_arith import ConstructionFailed, Quad1, _quad, check_nat
from .ternary import rep_2t_t_t, rep_square_two_tri
from .verifier import brute_quad

_fallbacks = 0


def fallback_count() -> int:
    """Number of constructive-path bound failures since the last reset."""
    return _fallbacks


def reset_fallback_count() -> None:
    global _fallbacks
    _fallbacks = 0


def represent_thm1(n: int) -> Quad1:
    """Return (a, b, c, d) with a(2a-1)+b(2b-1)+c(2c+1)+d(2d+1) = n."""
    global _fallbacks
    check_nat(n)
    if n > 200:
        if n & 1:
            k = (isqrt(2 * n - 1) - 1) // 2
            d, y, z = rep_2t_t_t((n - 2 * k * k - 2 * k - 1) // 2)
            u1, x1, u2, x2 = k + d + 1, z, k - d, y
        else:
            k = isqrt(n // 2)
            p, y, z = rep_square_two_tri((n - 2 * k * k) // 2)
            u1, x1, u2, x2 = k - p, y, k + p, z
        if u1 > x1 and u2 > x2:
            return _quad(Quad1, u1 + x1, u1 - x1 - 1, u2 + x2, u2 - x2 - 1)
        _fallbacks += 1
        raise ConstructionFailed(f"bound check failed for n={n}")
    return tuple.__new__(Quad1, brute_quad("thm1", n))
