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

Every index the split writes is k plus a term of m's ternary rep, so the
rep fixes everything but k.  And m <= 2k + 1, so one remainder recurs at
every k from about m/2 up: about 2 sqrt(2N) remainders serve the inputs
of [0, N], and the rest are cache hits (99.1% on [0, 10^5]).
_peel_odd and _peel_even cache per m what a call needs of the rep: the
bound the check compares k with (u1 > x1 and u2 > x2 is k > bound) and
the witness (a0, b0, c0, d0) the split gives at k = 0.  A step of k adds
1 to every index.  Two steps keep each index's parity and add 1 to every
slot; one step swaps which index of each pair is odd, so each pair's odd
slot takes its even slot's value plus 1 and its even slot the odd slot's
value.  With k = 2h + s the witness is therefore

    (a0+h, b0+h, c0+h, d0+h)        for s = 0,
    (c0+h+1, d0+h+1, a0+h, b0+h)    for s = 1,

and a repeated remainder costs one lookup and four additions.  (At k = 0
some indices are negative; _quad's floor divisions stay exact there, as
each divides an even number.)
Theorem 1 binds rep_2t_t_t and rep_square_two_tri to the uncached bodies
of ternary's reps: their lru under the peel caches would only add a
second miss per distinct remainder.  The names stay module attributes,
so a tracer that wraps them still sees every peel miss.
"""

from functools import lru_cache
from math import isqrt

from . import ternary
from .core_arith import ConstructionFailed, Quad1, _quad, _tuple_new, check_nat
from .verifier import brute_quad

# uncached: the peel caches below hold what these give (module docstring)
rep_2t_t_t = ternary.rep_2t_t_t.__wrapped__
rep_square_two_tri = ternary.rep_square_two_tri.__wrapped__

_fallbacks = 0


def fallback_count() -> int:
    """Number of constructive-path bound failures since the last reset."""
    return _fallbacks


def reset_fallback_count() -> None:
    global _fallbacks
    _fallbacks = 0


# Each peel cache maps m to (bound, (a0, b0, c0, d0)): the bound on k, and
# the witness at k = 0 of an odd (even) n with remainder m.  The bound is
# max(z - d - 1, y + d) (max(p + y, z - p)) spelled out, and the witness
# is kept as _quad built it: the builtin max and a flat 5-tuple each cost a
# miss more than the arithmetic around them.
@lru_cache(maxsize=1 << 15)
def _peel_odd(m: int) -> tuple[int, tuple[int, int, int, int]]:
    d, y, z = rep_2t_t_t(m)
    return (y + d if y > z - 2 * d - 1 else z - d - 1), _quad(tuple, d + 1 + z, d - z, y - d, -d - y - 1)


@lru_cache(maxsize=1 << 15)
def _peel_even(m: int) -> tuple[int, tuple[int, int, int, int]]:
    p, y, z = rep_square_two_tri(m)
    return (p + y if y + 2 * p > z else z - p), _quad(tuple, y - p, -p - y - 1, p + z, p - z - 1)


def represent_thm1(n: int) -> Quad1:
    """Return (a, b, c, d) with a(2a-1)+b(2b-1)+c(2c+1)+d(2d+1) = n."""
    global _fallbacks
    check_nat(n)
    if n > 200:
        if n & 1:
            k = (isqrt(2 * n - 1) - 1) // 2
            bound, (a, b, c, d) = _peel_odd((n - 2 * k * k - 2 * k - 1) // 2)
        else:
            k = isqrt(n // 2)
            bound, (a, b, c, d) = _peel_even((n - 2 * k * k) // 2)
        if k > bound:
            h = k >> 1
            if k & 1:
                return _tuple_new(Quad1, (c + h + 1, d + h + 1, a + h, b + h))
            return _tuple_new(Quad1, (a + h, b + h, c + h, d + h))
        _fallbacks += 1
        raise ConstructionFailed(f"bound check failed for n={n}")
    return _tuple_new(Quad1, brute_quad("thm1", n))
