"""Triangular-number arithmetic and index/quadruple conversions.

Triangular numbers are T(k) = k(k+1)/2.  Index -1 is admitted as a
first-class index with T(-1) = 0 so that zero-valued slots round-trip
through index form: 0 has both an odd-class index (-1) and an even-class
index (0).

The index parity decides which quadruple slot a triangular value feeds:

    odd index u  (including -1)  ->  value a(2a-1) with a = (u+1)/2
    even index v                 ->  value c(2c+1) with c = v/2

Both constructions end the same way: a square plus a doubled triangular
number, a^2 + 2T(x) with a >= x, splits into T(a+x) + T(a-x-1), one odd
and one even index, and that pair fills one odd slot and one even slot.
`_quad` is the one place this mapping lives: it takes two such index
pairs, the first for (a, c) and the second for (b, d), and builds the
witness from them without validating, for indices the constructions
derived themselves.
"""

from typing import NamedTuple

# Inputs above this bound are rejected at the API boundary so that every
# intermediate quantity (8n+6, squares near 8n, the 8n+2 whose two-square
# splits the search lists) stays below 2^64, where squares' Miller-Rabin is exact.
MAX_INPUT = 1 << 58


class Quad1(NamedTuple):
    """Witness for a(2a-1) + b(2b-1) + c(2c+1) + d(2d+1)."""

    a: int
    b: int
    c: int
    d: int


class Quad2(NamedTuple):
    """Witness for 2a(2a-1) + b(2b-1) + 2c(2c+1) + d(2d+1)."""

    a: int
    b: int
    c: int
    d: int


class ConstructionFailed(ValueError):
    """The construction failed where its proof says it cannot.

    For theorem 1 that is a failed bound check above 200; for theorem 2 a
    dry offset scan above the size bound of the modulus and shape the
    input picks, or a mixed ternary representation handed an n and a t
    with t^2 not dividing 8n+2+k^2.  None of these cases is searched.
    squares raises it too when a two-square listing hands a composite to
    the Gaussian-prime step, which only a fault in its factoring can do,
    or when Pollard rho finds no factor within its step bound, as for a
    prime, which only such a fault hands it.
    """


def check_nat(n: int, name: str = "n", bound: float = MAX_INPUT) -> int:
    """Validate that *n* is an integer with 0 <= n <= bound (MAX_INPUT by default, math.inf for none)."""
    if type(n) is int and 0 <= n <= bound:
        return n
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{name} must be an integer, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {n}")
    if n > bound:
        shown = "2**58" if bound == MAX_INPUT else bound
        raise ValueError(f"{name}={n} exceeds the supported bound {shown}")
    return n


def _quad(cls, i: int, j: int, k: int, l: int):
    # (i, j) fills (a, c) and (k, l) fills (b, d); each pair holds one odd
    # index (-1 included), which goes to the odd slot, and one even index.
    # tuple.__new__ is what the NamedTuple's own __new__ calls, without its
    # keyword handling
    if i & 1:
        a, c = (i + 1) // 2, j // 2
    else:
        a, c = (j + 1) // 2, i // 2
    if k & 1:
        b, d = (k + 1) // 2, l // 2
    else:
        b, d = (l + 1) // 2, k // 2
    return tuple.__new__(cls, (a, b, c, d))


def eval_quad(form: str, q) -> int:
    """Evaluate a quadruple under the named form ("thm1" or "thm2")."""
    a, b, c, d = q
    if form == "thm1":
        return a * (2 * a - 1) + b * (2 * b - 1) + c * (2 * c + 1) + d * (2 * d + 1)
    if form == "thm2":
        return 2 * a * (2 * a - 1) + b * (2 * b - 1) + 2 * c * (2 * c + 1) + d * (2 * d + 1)
    raise ValueError(f"unknown form {form!r}")
