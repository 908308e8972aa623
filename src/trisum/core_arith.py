"""Triangular-number arithmetic and index/quadruple conversions.

Triangular numbers are T(k) = k(k+1)/2.  Index -1 is admitted as a
first-class index with T(-1) = 0 so that zero-valued slots round-trip
through index form: 0 has both an odd-class index (-1) and an even-class
index (0).

The index parity decides which quadruple slot a triangular value feeds:

    odd index u  (including -1)  ->  value a(2a-1) with a = (u+1)/2
    even index v                 ->  value c(2c+1) with c = v/2
"""

from __future__ import annotations

from typing import NamedTuple

# Inputs above this bound are rejected at the API boundary so that every
# intermediate quantity (8n+6, squares near 8n, products with 3965 during
# validation) stays well inside 64-bit magnitude.
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
    """The construction failed and the input is beyond the brute-force budget."""


def check_nat(n: int, name: str = "n", bound: int = MAX_INPUT) -> int:
    """Validate that *n* is an integer with 0 <= n <= bound (MAX_INPUT by default)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{name} must be an integer, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {n}")
    if n > bound:
        shown = "2**58" if bound == MAX_INPUT else bound
        raise ValueError(f"{name}={n} exceeds the supported bound {shown}")
    return n


def triangular(k: int) -> int:
    """Return T(k) = k(k+1)/2 for k >= -1 (T(-1) = T(0) = 0)."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"index must be an integer, got {type(k).__name__}")
    if k < -1:
        raise ValueError(f"triangular index must be >= -1, got {k}")
    return k * (k + 1) // 2


def split_square_plus_double_tri(a: int, b: int) -> tuple[int, int]:
    """Split a^2 + 2*T(b) into a pair of triangular indices.

    Returns (a+b, a-b-1) when a > b, else (a+b, b-a); in both cases
    T(first) + T(second) == a*a + 2*T(b).
    """
    check_nat(a, "a")
    check_nat(b, "b")
    if a > b:
        return a + b, a - b - 1
    return a + b, b - a


def eval_quad(form: str, q) -> int:
    """Evaluate a quadruple under the named form ("thm1" or "thm2")."""
    a, b, c, d = q
    if form == "thm1":
        return a * (2 * a - 1) + b * (2 * b - 1) + c * (2 * c + 1) + d * (2 * d + 1)
    if form == "thm2":
        return 2 * a * (2 * a - 1) + b * (2 * b - 1) + 2 * c * (2 * c + 1) + d * (2 * d + 1)
    raise ValueError(f"unknown form {form!r}")


def indices_to_quad1(i1: int, i2: int, i3: int, i4: int) -> Quad1:
    """Map four triangular indices (two odd, two even) to a Quad1.

    Odd indices (value a(2a-1)) fill the (a, b) slots in the order given;
    even indices (value c(2c+1)) fill (c, d) likewise.  A parity count
    other than 2+2 is rejected.
    """
    odds = []
    evens = []
    for i in (i1, i2, i3, i4):
        if not isinstance(i, int) or isinstance(i, bool) or i < -1:
            raise ValueError(f"invalid triangular index {i!r}")
        if i % 2:  # -1 % 2 == 1, so -1 lands in the odd class
            odds.append((i + 1) // 2)
        else:
            evens.append(i // 2)
    if len(odds) != 2:
        raise ValueError(
            f"need exactly two odd and two even indices, got {len(odds)} odd"
        )
    return Quad1(odds[0], odds[1], evens[0], evens[1])
