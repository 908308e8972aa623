"""Exhaustive checks for the quadruple and triple representability forms.

Two engines live here.  brute_quad finds one witness for a single input
by nested enumeration, resolving the last slot arithmetically (or, for
the doubled quadruple form, through a cached table of pair sums).
verify_range covers a whole interval at once.  Every form is a sumset of
slot kinds; each slot contributes a bit mask of its attainable values
and the masks are convolved by shift-or.  The conjecture's two triples,
odd + odd + even and odd + even + even, share the slots odd + even, and
their third slots together take every triangular number, so the union
is the single triple odd + even + triangular.  The last slot ORs in only
its first few shifts; each hole left in [lo, hi] is then resolved by
looking up the earlier slots' bitmap at n - v for the remaining slot
values v.  The holes that stay open are the exceptions.
"""

from __future__ import annotations

import time
from math import isqrt
from typing import NamedTuple, Optional

from .core_arith import check_nat
from .squares import _SQ_MOD256

FORMS = ("thm1", "thm2", "conj_a", "conj_b", "conjecture")

DEFAULT_BUDGET = 10**8
DEFAULT_CAP = 10**8


class BudgetExceeded(ValueError):
    """Input beyond the configured search budget; raise the cap to force."""


def _resolve_even(r: int) -> Optional[int]:
    # c(2c+1) = r  <=>  8r+1 = (4c+1)^2
    s = 8 * r + 1
    if (s & 255) not in _SQ_MOD256:
        return None
    root = isqrt(s)
    if root * root != s or root & 3 != 1:
        return None
    return (root - 1) // 4


_BD_THRESHOLD = 1 << 20
_bd_table: dict[int, tuple[int, int]] = {}
_bd_limit = -1


def _rebuild_bd(limit: int) -> None:
    # first (b, d) in lexicographic order wins for every reachable sum
    global _bd_limit
    _bd_table.clear()
    b = 0
    while b * (2 * b - 1) <= limit:
        vb = b * (2 * b - 1)
        d = 0
        while vb + d * (2 * d + 1) <= limit:
            _bd_table.setdefault(vb + d * (2 * d + 1), (b, d))
            d += 1
        b += 1
    _bd_limit = limit


def _brute_thm1(n: int) -> Optional[tuple[int, int, int, int]]:
    a = 0
    while a * (2 * a - 1) <= n:
        ra = n - a * (2 * a - 1)
        b = a
        while b * (2 * b - 1) <= ra:
            rb = ra - b * (2 * b - 1)
            c = 0
            while c * (2 * c + 1) <= rb:
                d = _resolve_even(rb - c * (2 * c + 1))
                if d is not None:
                    return (a, b, c, d)
                c += 1
            b += 1
        a += 1
    return None


def _brute_thm2(n: int) -> Optional[tuple[int, int, int, int]]:
    if n <= _BD_THRESHOLD:
        if n > _bd_limit:
            _rebuild_bd(max(n, 2 * _bd_limit, 1024))
        a = 0
        while 2 * a * (2 * a - 1) <= n:
            ra = n - 2 * a * (2 * a - 1)
            c = 0
            while 2 * c * (2 * c + 1) <= ra:
                hit = _bd_table.get(ra - 2 * c * (2 * c + 1))
                if hit is not None:
                    return (a, hit[0], c, hit[1])
                c += 1
            a += 1
        return None
    a = 0
    while 2 * a * (2 * a - 1) <= n:
        ra = n - 2 * a * (2 * a - 1)
        b = 0
        while b * (2 * b - 1) <= ra:
            rb = ra - b * (2 * b - 1)
            c = 0
            while 2 * c * (2 * c + 1) <= rb:
                d = _resolve_even(rb - 2 * c * (2 * c + 1))
                if d is not None:
                    return (a, b, c, d)
                c += 1
            b += 1
        a += 1
    return None


def _brute_conj_a(n: int) -> Optional[tuple[int, int, int]]:
    a = 0
    while a * (2 * a - 1) <= n:
        ra = n - a * (2 * a - 1)
        b = a
        while b * (2 * b - 1) <= ra:
            c = _resolve_even(ra - b * (2 * b - 1))
            if c is not None:
                return (a, b, c)
            b += 1
        a += 1
    return None


def _brute_conj_b(n: int) -> Optional[tuple[int, int, int]]:
    a = 0
    while a * (2 * a - 1) <= n:
        ra = n - a * (2 * a - 1)
        b = 0
        while b * (2 * b + 1) <= ra:
            c = _resolve_even(ra - b * (2 * b + 1))
            if c is not None:
                return (a, b, c)
            b += 1
        a += 1
    return None


def brute_quad(form: str, n: int, budget: Optional[int] = DEFAULT_BUDGET):
    """First witness of `form` for n, or None if none exists.

    Raises BudgetExceeded for n above `budget` (pass budget=None to
    search regardless of size).
    """
    check_nat(n)
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if budget is not None and n > budget:
        raise BudgetExceeded(f"n={n} beyond search budget {budget}")
    if form == "thm1":
        return _brute_thm1(n)
    if form == "thm2":
        return _brute_thm2(n)
    if form == "conj_a":
        return _brute_conj_a(n)
    if form == "conj_b":
        return _brute_conj_b(n)
    return _brute_conj_a(n) or _brute_conj_b(n)


# A sumset does not depend on slot order: conj_a is listed as
# odd + even + odd to share its middle stage with the other triples.
_SLOT_KINDS = {
    "thm1": ("odd", "odd", "even", "even"),
    "thm2": ("odd2", "odd", "even2", "even"),
    "conj_a": ("odd", "even", "odd"),
    "conj_b": ("odd", "even", "even"),
    "conjecture": ("odd", "even", "tri"),
}
_SLOT_VALUE = {
    "odd": lambda k: k * (2 * k - 1),
    "even": lambda k: k * (2 * k + 1),
    "odd2": lambda k: 2 * k * (2 * k - 1),
    "even2": lambda k: 2 * k * (2 * k + 1),
    "tri": lambda k: k * (k + 1) // 2,
}

# Last-slot shifts OR-ed in before the holes are looked up; only speed depends on it.
_LAST_SHIFTS = 64


def _slot_values(kind: str, hi: int) -> list[int]:
    value = _SLOT_VALUE[kind]
    out = []
    while (v := value(len(out))) <= hi:
        out.append(v)
    return out


def _shift_or(bits: int, shifts: list[int]) -> int:
    # Largest shift first, so acc never grows and each later temporary fits
    # in memory the allocator already holds; growing ones are mapped afresh
    # (6x the page faults at 10^6, and nearly twice the time).
    acc = 0
    for v in reversed(shifts):
        acc |= bits << v
    return acc


def _exceptions(form: str, lo: int, hi: int) -> tuple[int, ...]:
    kinds = _SLOT_KINDS[form]
    mask = (1 << (hi + 1)) - 1
    base = bytearray(hi // 8 + 1)
    for v in _slot_values(kinds[0], hi):
        base[v >> 3] |= 1 << (v & 7)
    prev = int.from_bytes(base, "little")
    for kind in kinds[1:-1]:
        prev = _shift_or(prev, _slot_values(kind, hi)) & mask
    last = _slot_values(kinds[-1], hi)
    holes = (~_shift_or(prev, last[:_LAST_SHIFTS]) & mask) >> lo
    data = prev.to_bytes(hi // 8 + 1, "little")
    rest = last[_LAST_SHIFTS:]
    out = []
    while holes:
        low = holes & -holes
        holes ^= low
        n = lo + low.bit_length() - 1
        if not any(data[(n - v) >> 3] >> ((n - v) & 7) & 1 for v in rest if v <= n):
            out.append(n)
    return tuple(out)


class RangeReport(NamedTuple):
    form: str
    lo: int
    hi: int
    exceptions: tuple[int, ...]
    elapsed_ms: float


def verify_range(
    form: str,
    lo: int,
    hi: int,
    *,
    cap: int = DEFAULT_CAP,
    full: bool = False,
) -> RangeReport:
    """Exceptions of `form` on [lo, hi], found by a whole-interval sweep.

    Refuses hi beyond `cap` unless full=True; a full sweep holds a few
    bitmaps of roughly hi/8 bytes each, so large caps are a deliberate
    choice, not a default.
    """
    check_nat(lo, "lo")
    check_nat(hi, "hi")
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if hi > cap and not full:
        raise BudgetExceeded(f"hi={hi} above cap={cap}; pass full=True to override")
    t0 = time.perf_counter()
    exceptions = _exceptions(form, lo, hi)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return RangeReport(form, lo, hi, exceptions, elapsed_ms)
