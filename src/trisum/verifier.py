"""Exhaustive checks for the quadruple and triple representability forms.

Two engines live here.  brute_quad walks a table of forms, each given as
its slot kinds in search order, and returns the lexicographically first
witness; it resolves the last two slots together, up to 2^20 from a table
of first index pairs and above that by a scan and a square root.

verify_range covers a whole interval at once.  Every form is a sumset of
slot kinds; each slot contributes the bit masks of its attainable values
and the masks are convolved by shift-or.  The bitmaps are kept one per
residue class r mod M = 45 and run backwards: with top = hi // M, bit i
of class r stands for the value r + M*(top - i).  Adding a slot value
r2 + M*q to class r1 lands in class (r1 + r2) mod M as a right shift by
q, plus one when r1 + r2 carries past M, which drops every sum above the
top of that class.  Every slot value is T(i) or 2T(i), so each slot kind
fills only 12 of the 45 classes, and a stage shifts about a quarter of
the bits one bitmap of [0, hi] would take.  The conjecture's two
triples, odd + odd + even and odd + even + even, share the slots odd +
even, and their third slots together take every triangular number, so
the union is the single triple odd + even + triangular.  Only the first
two slots form a full stage; every later slot ORs in just its first few
values.  Each hole left in [lo, hi] is then resolved exactly: n is
reached when the full stage holds n - v3 (three slots) or n - v3 - v4
(four slots) for some remaining slot values v3, v4.  The holes that stay
open, taken from every class in ascending order, are the exceptions.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import accumulate, count, islice, takewhile
from math import isqrt
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .core_arith import check_nat

FORMS = ("thm1", "thm2", "conj_a", "conj_b", "conjecture")

DEFAULT_BUDGET = 10**8
DEFAULT_CAP = 10**8


class BudgetExceeded(ValueError):
    """Input beyond the search budget or the sweep cap; budget=None or full=True forces it."""


# A sumset does not depend on slot order, and no stage is shared between
# forms; the orders below are the faster ones (CPython 3.11, 2-vCPU host).
# The full stage shifts each class bitmap of the first slot by each value
# of the second, so the sparser kind goes second: thm2 to 10^7 as odd +
# odd2 takes about 0.23 s, as odd2 + odd 0.28 s.  conj_a as odd + even +
# odd takes about 0.015 s to 10^6, as odd + odd + even 0.030 s, most of
# it in looking up the many more holes an odd + odd full stage leaves.
_SLOT_KINDS = {
    "thm1": ("odd", "odd", "even", "even"),
    "thm2": ("odd", "odd2", "even2", "even"),
    "conj_a": ("odd", "even", "odd"),
    "conj_b": ("odd", "even", "even"),
    "conjecture": ("odd", "even", "tri"),
}
# The k-th slot value is the sum of the first k terms of an arithmetic
# progression (first term, step): odd k(2k-1), even k(2k+1), odd2 and
# even2 twice those, tri k(k+1)/2.
_SLOT_STEP = {"odd": (1, 4), "even": (3, 4), "odd2": (2, 8), "even2": (6, 8), "tri": (1, 1)}


def _values(kind: str) -> Iterator[int]:
    return accumulate(count(*_SLOT_STEP[kind]), initial=0)


def _slot_values(kind: str, hi: int) -> list[int]:
    return list(takewhile(hi.__ge__, _values(kind)))


# Up to this n the last two slots of a brute search come from a table.
_PAIR_MAX = 1 << 20

# Slot kinds in search order, and where each searched index goes in the
# witness; thm2 searches a, c, b, d so that it ends in odd + even like
# conj_a.  Forms whose first two slots share a kind need no b >= a start:
# their first witness has b >= a anyway.
_BRUTE_FORMS = {
    "thm1": (("odd", "odd", "even", "even"), itemgetter(0, 1, 2, 3)),
    "thm2": (("odd2", "even2", "odd", "even"), itemgetter(0, 2, 1, 3)),
    "conj_a": (("odd", "odd", "even"), itemgetter(0, 1, 2)),
    "conj_b": (("odd", "even", "even"), itemgetter(0, 1, 2)),
}

# Keyed by the last two slot kinds: the table's limit, and for every sum up
# to it the first index pair in lexicographic order.  Grown on demand, and
# with them every kind's list of values up to the largest limit so far.
_pairs: dict[tuple[str, ...], tuple[int, dict[int, tuple[int, int]]]] = {}
_SMALL_VALUES: dict[str, list[int]] = {"odd": [], "even": [], "odd2": [], "even2": []}


def _pair_table(kinds: tuple[str, ...], n: int) -> dict[int, tuple[int, int]]:
    limit, table = _pairs.get(kinds) or (-1, {})
    if n > limit:
        # sums already in the table keep their pair, so it grows in place
        limit = min(max(n, 2 * limit, 1024), _PAIR_MAX)
        for kind, values in _SMALL_VALUES.items():
            values.extend(takewhile(limit.__ge__, islice(_values(kind), len(values), None)))
        first, last = (_SMALL_VALUES[kind] for kind in kinds)
        for j, u in enumerate(first):
            for k, v in enumerate(last):
                if u + v > limit:
                    break
                table.setdefault(u + v, (j, k))
        _pairs[kinds] = limit, table
    return table


def _index_of(kind: str, r: int) -> Optional[tuple[int]]:
    # T(m) = r exactly when 8r+1 = (2m+1)^2; an odd kind takes m = 2k-1
    # (m = -1 for r = 0), an even kind m = 2k, a doubled kind twice that
    if kind[-1] == "2":
        if r & 1:
            return None
        r >>= 1
    s = 8 * r + 1
    root = isqrt(s)
    if root * root != s:
        return None
    k, even = divmod((root + 1) >> 1, 2)
    return (k,) if even == (kind[0] == "e") or not r else None


def _search(kinds: tuple[str, ...], n: int, pairs, i: int = 0) -> Optional[tuple[int, ...]]:
    # the first indices in lexicographic order for slots i.. summing to n;
    # the last two come from `pairs` if there is a table, else from a scan
    head, left = kinds[i], len(kinds) - i
    values = _values(head) if pairs is None else _SMALL_VALUES[head]
    resolve = None  # recurse into slot i + 1
    if left == 3 and pairs is not None:
        resolve = pairs.get
    elif left == 2:
        resolve = partial(_index_of, kinds[-1])
    j = 0
    for v in values:
        if v > n:
            return None
        found = _search(kinds, n - v, pairs, i + 1) if resolve is None else resolve(n - v)
        if found is not None:
            return (j, *found)
        j += 1
    return None


def brute_quad(form: str, n: int, budget: Optional[int] = DEFAULT_BUDGET):
    """First witness of `form` for n, or None if none exists.

    "First" is lexicographic in the search order: (a, b, c, d) for thm1,
    (a, c, b, d) for thm2, (a, b, c) for conj_a and conj_b.  conjecture
    returns conj_a's witness when one exists, else conj_b's.  Raises
    BudgetExceeded for n above `budget` (pass budget=None to search
    regardless of size).
    """
    check_nat(n)
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if budget is not None and n > budget:
        raise BudgetExceeded(f"n={n} beyond search budget {budget}")
    for part in ("conj_a", "conj_b") if form == "conjecture" else (form,):
        kinds, place = _BRUTE_FORMS[part]
        found = _search(kinds, n, _pair_table(kinds[-2:], n) if n <= _PAIR_MAX else None)
        if found is not None:
            return place(found)
    return None


# Values of each slot after the full stage that are OR-ed in before the
# holes are looked up.  Only speed depends on it: at 32 the conjecture
# sweep to 10^6 leaves 271 holes instead of 2 and runs about 1.5x slower.
_LAST_SHIFTS = 64


# Residue classes of the sweep bitmaps; 1 is a single bitmap of [0, hi].
# Only speed depends on it.  T(i) takes 4 classes mod 9 and 3 mod 5, so
# every slot kind fills 12 of these 45.  The conjecture sweep to 10^6 took
# about 18 ms at 9, 17 at 45, 18 at 63 and 22 at 105 or 315 (thm1 to 10^7
# is faster at 315, 0.25 s against 0.34 s).
_MODULUS = 45


def _by_class(values: list[int]) -> dict[int, list[int]]:
    # v = r + M*q, listed as r -> [q, ...] in ascending order
    classes: dict[int, list[int]] = {}
    for v in values:
        q, r = divmod(v, _MODULUS)
        classes.setdefault(r, []).append(q)
    return classes


def _class_bitmaps(values: list[int], top: int) -> dict[int, int]:
    # in class r, bit i stands for the value r + M*(top - i)
    maps = {}
    for r, qs in _by_class(values).items():
        bits = bytearray(top // 8 + 1)
        for q in qs:
            bits[(top - q) >> 3] |= 1 << ((top - q) & 7)
        maps[r] = int.from_bytes(bits, "little")
    return maps


def _add_slot(stage: dict[int, int], values: list[int]) -> dict[int, int]:
    # Adding v = r2 + M*q to class r1 lands in class (r1 + r2) mod M as a
    # right shift by q, plus one when r1 + r2 carries past M; it drops every
    # sum above the top of its class.  Smallest shift first, so acc never
    # grows and each later temporary fits in memory the allocator holds.
    out: dict[int, int] = {}
    for r2, qs in _by_class(values).items():
        for r1, bits in stage.items():
            carry, r = divmod(r1 + r2, _MODULUS)
            acc = 0
            for q in qs:
                acc |= bits >> (q + carry)
            out[r] = out.get(r, 0) | acc
    return out


def _reached(data: list[bytes], top: int, n: int, slots: list[list[int]]) -> bool:
    # whether some choice of one value per slot, with sum s <= n, leaves a
    # value n - s that the full stage reached, read from its class bytes
    if not slots:
        q, r = divmod(n, _MODULUS)
        return bool(data[r][(top - q) >> 3] >> ((top - q) & 7) & 1)
    return any(_reached(data, top, n - v, slots[1:]) for v in takewhile(n.__ge__, slots[0]))


def _exceptions(form: str, lo: int, hi: int) -> tuple[tuple[int, ...], tuple[tuple[str, float], ...]]:
    kinds = _SLOT_KINDS[form]
    top = hi // _MODULUS
    stages = []
    mark = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        stages.append((name, (now - mark) * 1000.0))
        mark = now

    full = _add_slot(_class_bitmaps(_slot_values(kinds[0], hi), top), _slot_values(kinds[1], hi))
    lap(f"full {kinds[0]}+{kinds[1]}")
    rest = [_slot_values(kind, hi) for kind in kinds[2:]]
    reached = full
    for kind, values in zip(kinds[2:], rest):
        reached = _add_slot(reached, values[:_LAST_SHIFTS])
        lap(f"partial {kind}")
    holes = []
    for r in range(_MODULUS):
        # bits first..last of class r are its values in [lo, hi]; the ones
        # above hi, up to M*top + M - 1, are swept but never reported
        first = top - (hi - r) // _MODULUS
        last = top - max(0, -((r - lo) // _MODULUS))
        if first > last:
            continue
        gaps = ~reached.get(r, 0) & ((1 << (last + 1)) - (1 << first))
        while gaps:
            low = gaps & -gaps
            gaps ^= low
            holes.append(r + _MODULUS * (top + 1 - low.bit_length()))
    del reached  # the lookup reads only the full stage
    out = []
    if holes:
        data = [full.get(r, 0).to_bytes(top // 8 + 1, "little") for r in range(_MODULUS)]
        out = [n for n in sorted(holes) if not _reached(data, top, n, rest)]
    lap("lookup")
    return tuple(out), tuple(stages)


class RangeReport(NamedTuple):
    form: str
    lo: int
    hi: int
    exceptions: tuple[int, ...]
    elapsed_ms: float
    stages: tuple[tuple[str, float], ...]


def verify_range(form: str, lo: int, hi: int, *, full: bool = False) -> RangeReport:
    """Exceptions of `form` on [lo, hi], found by a whole-interval sweep.

    Refuses hi beyond DEFAULT_CAP unless full=True; a sweep holds a few
    sets of class bitmaps of hi/8 bytes in all at once (about 3.5 MB above
    the interpreter's own footprint at hi = 10^7), so a larger one is a
    deliberate choice, not a default.  `stages` lists (name, ms) for the
    full stage, each partial stage and the hole lookup.
    """
    check_nat(lo, "lo")
    check_nat(hi, "hi")
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if hi > DEFAULT_CAP and not full:
        raise BudgetExceeded(f"hi={hi} above cap={DEFAULT_CAP}; pass full=True to override")
    t0 = time.perf_counter()
    exceptions, stages = _exceptions(form, lo, hi)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return RangeReport(form, lo, hi, exceptions, elapsed_ms, stages)
