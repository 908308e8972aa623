"""Exhaustive checks for the quadruple and triple representability forms.

Two engines live here.  brute_quad walks a table of forms, each given as
its slot kinds in search order, and returns the lexicographically first
witness.  Every form ends in an odd or even slot pair, whose values
T(m) + T(l) sum to n exactly when (2m+1)^2 + (2l+1)^2 = 8n+2, so those
two slots are resolved together: up to 2^20 from a table with one packed
first index pair per sum, above that from the two-square splits of 8n+2
that squares lists.  Up to n = 2^58 that is at most 8*2^58 + 2, below
2^64, where squares' primality test is exact.

verify_range covers a whole interval at once.  Every form is a sumset of
slot kinds; each slot contributes the bit masks of its attainable values
and the masks are convolved by shift-or.  The bitmaps are kept one per
residue class r mod M = 45 and run backwards: with top = hi // M, bit i
of class r stands for the value r + M*(top - i).  Adding a slot value
r2 + M*q to class r1 lands in class (r1 + r2) mod M as a right shift by
q, plus one when r1 + r2 carries past M, which drops every sum above the
top of that class.  A stage is built one class r at a time, from every
class r1 = (r - r2) mod M of the stage before.  Every slot value is T(i)
or 2T(i), so each slot kind fills only 12 of the 45 classes, and a stage
shifts about a quarter of the bits one bitmap of [0, hi] would take.
The conjecture's two triples, odd + odd + even and odd + even + even,
share the slots odd + even, and their third slots together take every
triangular number, so the union is the single triple triangular + even
+ odd.  Only the first two slots form a full stage, and it shifts by the
second slot's first 40 values and then by every stride-th one, where the
stride is twice the ratio of the first slot's size to the second's,
rounded, taken from the slots' steps: a slot of step s holds about
sqrt(2*hi/s) values.  That is 4 for the conjecture, whose triangular
slot (step 1) has twice the values of the even slot (step 4), and 2 for
every other form.  Both slots are read off their value iterators, never
listed whole.  The later slots together form one partial stage, which
ORs in just their 112 smallest sums, merged from those iterators, and
stops ORing into a class once it has no gap: to 10^6, 43 of the
conjecture's 45 classes are full after 3 to 11 of their 12 groups of
shifts.  That stage is never held whole: each of its classes
is scanned for holes as it is built and then dropped.  So a sweep of any
form holds one set of class bitmaps at a time.  Every hole left in
[lo, hi] goes to brute_quad's search, with the two-square splits as its
leaf so that a sweep grows no pair table, and is an exception exactly
when that finds no witness.  Hence neither stage need reach every sum:
a value or a sum they leave out makes holes, not wrong answers, and
which they take moves only the hole count and the time.  The exceptions come
out in ascending order.  Three functions run the stages in turn:
_full_stage builds the full stage, _scan_holes builds the partial stage
class by class and yields its holes in [lo, hi], and _lookup searches
them.  verify_range reads M once and passes it down; every helper takes
it as a parameter.
"""

import time
from array import array
from bisect import bisect_right
from heapq import merge
from itertools import accumulate, count, groupby, islice, takewhile
from math import inf, sqrt
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from .core_arith import check_nat
from .squares import _two_square_splits

FORMS = ("thm1", "thm2", "conj_a", "conj_b", "conjecture")

DEFAULT_BUDGET = 10**8
DEFAULT_CAP = 10**8


class BudgetExceeded(ValueError):
    """Input beyond the search budget or the sweep cap; budget=None or full=True forces it."""


# A sumset does not depend on slot order, and no stage is shared between
# forms; the orders below are the faster ones (CPython 3.11, 2-vCPU host).
# The full stage shifts each class bitmap of the first slot by the values
# of the second, so the sparser kind goes second: thm2 to 10^7 as odd +
# odd2 takes about 0.11 s, as odd2 + odd 0.15 s.  conj_a as odd + even +
# odd takes about 10 ms to 10^6, as odd + odd + even 16 ms, most of it
# in looking up the many more holes an odd + odd full stage leaves.  The
# conjecture's triangular slot, the union of the odd and even ones, goes
# first: its class bitmaps carry twice the bits, each shift ORs in twice
# the sums, and the stride halves the shifts.  Best of 15 interleaved
# sweeps to 10^6: tri + even + odd 5.2 ms, at stride 2 5.9; odd + even +
# tri 6.4; odd + tri + even at stride 4 6.7; tri + odd + even 5.1, but
# 5.9 where the stride floors 1414 / 708 values to 2 instead of 4.
_SLOT_KINDS = {
    "thm1": ("odd", "odd", "even", "even"),
    "thm2": ("odd", "odd2", "even2", "even"),
    "conj_a": ("odd", "even", "odd"),
    "conj_b": ("odd", "even", "even"),
    "conjecture": ("tri", "even", "odd"),
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
# conj_a, and every form ends in two undoubled slots, the pair _search
# resolves together.  Forms whose first two slots share a kind need no
# b >= a start: their first witness has b >= a anyway.
_BRUTE_FORMS = {
    "thm1": (("odd", "odd", "even", "even"), itemgetter(0, 1, 2, 3)),
    "thm2": (("odd2", "even2", "odd", "even"), itemgetter(0, 2, 1, 3)),
    "conj_a": (("odd", "odd", "even"), itemgetter(0, 1, 2)),
    "conj_b": (("odd", "even", "even"), itemgetter(0, 1, 2)),
}
# The searched forms whose union is each form; conjecture's are conj_a's
# and conj_b's, tried in that order.
_PARTS = {form: (search,) for form, search in _BRUTE_FORMS.items()}
_PARTS["conjecture"] = (_BRUTE_FORMS["conj_a"], _BRUTE_FORMS["conj_b"])

# Keyed by the last two slot kinds: an array with one entry per sum s up
# to its limit, len - 1, j << 16 | k for the first index pair (j, k) in
# lexicographic order, or -1 if no pair reaches s; up to _PAIR_MAX both
# indices stay below 2^10.  A request past the limit builds a new table
# whole, to the largest of n, four times the old limit and 1024, but not
# past _PAIR_MAX, so all the builds together cost about 4/3 of the last.
_pairs: dict[tuple[str, ...], array] = {}
_SMALL_VALUES = {kind: _slot_values(kind, _PAIR_MAX) for kind in ("odd", "even", "odd2", "even2")}


def _pair_table(kinds: tuple[str, ...], n: int) -> array:
    table = _pairs.get(kinds, ())
    if n >= len(table):
        limit = min(max(n, 4 * (len(table) - 1), 1024), _PAIR_MAX)
        first, last = (_SMALL_VALUES[kind] for kind in kinds)
        # j goes backwards and writes each sum at most once, so the last
        # write to a sum is its first pair
        _pairs[kinds] = table = array("i", [-1]) * (limit + 1)
        for j in reversed(range(bisect_right(first, limit))):
            u, packed = first[j], j << 16
            for k in range(bisect_right(last, limit - u)):
                table[u + last[k]] = packed | k
    return table


def _slot_index(kind: str, root: int) -> Optional[int]:
    # an odd slot holds T(2k-1) at index k and an even slot T(2k), and T(m)
    # takes root |2m+1|, so 4k-1 or 4k+1; root 1 is index 0 of both
    if root == 1 or root & 2 == (kind == "odd") << 1:
        return (root + 1) >> 2
    return None


def _search(kinds: tuple[str, ...], n: int, pairs, i: int = 0) -> Optional[tuple[int, ...]]:
    # the first indices in lexicographic order for slots i.. summing to n;
    # the last two come from `pairs` if there is a table, read by the loop
    # over the slot before them, else from the two-square splits of 8n+2:
    # T(m) + T(l) = n exactly when (2m+1)^2 + (2l+1)^2 = 8n+2
    if pairs is not None and i == len(kinds) - 3:
        for j, v in enumerate(_SMALL_VALUES[kinds[i]]):
            if v > n:
                break
            packed = pairs[n - v]
            if packed >= 0:
                return j, packed >> 16, packed & 0xFFFF
        return None
    if i == len(kinds) - 2:
        first, last = kinds[i:]
        options = []
        for q, p in _two_square_splits(8 * n + 2):
            for x, y in ((q, p), (p, q)):
                j, k = _slot_index(first, x), _slot_index(last, y)
                if j is not None and k is not None:
                    options.append((j, k))
        return min(options, default=None)
    values = _values(kinds[i]) if pairs is None else _SMALL_VALUES[kinds[i]]
    for j, v in enumerate(values):
        if v > n:
            break
        found = _search(kinds, n - v, pairs, i + 1)
        if found is not None:
            return (j, *found)
    return None


def brute_quad(form: str, n: int, budget: Optional[int] = DEFAULT_BUDGET):
    """First witness of `form` for n, or None if none exists.

    "First" is lexicographic in the search order: (a, b, c, d) for thm1,
    (a, c, b, d) for thm2, (a, b, c) for conj_a and conj_b.  conjecture
    returns conj_a's witness when one exists, else conj_b's.  Raises
    BudgetExceeded for n above `budget`, a non-negative integer of any
    size (pass budget=None to search regardless of size).
    """
    check_nat(n)
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if budget is not None:
        check_nat(budget, "budget", inf)
    return _brute_quad(form, n, budget)


def _brute_quad(form: str, n: int, budget: Optional[int]):
    # brute_quad for a caller that has checked n and passes a form and a
    # budget of its own
    if budget is not None and n > budget:
        raise BudgetExceeded(f"n={n} beyond search budget {budget}")
    for kinds, place in _PARTS[form]:
        found = _search(kinds, n, _pair_table(kinds[-2:], n) if n <= _PAIR_MAX else None)
        if found is not None:
            return place(found)
    return None


# The smallest sums of the slots after the full stage that are OR-ed in
# before the holes are settled (S), and the second slot's values the full
# stage takes before it keeps only every other one (F).  Only speed
# depends on them: the fewer values the full stage takes, the more the
# partial stage must fill, and what neither fills is a hole to search.
# Sweeps of [0, N], best of 21 in-process, in ms with the holes searched
# (CPython 3.11.7, 2 shared vCPUs); F = all keeps every value.  These
# ran with stride 2 for every form, the conjecture as odd + even + tri:
#
#   F, S      conjecture 10^6  thm1 10^6  thm2 10^6  conjecture 10^7  thm1 10^7   thm2 10^7
#   all, 64     8.2 (2)        9.7 (15)   7.1 (0)    170 (23)         182 (172)   125 (11)
#   40, 64     14.3 (224)     11.0 (119) 11.9 (236)  257 (3645)       176 (2057)  229 (5285)
#   40, 96      6.8 (10)       6.8 (0)    6.9 (4)    110 (191)        115 (51)     94 (140)
#   40, 112     6.8 (6)        6.8 (0)    7.0 (0)    103 (55)         103 (5)      96 (25)
#   40, 128     7.0 (3)        7.2 (0)    7.1 (0)    106 (16)         112 (1)      99 (2)
#   20, 112     6.6 (6)        6.7 (0)    7.2 (2)    105 (56)         103 (5)      95 (31)
#   80, 112     6.8 (5)        7.1 (0)    6.9 (0)    104 (49)         108 (5)      97 (20)
#
# and the conjecture as tri + even + odd, at stride 4:
#
#   F, S      conjecture 10^6  conjecture 10^7
#   all, 112    9.0 (2)        174 (2)
#   40, 64     11.4 (196)      240 (4660)
#   40, 96      5.3 (11)        87 (294)
#   40, 112     5.3 (2)         69 (78)
#   40, 128     5.2 (2)         70 (19)
#   20, 112     5.0 (3)         68 (101)
#   80, 112     5.1 (2)         69 (52)
#
# F = 40, S = 112 is within 6% of the best in every column.
_LAST_SHIFTS = 112
_FULL_PREFIX = 40


def _smallest_sums(kinds: tuple[str, ...], hi: int) -> list[int]:
    # the _LAST_SHIFTS smallest sums up to hi of one value from each slot
    # of `kinds`, ascending.  Each slot merges the rows u + values, one per
    # sum u so far, and keeps the first distinct sums; a row is read only as
    # far as the merge needs it, since every row starts at u + 0
    last = [0]
    for kind in kinds:
        sums = map(itemgetter(0), groupby(merge(*(map(u.__add__, _values(kind)) for u in last))))
        last = list(islice(takewhile(hi.__ge__, sums), _LAST_SHIFTS))
    return last


# Residue classes of the sweep bitmaps; 1 is a single bitmap of [0, hi].
# Only speed depends on it.  T(i) takes 4 classes mod 9 and 3 mod 5, so
# every slot kind fills 12 of these 45.  The conjecture sweep to 10^6
# takes about 9.0 ms at 9, 7.3 at 45, 8.4 at 63, 9.5 at 105 and 9.5 at
# 315; to 10^7, 315 is faster for thm1 (0.12 s against 0.16 s), thm2
# (0.09 against 0.11) and the conjecture (0.11 against 0.15).
_MODULUS = 45


# a translate table flagging the non-zero byte values
_NONZERO = b"\0" + b"\1" * 255


def _add_slot(
    stage: dict[int, int], values: list[int], m: int, target: Optional[int] = None
) -> Iterator[tuple[int, int]]:
    # Yields (r, bits) for every class r mod m in turn.  Adding v = r2 + m*q
    # to class r1 = (r - r2) mod m lands in class r as a right shift by q,
    # plus one when r1 + r2 carries past m; it drops every sum above the
    # top of its class.  Empty or absent classes of the stage are skipped:
    # shifting them as zeros made the conjecture's full stage to 10^6 about
    # 35% slower.  A class stops at the first group of values (one r2)
    # after which it equals `target`: no bit lies above the class's top,
    # so the later shifts could only set bits it already has.  The check
    # is made once per group: once per shift cost the full stage, which
    # passes no target, about 0.3 ms to 10^6 and saved the partial stage
    # nothing.
    classes: dict[int, list[int]] = {}
    for v in values:
        q, r2 = divmod(v, m)
        classes.setdefault(r2, []).append(q)
    for r in range(m):
        acc = 0
        for r2, qs in classes.items():
            r1 = (r - r2) % m
            if bits := stage.get(r1):
                carry = (r1 + r2) // m
                for q in qs:
                    acc |= bits >> (q + carry)
                if acc == target:
                    break
        yield r, acc


def _full_stage(kinds: tuple[str, ...], hi: int, m: int) -> dict[int, int]:
    # The first slot's class bitmaps, in class r bit i standing for the
    # value r + m*(top - i), shifted by the second slot's first _FULL_PREFIX
    # values and every stride-th one after them; both slots are read
    # straight off the value iterators, so no slot is ever listed whole.  A
    # slot of step s holds about sqrt(2*hi/s) values: past the prefix the
    # stage keeps every other value when the slots are about one size, and
    # k times as far apart when the first has k times the values, so it
    # shifts about as many bits either way
    first, second = (takewhile(hi.__ge__, _values(kind)) for kind in kinds)
    stride = 2 * round(sqrt(_SLOT_STEP[kinds[1]][1] / _SLOT_STEP[kinds[0]][1]))
    top = hi // m
    bitmaps: dict[int, bytearray] = {}
    for v in first:
        q, r = divmod(v, m)
        if r not in bitmaps:
            bitmaps[r] = bytearray(top // 8 + 1)
        bitmaps[r][(top - q) >> 3] |= 1 << ((top - q) & 7)
    stage = {r: int.from_bytes(bits, "little") for r, bits in bitmaps.items()}
    del bitmaps  # held through the shifts, they add 0.3 MB to the traced peak at 10^7
    return dict(_add_slot(stage, [*islice(second, _FULL_PREFIX), *islice(second, 0, None, stride)], m))


def _scan_holes(stage: dict[int, int], last: list[int], lo: int, hi: int, m: int) -> Iterator[int]:
    # The n in [lo, hi] that no sum of the stage and one of `last` reaches,
    # class by class as the partial stage builds them.  One pass flags the
    # non-zero bytes of a class's gaps; bit i of byte j stands for
    # n = r + m*(top - 8j - i).  Every class is swept up to m*top + r,
    # which can pass hi; only the holes in [lo, hi] are yielded
    top = hi // m
    mask = (1 << (top + 1)) - 1
    for r, bits in _add_slot(stage, last, m, mask):
        if gaps := ~bits & mask:
            data = gaps.to_bytes(top // 8 + 1, "little")
            flags = data.translate(_NONZERO)
            j = flags.find(1)
            while j >= 0:
                byte = data[j]
                for i in range(8):
                    n = r + m * (top - 8 * j - i)
                    if byte >> i & 1 and lo <= n <= hi:
                        yield n
                j = flags.find(1, j + 1)


def _lookup(form: str, holes: Iterable[int]) -> tuple[int, ...]:
    # the holes, ascending, that no searched part of `form` reaches
    return tuple(n for n in sorted(holes) if all(_search(k, n, None) is None for k, _ in _PARTS[form]))


class RangeReport(NamedTuple):
    form: str
    lo: int
    hi: int
    exceptions: tuple[int, ...]
    elapsed_ms: float
    stages: tuple[tuple[str, float], ...]
    holes: int


def verify_range(form: str, lo: int, hi: int, *, full: bool = False) -> RangeReport:
    """Exceptions of `form` on [lo, hi], found by a whole-interval sweep.

    Refuses hi beyond DEFAULT_CAP unless full=True; a sweep of any form
    holds one set of class bitmaps of up to hi/8 bytes (at hi = 10^7 its
    traced peak is about 1.4-1.5 MB for thm1 and the conjecture, 1.7 MB
    for thm2), so a larger one is a deliberate choice, not a default.
    `stages` lists (name, ms) for the full stage, the partial stage, which
    also scans its classes for holes, and the "lookup" that searches the
    holes; they run back to back on one clock, and `elapsed_ms` is their
    sum.  `holes` counts the n in [lo, hi] that both stages leave
    unreached, each searched once; every exception is one of them.
    """
    check_nat(lo, "lo")
    check_nat(hi, "hi")
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if hi > DEFAULT_CAP and not full:
        raise BudgetExceeded(f"hi={hi} above cap={DEFAULT_CAP}; pass full=True to override")
    kinds, m = _SLOT_KINDS[form], _MODULUS
    t0 = time.perf_counter()
    stage = _full_stage(kinds[:2], hi, m)
    t1 = time.perf_counter()
    holes = list(_scan_holes(stage, _smallest_sums(kinds[2:], hi), lo, hi, m))
    t2 = time.perf_counter()
    exceptions = _lookup(form, holes)
    t3 = time.perf_counter()
    names = (f"full {kinds[0]}+{kinds[1]}", f"partial {'+'.join(kinds[2:])}", "lookup")
    stages = tuple((name, (b - a) * 1000.0) for name, a, b in zip(names, (t0, t1, t2), (t1, t2, t3)))
    return RangeReport(form, lo, hi, exceptions, sum(ms for _, ms in stages), stages, len(holes))
