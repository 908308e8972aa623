"""Constructive witnesses for 2a(2a-1) + b(2b-1) + 2c(2c+1) + d(2d+1).

One rule serves every input.  Pick the first modulus t in MODULI, the
paper's 5, 13 and 61 and then 149, 157, 181, 269, 317, 389 and 421,
coprime to 4n+3.  If 4n+3 is a quadratic residue mod t, peel off A^2,
else 2A^2 ("doubled"); write k = 1 or 2 for the two shapes.  A is drawn
from a residue class mod t^2; the mixed ternary representations write
(n - A^2)/2 as T+T+T, or n - 2A^2 as T+T+4T when doubled; and the two
parts are glued back together through the slot map of core_arith: the
offset's part splits as T(A+z) + T(A-z-1), which needs A > z, and that
index pair and the ternary's (x, y) each fill one odd and one even slot.
Offsets are tried largest first and come from class arithmetic, not a
scan: they form two arithmetic progressions, one per residue of the
class of 4n+3, of step t^2, or 2t^2 in the square shape, where each
residue is first lifted to the parity that leaves n - A^2 even.  Each
progression's largest term at or below the root comes in closed form,
and the two are walked down in turn, so every offset tried costs O(1)
for every t and none is looked at and skipped.  t is coprime to 4n+3,
so 4n+3 falls in a class v mod t^2 coprime to t, and that class fixes
the shape: every t is 5 mod 8, so 2 is no square mod t, and 4A^2 takes
exactly the classes coprime to t whose residue mod t is a square, 8A^2 =
2*4A^2 exactly the others.  t is an odd prime coprime to k, so such a
class holds exactly two roots r and t^2 - r of kA^2 = v, and no multiple
of t is ever an offset.  The shape and the two roots come in closed
form: Euler's criterion on v mod t, and Atkin's square root of v/k
taken mod t^2 in one step.  Atkin's formula for a prime 5 mod 8 needs
only a cyclic group of units whose order is 4 mod 8 and in which 2 is
no square, and the units mod t^2 are one, of order t(t-1).  A process
computes a class's shape and roots the first time it meets the class
and keeps them, so any later input of that class reads them from a dict.

No offset A <= (t-1)/2 passes, at any n.  The mixed reps return
z = (tr - k)/(2k) for the root r of k's parity, which is odd, so r >= 1,
when k = 1, and 2 mod 4, so r >= 2, when k = 2; either way
z >= (t-1)/2 >= A.  So the walk stops once its larger offset is at most
(t-1)/2: for n in [0, 60000) that takes 57,310 mixed-rep calls, against
58,113 when it tried those offsets too.

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
ConstructionFailed.  The search finds a witness for every input at or
below its size bound, so ConstructionFailed cannot happen on a valid
input.  That is a finite check, in three parts:

* t in {5, 13, 61}: the largest bound is 322797900, and

      trisum verify --form thm2 --to 322797900 --full

  reports the exceptions (), with 930 holes searched (34.9 s, peak RSS
  69.1 MB; shared 2-vCPU host, CPython 3.11.7).
* t in {149, 157, 181, 269}: `python3 tools/evidence.py` builds and
  checks every input that takes t at or below its shape's bound, and
  prints

      t = 149: 2158986 inputs, bounds 5745481624 and 11490963248, 0 failures
      t = 157: 17870 inputs, bounds 7082392249 and 14164784499, 0 failures
      t = 181: 199 inputs, bounds 12511104909 and 25022209819, 0 failures
      t = 269: 6 inputs, bounds 61036621473 and 122073242947, 0 failures
      25.5 s, peak RSS 47.7 MB

  (same host).

* t in {317, 389, 421}: an input that takes t has 4n+3 divisible by
  every smaller modulus, and their product exceeds 4 times t's largest
  bound plus 3, so no input takes t at or below its bound.

The paper instead stops at 5, 13 and 61: when all three divide 4n+3 it
divides 4n+3 by 3965 = 5*13*61, solves the smaller input recursively and
lifts that witness back through a four-square normal form.  This module
does not follow that descent.  The peel's argument asks of t only that
it is a prime 5 mod 8 with a rotation pair (ternary.ROTATION), and the
ten moduli multiply past 4*2^58 + 3, so every input in the domain has a
coprime t: the construction never recurses, and the descent's lifting
lemmas and normal form are not needed.
"""

from math import isqrt

from .core_arith import ConstructionFailed, Quad2, _quad, check_nat
from .ternary import MODULI

# ternary's mixed caches, called with the integers derived below, and the
# search without brute_quad's checks, since n is checked here and the
# budget is the size bound; the seam names are the ones the benchmark's
# tracer wraps
from .ternary import _tt4t_mixed as rep_tt4t_mixed
from .ternary import _ttt_mixed as rep_ttt_mixed
from .verifier import BudgetExceeded
from .verifier import _brute_quad as brute_quad


def _class(t: int, v: int) -> tuple[bool, tuple[int, int]]:
    # the class v mod t^2, coprime to t: its shape, by Euler's criterion on
    # v mod t, and the two roots of kA^2 = v mod t^2 in descending order.
    # Atkin's square root of w = v/k mod t^2: the units mod t^2 form a
    # cyclic group of order t(t-1) = 4 mod 8 in which 2 is no square, so
    # i = (2w)^(t(t-1)/4) = 2wb^2 has i^2 = -1, and (wb(i-1))^2 = w.
    doubled = pow(v, (t - 1) // 2, t) != 1
    k, mod = (8 if doubled else 4), t * t
    w = v * pow(k, -1, mod) % mod
    b = pow(2 * w, (mod - t - 4) // 8, mod)
    a = w * b * (2 * w * b * b - 1) % mod
    return doubled, ((a, mod - a) if 2 * a > mod else (mod - a, a))


# _class's answers, one dict per modulus t keyed by the class of 4n+3 mod
# t^2, each filled the first time a process meets that class; a hit is a
# plain dict read.  Multiples of t never occur, since t never divides the
# 4n+3 it serves.
_CLASSES: dict[int, dict[int, tuple[bool, tuple[int, int]]]] = {t: {} for t in MODULI}


def _size_bound(s: int) -> int:
    # the module docstring's argument needs n > (6 + sqrt 32)s, that is
    # n > 6s and (n - 6s)^2 > 32s^2; 32s^2 is no square, so for integer n
    # that is n > 6s + isqrt(32s^2)
    return 6 * s + isqrt(32 * s * s)


# The peel's size bound per (t, doubled), with s = t^4 (2t^4 when doubled).
_SIZE_BOUND = {(t, doubled): _size_bound((1 + doubled) * t**4) for t in MODULI for doubled in (False, True)}


_branches = dict.fromkeys(("brute", "square", "doubled"), 0)


def branch_counts() -> dict[str, int]:
    """How often each strategy (brute/square/doubled) ran; only those that did."""
    return {branch: count for branch, count in _branches.items() if count}


def reset_branch_counts() -> None:
    _branches.update(dict.fromkeys(_branches, 0))


def represent_thm2(n: int) -> Quad2:
    """Return (a, b, c, d) with 2a(2a-1)+b(2b-1)+2c(2c+1)+d(2d+1) = n."""
    check_nat(n)
    v = 4 * n + 3
    # the moduli multiply past 4 * MAX_INPUT + 3, so one is coprime to v
    for t in MODULI:
        if v % t:
            break
    mod = t * t
    # t is coprime to v, so the class of v holds the shape and the offsets'
    # two residues mod t^2
    try:
        doubled, (a_off, lo) = _CLASSES[t][v % mod]
    except KeyError:  # the first input of its class in this process
        doubled, (a_off, lo) = _CLASSES[t][v % mod] = _class(t, v % mod)
    start = isqrt(n // 2) if doubled else isqrt(n)
    # the offsets are two progressions of step t^2, or 2t^2 in the square
    # shape, where n - A^2 must be even: the residues have opposite parity
    # (they sum to t^2 odd), and the one of the wrong parity moves up by
    # t^2.  Each progression starts at its largest term at or below start,
    # negative when it has none.  The two starts lie within step of each
    # other, so trying the larger, then the other, and stepping the one
    # just tried down by step visits every offset largest first; the walk
    # stops once both are at most (t-1)/2, where no offset passes.
    if doubled:
        step = mod
    else:
        step = 2 * mod
        if (a_off ^ n) & 1:
            a_off += mod
        else:
            lo += mod
    a_off = start - (start - a_off) % step
    lo = start - (start - lo) % step
    if a_off < lo:
        a_off, lo = lo, a_off
    while a_off > t >> 1:
        if doubled:
            x, y, z = rep_tt4t_mixed(n - 2 * a_off * a_off, t)
            if a_off > z:
                _branches["doubled"] += 1
                return _quad(Quad2, a_off + z, a_off - z - 1, x, y)
        else:
            x, y, z = rep_ttt_mixed((n - a_off * a_off) // 2, t)
            if a_off > z:
                _branches["square"] += 1
                return _quad(Quad2, x, y, a_off + z, a_off - z - 1)
        a_off, lo = lo, a_off - step
    # the offsets ran dry, which the size bound confines to inputs at or
    # below it; the search refuses any input above it
    try:
        witness = brute_quad("thm2", n, budget=_SIZE_BOUND[t, doubled])
    except BudgetExceeded as exc:
        raise ConstructionFailed(f"offset scan exhausted for n={n} (t={t}): {exc}") from exc
    if witness is None:
        raise ConstructionFailed(f"no witness for n={n} at or below the size bound (t={t})")
    _branches["brute"] += 1
    return tuple.__new__(Quad2, witness)
