"""The independent sumset oracle the sweep tests check verify_range against.

For a form and a bound hi it returns the n in [0, hi] that are no sum of
one value from each of the form's slots.  It is a plain big-int shift-or:
bit n of the running set is 1 when n is a sum of the slots seen so far, and
each slot ORs in that set shifted by each of its values.  It uses no
residue classes, no partial stages and no lookup, and it imports nothing
from trisum, so it shares no code with the sweep it checks.
"""

import re

# the slots of each form: "odd" values are T(2k-1) = k(2k-1), "even" ones
# T(2k) = k(2k+1), and a trailing 2 doubles them
_SLOTS = {
    "thm1": ("odd", "odd", "even", "even"),
    "thm2": ("odd2", "odd", "even2", "even"),
    "conj_a": ("odd", "odd", "even"),
    "conj_b": ("odd", "even", "even"),
}


def _values(kind: str, hi: int):
    scale = 2 if kind.endswith("2") else 1
    sign = -1 if kind.startswith("odd") else 1
    k = 0
    while (v := scale * k * (2 * k + sign)) <= hi:
        yield v
        k += 1


def _reachable_bits(form: str, hi: int) -> int:
    if form == "conjecture":
        return _reachable_bits("conj_a", hi) | _reachable_bits("conj_b", hi)
    mask = (1 << hi + 1) - 1
    bits = 1
    for kind in _SLOTS[form]:
        acc = 0
        for v in _values(kind, hi):
            acc |= bits << v
        bits = acc & mask
    return bits


def unreached(form: str, hi: int) -> tuple[int, ...]:
    """The n in [0, hi], ascending, that the form does not reach."""
    # read every bit at once: bit n is character n of the reversed string
    text = format(_reachable_bits(form, hi), f"0{hi + 1}b")[::-1]
    return tuple(m.start() for m in re.finditer("0", text))
