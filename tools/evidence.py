"""Check theorem 2's construction on every input that reaches a modulus past 61.

represent_thm2 takes the first modulus t in MODULI coprime to 4n+3, so an
input reaches t exactly when 4n+3 is a multiple of every smaller modulus
and not of t.  Above its shape's size bound the peel provably succeeds;
at or below it the construction may fall back to the budgeted search.
This tool enumerates every input that reaches t at or below that bound,
builds its witness, checks it with eval_quad and prints one line per t,
then the wall time and the peak RSS:

    python3 tools/evidence.py

It checks every modulus past 61 that some input reaches at or below its
bound: 149, 157, 181 and 269.
"""

from __future__ import annotations

import resource
import sys
import time
from math import prod
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trisum.core_arith import eval_quad  # noqa: E402
from trisum.ternary import MODULI  # noqa: E402
from trisum.theorem2 import _SIZE_BOUND, _class, represent_thm2  # noqa: E402


def reached() -> list[int]:
    """The moduli past 61 that some input reaches at or below its bound."""
    return [t for i, t in enumerate(MODULI) if i >= 3 and prod(MODULI[:i]) <= 4 * _SIZE_BOUND[t, True] + 3]


def inputs(t: int) -> Iterator[int]:
    """Every n, ascending, that reaches t and lies at or below its shape's size bound."""
    step = prod(MODULI[: MODULI.index(t)])
    # v = 4n+3 = step*j is 3 mod 4; step is odd, so it is its own inverse mod 4
    for v in range(step * (3 * step % 4), 4 * _SIZE_BOUND[t, True] + 4, 4 * step):
        if v % t:
            n = (v - 3) // 4
            if n <= _SIZE_BOUND[t, _class(t, v % t**2)[0]]:
                yield n


def check(t: int) -> tuple[int, list[int]]:
    """The number of inputs that reach t at or below its bound, and those without a valid witness."""
    count, failures = 0, []
    for n in inputs(t):
        count += 1
        try:
            ok = eval_quad("thm2", represent_thm2(n)) == n
        except ValueError:
            ok = False
        if not ok:
            failures.append(n)
    return count, failures


def main() -> int:
    t0 = time.perf_counter()
    failed = False
    for t in reached():
        count, failures = check(t)
        failed |= bool(failures)
        shown = f"{len(failures)} failures" + (f" (first: {failures[:10]})" if failures else "")
        print(f"t = {t}: {count} inputs, bounds {_SIZE_BOUND[t, False]} and {_SIZE_BOUND[t, True]}, {shown}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{time.perf_counter() - t0:.1f} s, peak RSS {rss_mb:.1f} MB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
