"""Workloads of the trisum benchmark: what each one calls, on which inputs.

Every workload is a closed loop with one caller: the next call starts
only after the previous one returns.  Inputs come from the seed alone, so
the program under test receives nothing but the generated integers.  Why
each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, NamedTuple, Optional

LARGE_BAND = (10**12, 2 * 10**12 - 1)  # [10^12, 2*10^12), inclusive ends
TOP_BAND = (1 << 56, 1 << 58)  # [2^56, 2^58], inclusive ends


class Workload(NamedTuple):
    """One homogeneous stream of calls into a single public function.

    kind is "sweep" (verify_range(form, 0, hi)) or "witness"
    (represent_<form> on every input).  band is None for the ascending
    window 0, 1, 2, ..., else the inclusive range the seeded inputs are
    drawn from uniformly.  One pass makes `calls` calls, so a pass does
    the same work on every run with the same seed, and its counts repeat.
    pass_s is the wall time of one pass, process start included, on the
    machine of README.md; it fixes how many passes a run makes.
    """

    kind: str
    form: str
    band: Optional[tuple[int, int]]
    hi: int
    expected: tuple[int, ...]
    calls: int
    pass_s: float


def _sweep(form: str, hi: int, expected: tuple[int, ...], pass_s: float) -> Workload:
    return Workload("sweep", form, None, hi, expected, 1, pass_s)


def _witness(form: str, band, calls: int, pass_s: float) -> Workload:
    return Workload("witness", form, band, 0, (), calls, pass_s)


# BENCHMARK.json lists four of these; README.md says why the rest are not.
WORKLOADS: dict[str, Workload] = {
    "sweep_thm1": _sweep("thm1", 10**7, (), 8.0),
    "sweep_thm2": _sweep("thm2", 10**7, (), 7.5),
    "sweep_conjecture": _sweep("conjecture", 10**6, (8, 68), 0.4),
    "small_thm1": _witness("thm1", None, 100_000, 0.85),
    "small_thm2": _witness("thm2", None, 60_000, 1.4),
    "large_thm1": _witness("thm1", LARGE_BAND, 4_000, 1.7),
    "large_thm2": _witness("thm2", LARGE_BAND, 2_000, 1.75),
    "top_thm1": _witness("thm1", TOP_BAND, 400, 5.0),
    # represent_thm2 raises ValueError on every n >= 2^56 (ROADMAP item 2),
    # so as long as that stands every call here fails.
    "top_thm2": _witness("thm2", TOP_BAND, 100, 0.15),
}


def pass_count(workload: Workload, seconds: int) -> int:
    """Passes in a run of `seconds`: set by the arguments, not by how fast passes go.

    A faster program must not earn more samples, or its fastest-of-passes
    figures would improve by more than the program did.
    """
    return max(1, round(seconds / workload.pass_s))


def inputs(workload: Workload, seed: int) -> Iterator[int]:
    """The workload's inputs in call order; the same seed gives the same stream."""
    if workload.kind == "sweep":
        return itertools.repeat(workload.hi)
    if workload.band is None:
        return itertools.count()
    lo, hi = workload.band
    rng = random.Random(seed)
    return (rng.randint(lo, hi) for _ in itertools.count())


class WrongOutput(Exception):
    """The program returned a result that fails the benchmark's check."""


def quad_value(form: str, q) -> int:
    """Value of a quadruple under the form, restated from core_arith.eval_quad.

    The benchmark keeps its own copy so that a change to the program
    cannot weaken the check the program is measured by.
    """
    a, b, c, d = q
    if form == "thm1":
        return a * (2 * a - 1) + b * (2 * b - 1) + c * (2 * c + 1) + d * (2 * d + 1)
    return 2 * a * (2 * a - 1) + b * (2 * b - 1) + 2 * c * (2 * c + 1) + d * (2 * d + 1)


def check_output(workload: Workload, x: int, out) -> None:
    """Raise WrongOutput unless `out` is a correct result for input `x`."""
    if workload.kind == "sweep":
        if tuple(out.exceptions) != workload.expected:
            raise WrongOutput(
                f"verify_range({workload.form!r}, 0, {x}) gave exceptions "
                f"{tuple(out.exceptions)[:10]}, expected {workload.expected}"
            )
        return
    if (
        len(out) != 4
        or any(type(v) is not int or v < 0 for v in out)
        or quad_value(workload.form, out) != x
    ):
        raise WrongOutput(f"represent_{workload.form}({x}) gave {tuple(out)!r}")
