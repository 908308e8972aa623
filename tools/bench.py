"""Time trisum layer by layer, in one process, and print one JSON line.

    python3 tools/bench.py layers [--inputs N] [--repeat K]

The layers mode draws the benchmark's own inputs for seed 1 (perfbench's
large_thm1/large_thm2 and top_thm1/top_thm2 streams: [10^12, 2*10^12)
and [2^56, 2^58]) and times, per band and theorem:

* represent_thm1 or represent_thm2 on each input;
* squares._two_square_splits on each remainder those calls list;
* squares._factor_rough on each cofactor those listings pass it.

Each input is timed on its own as the fastest of K calls, every package
cache cleared before each call and the garbage collector off, so a
figure is the input's own cost, not the host's noise or a cache hit.
Each entry gives the call count, the calls per witness and the p50, p99,
max and mean of those per-input times in microseconds; "calls" is 0 and
the times are null when a layer is not reached.

Its "sweeps" object times verify_range on [0, hi] for the conjecture to
10^6 and for thm1 and thm2 to 10^7, K runs each, caches cleared before
each run: per form, hi and the median over the runs of elapsed_ms and
of each stage of RangeReport.stages, in milliseconds.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import pkgutil
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import trisum  # noqa: E402
from perfbench.workloads import WORKLOADS, inputs  # noqa: E402
from trisum import squares  # noqa: E402
from trisum.theorem1 import represent_thm1  # noqa: E402
from trisum.theorem2 import represent_thm2  # noqa: E402
from trisum.verifier import verify_range  # noqa: E402

BANDS = ("large", "top")
SEED = 1
REPRESENT = {"thm1": represent_thm1, "thm2": represent_thm2}
SWEEPS = {"conjecture": 10**6, "thm1": 10**7, "thm2": 10**7}


def _cache_clears() -> list:
    # every lru cache bound in a trisum module, once each
    caches = {}
    for info in pkgutil.iter_modules(trisum.__path__):
        for value in vars(importlib.import_module(f"trisum.{info.name}")).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                caches[id(value)] = clear
    return list(caches.values())


def _fastest_us(call, arg, repeat: int, clears) -> float:
    best = math.inf
    for _ in range(repeat):
        for clear in clears:
            clear()
        t0 = perf_counter_ns()
        call(arg)
        best = min(best, perf_counter_ns() - t0)
    return best / 1000


def _stats(times: list[float], witnesses: int) -> dict:
    out = {"calls": len(times), "per_witness": round(len(times) / witnesses, 3)}
    if not times:
        return {**out, "p50_us": None, "p99_us": None, "max_us": None, "mean_us": None}
    times = sorted(times)

    def rank(q: float) -> float:  # nearest rank
        return round(times[max(0, math.ceil(q * len(times)) - 1)], 2)

    return {**out, "p50_us": rank(0.5), "p99_us": rank(0.99), "max_us": round(times[-1], 2),
            "mean_us": round(sum(times) / len(times), 2)}


class _Noted:
    """squares.<name> while in place: notes each distinct argument of an outside call."""

    def __init__(self, name: str) -> None:
        self.name, self.real, self.args, self.depth = name, getattr(squares, name), {}, 0

    def __call__(self, n, *rest):
        if not self.depth:
            self.args.setdefault(n)
        self.depth += 1
        try:
            return self.real(n, *rest)
        finally:
            self.depth -= 1

    def __enter__(self):
        setattr(squares, self.name, self)
        return self

    def __exit__(self, *exc) -> None:
        setattr(squares, self.name, self.real)


def _band(band: str, form: str, count: int, repeat: int, clears) -> dict:
    represent = REPRESENT[form]
    stream = inputs(WORKLOADS[f"{band}_{form}"], SEED)
    ns = [next(stream) for _ in range(count)]
    # one untimed pass, caches cleared per input, notes what each input lists
    # and factors; a value met twice within one input is a cache hit
    remainders: list[int] = []
    cofactors: list[int] = []
    for n in ns:
        for clear in clears:
            clear()
        with _Noted("_two_square_splits") as splits, _Noted("_factor_rough") as rough:
            represent(n)
        remainders += splits.args
        cofactors += rough.args
    return {
        "represent": _stats([_fastest_us(represent, n, repeat, clears) for n in ns], count),
        "_two_square_splits": _stats([_fastest_us(splits.real, r, repeat, clears) for r in remainders], count),
        "_factor_rough": _stats([_fastest_us(lambda c: rough.real(c, {}), c, repeat, ()) for c in cofactors], count),
    }


def _sweep(form: str, hi: int, repeat: int, clears) -> dict:
    reports = []
    for _ in range(repeat):
        for clear in clears:
            clear()
        reports.append(verify_range(form, 0, hi))
    stages = {name: round(statistics.median(report.stages[i][1] for report in reports), 3)
              for i, (name, _) in enumerate(reports[0].stages)}
    return {"hi": hi, "elapsed_ms": round(statistics.median(report.elapsed_ms for report in reports), 3),
            "stages": stages}


def layers(count: int, repeat: int) -> dict:
    """Per-input layer timings of both theorems in both bands (module docstring)."""
    clears = _cache_clears()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = {band: {form: _band(band, form, count, repeat, clears) for form in REPRESENT}
                  for band in BANDS}
        result["sweeps"] = {form: _sweep(form, hi, repeat, clears) for form, hi in SWEEPS.items()}
    finally:
        if enabled:
            gc.enable()
    return {"mode": "layers", "inputs": count, "repeat": repeat, "seed": SEED,
            "python": platform.python_version(), **result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    layer = modes.add_parser("layers", help="per-input timings of the witness layers, and sweep stage times")
    layer.add_argument("--inputs", type=int, default=2000, help="inputs per band and theorem")
    layer.add_argument("--repeat", type=int, default=9,
                       help="calls per input, the fastest counting, and runs per sweep, the median counting")
    args = parser.parse_args(argv)
    print(json.dumps(layers(args.inputs, args.repeat)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
