"""Time trisum layer by layer, or two revisions against each other, or record one revision.

    python3 tools/bench.py layers [--inputs N] [--repeat K]
    python3 tools/bench.py ab REV_A REV_B --workload NAME [--pairs P] [--seconds S]
    python3 tools/bench.py record REV [--pairs P]

The layers mode draws the benchmark's own inputs for seed 1 (perfbench's
large_thm1/large_thm2 and top_thm1/top_thm2 streams: [10^12, 2*10^12)
and [2^56, 2^58]) and times, per band and theorem:

* represent_thm1 or represent_thm2 on each input;
* squares._two_square_splits on each remainder those calls list;
* squares._factor_rough on each cofactor those listings pass it: only a
  cofactor of 2^26 or more with no prime factor below 2^13 reaches it,
  and none of the [10^12, 2*10^12) band's inputs leaves one, so there
  it reads 0 calls and null times.

Each input is timed on its own as the fastest of K calls, every package
cache cleared before each call and the garbage collector off, so a
figure is the input's own cost, not the host's noise or a cache hit.
Each entry gives the call count, the calls per witness and the p50, p99,
max and mean of those per-input times in microseconds; "calls" is 0 and
the times are null when a layer is not reached.

Its "sweeps" object times verify_range on [0, hi] for the conjecture,
conj_a and conj_b to 10^6 and for thm1 and thm2 to 10^7, K runs each,
caches cleared before each run: per form, hi, the median over the runs
of elapsed_ms and of each stage of RangeReport.stages, in milliseconds;
the holes, RangeReport.holes of the timed runs, which all read the same;
and traced_peak_kb, the tracemalloc peak of one more, untimed run, in
KB, the figure the tests bound for a sweep in a fresh process.

Its "small" object times whole passes of the small workloads' ranges,
represent_thm2 on [0, 60000) and represent_thm1 on [0, 10^5) (the first
N inputs of each when --inputs N is given), K passes each, every cache
cleared once before each pass: per call its fastest time over the
passes, summarised as above.  For thm2 it adds the mixed-rep calls per
witness and the calls that reach the exhaustive search, with their share
of the pass's time; one untimed pass finds both by wrapping theorem2's
seams.

The ab mode extracts one `git archive` copy of each revision and runs
perfbench/run.py --trace 0 on the workload in P alternating pairs of
fresh processes, seeds 101 and up, the first revision first in even
pairs: per end-to-end metric of BENCHMARK.json, each side's median and
quartiles, the pairs the second revision won by the metric's "better"
direction, the ties, and a two-sided sign-test p-value.

The record mode writes BENCH_<short rev>.json at the repo root, the
trajectory point of one revision: the machine, the Python version, the
full revision and the git tree of its src/ (which outlives a commit made
only to be recorded), and per workload of BENCHMARK.json the ab output
of REV against itself over P pairs of BENCHMARK.json's run_seconds,
fixed so that records compare: each end-to-end metric's median and
quartiles on both sides, whose gap is the A/A floor, reported next to
BENCHMARK.json's bounds, which it does not change.  It also holds one
layers run of REV's own tool and code, from a `git archive` copy in a
fresh process, and the record's wall time in seconds.  The cold
first-call latency of represent_thm2 is not recorded yet.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import pkgutil
import platform
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import trisum  # noqa: E402
from perfbench.baseline import summarise  # noqa: E402
from perfbench.workloads import WORKLOADS, inputs  # noqa: E402
from trisum import squares, theorem2  # noqa: E402
from trisum.theorem1 import represent_thm1  # noqa: E402
from trisum.theorem2 import represent_thm2  # noqa: E402
from trisum.verifier import verify_range  # noqa: E402

BANDS = ("large", "top")
SEED = 1
REPRESENT = {"thm1": represent_thm1, "thm2": represent_thm2}
SWEEPS = {"conjecture": 10**6, "conj_a": 10**6, "conj_b": 10**6, "thm1": 10**7, "thm2": 10**7}
BAND_INPUTS = 2000
SMALL = {"thm2": 60000, "thm1": 10**5}  # the small_thm2 and small_thm1 ranges
AB_SEED = 101


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
            "stages": stages, "holes": reports[0].holes, "traced_peak_kb": _traced_peak_kb(form, hi)}


def _traced_peak_kb(form: str, hi: int) -> int:
    tracemalloc.start()
    try:
        verify_range(form, 0, hi)
        return tracemalloc.get_traced_memory()[1] // 1024
    finally:
        tracemalloc.stop()


class _Seams:
    """theorem2's mixed-rep and search seams while in place: counts the calls to each."""

    NAMES = ("rep_ttt_mixed", "rep_tt4t_mixed", "brute_quad")

    def __init__(self) -> None:
        self.real = {name: getattr(theorem2, name) for name in self.NAMES}
        self.calls = dict.fromkeys(self.NAMES, 0)

    def _counted(self, name: str):
        real = self.real[name]

        def call(*args, **kwargs):
            self.calls[name] += 1
            return real(*args, **kwargs)

        return call

    def __enter__(self):
        for name in self.NAMES:
            setattr(theorem2, name, self._counted(name))
        return self

    def __exit__(self, *exc) -> None:
        for name, real in self.real.items():
            setattr(theorem2, name, real)


def _small(form: str, hi: int, repeat: int, clears) -> dict:
    represent = REPRESENT[form]
    ns = range(hi)
    best = [math.inf] * hi
    for _ in range(repeat):
        for clear in clears:
            clear()
        for i in ns:
            t0 = perf_counter_ns()
            represent(i)
            best[i] = min(best[i], perf_counter_ns() - t0)
    times = [b / 1000 for b in best]
    out = {"hi": hi, **_stats(times, hi)}
    if form == "thm2":
        # one untimed pass from cleared caches, as each timed pass starts,
        # notes what each call asks of the seams
        for clear in clears:
            clear()
        searched = []
        with _Seams() as seams:
            for i in ns:
                before = seams.calls["brute_quad"]
                represent(i)
                if seams.calls["brute_quad"] > before:
                    searched.append(i)
        mixed = seams.calls["rep_ttt_mixed"] + seams.calls["rep_tt4t_mixed"]
        out.update(mixed_per_witness=round(mixed / hi, 3), search_calls=len(searched),
                   search_share=round(sum(times[i] for i in searched) / sum(times), 4))
    return out


def layers(count: int | None, repeat: int) -> dict:
    """Per-input layer timings of both theorems in both bands (module docstring)."""
    per_band = count or BAND_INPUTS
    clears = _cache_clears()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = {band: {form: _band(band, form, per_band, repeat, clears) for form in REPRESENT}
                  for band in BANDS}
        result["sweeps"] = {form: _sweep(form, hi, repeat, clears) for form, hi in SWEEPS.items()}
        result["small"] = {form: _small(form, min(hi, count or hi), repeat, clears) for form, hi in SMALL.items()}
    finally:
        if enabled:
            gc.enable()
    return {"mode": "layers", "inputs": per_band, "repeat": repeat, "seed": SEED,
            "python": platform.python_version(), **result}


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of `wins` against `losses` (ties left out)."""
    pairs = wins + losses
    tail = sum(math.comb(pairs, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**pairs)


def ab_summary(runs_a: list[dict], runs_b: list[dict], better: dict[str, str]) -> dict:
    """Per metric of `better` (name -> "higher" or "lower"): each side's median and
    quartiles, the pairs (runs_a[i], runs_b[i]) that b won, the ties, and the sign test."""
    a, b = summarise(runs_a), summarise(runs_b)
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        diffs = [sign * (y[name] - x[name]) for x, y in zip(runs_a, runs_b)]
        won, lost = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
        out[name] = {
            **{side: {k: s[name][k] for k in ("median", "q1", "q3")} for side, s in (("a", a), ("b", b))},
            "b_won": won, "ties": len(diffs) - won - lost, "p": round(sign_test(won, lost), 4),
        }
    return out


def _run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    # the run's own errors go to this process's stderr
    out = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    return {name: m["value"] for name, m in json.loads(out.splitlines()[-1])["metrics"].items()}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def _extract(commit: str, tree: Path) -> Path:
    # a `git archive` copy of the commit, made at tree
    tree.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def ab(rev_a: str, rev_b: str, workload: str, pairs: int, seconds: int) -> dict:
    """Alternating fresh-process pairs of two revisions on one workload (module docstring)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    commits = [_git("rev-parse", "--verify", f"{rev}^{{commit}}") for rev in (rev_a, rev_b)]
    with tempfile.TemporaryDirectory() as scratch:
        trees = [_extract(commit, Path(scratch, side)) for commit, side in zip(commits, "ab")]
        runs: tuple[list, list] = ([], [])
        for i in range(pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                runs[side].append(_run(trees[side], workload, AB_SEED + i, seconds))
    return {"mode": "ab", "a": commits[0], "b": commits[1], "workload": workload, "pairs": pairs,
            "seconds": seconds, "seeds": [AB_SEED, AB_SEED + pairs - 1], "python": platform.python_version(),
            "metrics": ab_summary(*runs, better)}


def _layers_at(commit: str) -> dict:
    # one layers run of the commit's own tool and code, in a fresh process
    with tempfile.TemporaryDirectory() as scratch:
        tree = _extract(commit, Path(scratch, "tree"))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        out = subprocess.run([sys.executable, "tools/bench.py", "layers"], cwd=tree, env=env, stdout=subprocess.PIPE,
                             text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def record(rev: str, pairs: int, root: Path = ROOT) -> Path:
    """Write BENCH_<short rev>.json at `root` (module docstring) and return its path."""
    start = perf_counter_ns()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    seconds = spec["run_seconds"]
    workloads = {w["name"]: ab(commit, commit, w["name"], pairs, seconds) for w in spec["workloads"]}
    out = {"mode": "record", "revision": commit, "src_tree": _git("rev-parse", f"{commit}:src"),
           "machine": {"platform": platform.platform(), "machine": platform.machine(), "cpus": os.cpu_count()},
           "python": platform.python_version(), "pairs": pairs, "seconds": seconds, "bounds": bounds,
           "workloads": workloads, "layers": _layers_at(commit)}
    out["wall_s"] = round((perf_counter_ns() - start) / 1e9, 1)
    path = root / f"BENCH_{commit[:7]}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    layer = modes.add_parser("layers", help="per-input timings of the witness layers, and sweep stage times")
    layer.add_argument("--inputs", type=int,
                       help=f"inputs per band and theorem (default {BAND_INPUTS}), and the cut of each small "
                            "window (default its whole range)")
    layer.add_argument("--repeat", type=int, default=9,
                       help="calls per input and passes per small window, the fastest counting, and runs "
                            "per sweep, the median counting")
    pair = modes.add_parser("ab", help="alternating benchmark runs of two revisions, with a sign test")
    pair.add_argument("rev_a", help="the first revision, the reference")
    pair.add_argument("rev_b", help="the second revision, the one judged")
    pair.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    pair.add_argument("--pairs", type=int, default=10, help="alternating pairs of runs (at least 2)")
    pair.add_argument("--seconds", type=int, default=25, help="--seconds of each perfbench run")
    point = modes.add_parser("record", help="write BENCH_<rev>.json: A/A pairs of every workload, and layers")
    point.add_argument("rev", help="the revision recorded")
    point.add_argument("--pairs", type=int, default=10, help="alternating A/A pairs per workload (at least 2)")
    args = parser.parse_args(argv)
    if args.mode in ("ab", "record") and args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    if args.mode == "ab":
        print(json.dumps(ab(args.rev_a, args.rev_b, args.workload, args.pairs, args.seconds)))
    elif args.mode == "record":
        print(record(args.rev, args.pairs))
    else:
        print(json.dumps(layers(args.inputs, args.repeat)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
