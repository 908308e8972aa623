"""The trisum benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 the run repeats the
workload's timed pass, each in a fresh process and on the same inputs, as
many times as fit in S seconds on the machine of README.md
(workloads.pass_count), and prints the end-to-end metrics; set-up time is
the median over the passes of their own import of trisum.  With
--trace 1 it runs the pass traced and untraced, TRACE_REPEATS times
each, and prints the per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of standard output is the JSON result.
Every result is checked; a wrong one ends the run with a non-zero status
and no result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, pass_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"  # span files of traced runs
BEYOND = 10  # samples a reported tail percentile must leave above it
RUN_LIMIT_S = 170  # every child is stopped before the run exceeds this
OVERRUN = 1.25  # no pass starts after this many times --seconds (a slow spell)
TRACE_REPEATS = 3  # traced and untraced passes each, alternating


class RunFailed(Exception):
    """A child process failed, was stopped, or reported a wrong result."""

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


def tail(samples, beyond: int = BEYOND):
    """Highest percentile of the sorted samples with `beyond` samples above it.

    Returns (percentile, value), or None when there are too few samples.
    """
    k = len(samples) - beyond - 1
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(samples), samples[k]


class Passes:
    """Repeated passes over the same calls, folded into end-to-end figures.

    Each call's latency is its fastest over the passes: the passes make
    the same calls from the same fresh state, so a call differs between
    passes only by the interference of the machine's other load.  The
    number of passes is fixed per workload and run length, so parent and
    change fold the same number of samples (short of an OVERRUN).
    """

    def __init__(self) -> None:
        self.count = 0
        self.best: list[int] = []
        self.failed: set[int] = set()
        self.peak_rss_mb = 0.0
        self.import_ns: list[int] = []

    def add(self, p: dict) -> None:
        self.best = list(map(min, self.best, p["latency_ns"])) if self.count else p["latency_ns"]
        self.failed |= set(p["failed"])
        self.peak_rss_mb = max(self.peak_rss_mb, p["peak_rss_mb"])
        self.import_ns.append(p["import_ns"])
        self.count += 1

    def figures(self) -> dict:
        """Percentiles over successful calls; ops per second of all calls' time, 0 if none succeeded."""
        ok = sorted(t for i, t in enumerate(self.best) if i not in self.failed)
        top = tail(ok)
        return {
            "calls": len(self.best),
            "failed": len(self.failed),
            "ops": len(ok) / (sum(self.best) / 1e9) if ok else 0.0,
            "p50_us": statistics.median(ok) / 1e3 if ok else None,
            "tail_us": top[1] / 1e3 if top else None,
            "tail_pct": top[0] if top else None,
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": statistics.median(self.import_ns) / 1e9,
        }


def _child(argv: list[str], deadline: float) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise RunFailed(f"{argv[0]} {' '.join(argv[1:3])} did not finish in time", 4) from exc
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise RunFailed(f"{argv[0]} exited with status {proc.returncode}", proc.returncode)
    return proc.stdout


def timed_pass(workload: str, seed: int, deadline: float, *spans: str) -> dict:
    out = _child([str(HERE / "timed_pass.py"), workload, str(seed), *spans], deadline)
    return json.loads(out.splitlines()[-1])


def with_units(kind: str, values: dict) -> dict:
    """Attach the units BENCHMARK.json gives; its metric list must match exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise RunFailed(f"{kind} metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}", 5)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def describe(workload: str, c: dict, passes: int) -> str:
    """Report lines that name each figure by theorem or sweep form."""
    w = WORKLOADS[workload]
    lines = [f"workload {workload}: {c['calls']} calls a pass, {passes} passes, {c['failed']} failed a pass"]
    if w.kind == "sweep":
        value = "null" if c["p50_us"] is None else f"{c['p50_us'] / 1e6:.4f}"
        lines.append(f"  sweep_{w.form}_s  {value} s")
    else:
        f = w.form
        lines.append(f"  {f}_ops  {c['ops']:.1f} 1/s")
        lines.append(f"  {f}_p50_us  {'null' if c['p50_us'] is None else round(c['p50_us'], 3)} us")
        if c["tail_us"] is None:
            lines.append(f"  {f}_tail_us  null us  ({c['calls'] - c['failed']} samples)")
        else:
            lines.append(
                f"  {f}_tail_us  {c['tail_us']:.3f} us  (p{c['tail_pct']:.3f}: "
                f"{BEYOND} of {c['calls'] - c['failed']} samples beyond)"
            )
    lines.append(f"  error_rate  {c['failed'] / c['calls']:.4f}  ({c['failed']} of {c['calls']})")
    lines.append(f"  peak_rss_mb  {c['peak_rss_mb']:.2f} MB")
    lines.append(f"  setup_s  {c['setup_s']:.6f} s  (median import of {passes} passes)")
    return "\n".join(lines)


def measure(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    passes = Passes()
    stop = time.monotonic() + OVERRUN * seconds
    planned = pass_count(WORKLOADS[workload], seconds)
    while passes.count < planned and (passes.count == 0 or time.monotonic() < stop):
        passes.add(timed_pass(workload, seed, deadline))
    c = passes.figures()
    print(describe(workload, c, passes.count))
    if passes.count < planned:
        print(f"  only {passes.count} of {planned} passes fit in {OVERRUN} x {seconds} s")
    return {
        "correct": True,
        "attempted": c["calls"] * passes.count,
        "failed": c["failed"] * passes.count,
        "metrics": with_units(
            "end_to_end",
            {"setup_s": c["setup_s"], "ops": c["ops"], "p50_us": c["p50_us"], "peak_rss_mb": c["peak_rss_mb"]},
        ),
    }


def measure_traced(workload: str, seed: int, deadline: float) -> dict:
    """Per-layer metrics of the fastest traced pass, and its overhead over the fastest untraced one.

    The span file holds the last traced pass.  Interference can still
    make the overhead read negative when tracing costs little.
    """
    spans = OUT / f"{workload}.spans.jsonl"
    traced_runs, plain_runs = [], []
    for _ in range(TRACE_REPEATS):
        traced_runs.append(timed_pass(workload, seed, deadline, "--spans", str(spans)))
        plain_runs.append(timed_pass(workload, seed, deadline))
    traced = min(traced_runs, key=lambda p: sum(p["latency_ns"]))
    traced_s = sum(traced["latency_ns"]) / 1e9
    plain_s = min(sum(p["latency_ns"]) for p in plain_runs) / 1e9
    layers = traced["layers"]
    layers["trace.overhead_s"] = traced_s - plain_s
    layers["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    print(f"workload {workload} traced: {len(traced['latency_ns'])} calls, {traced['spans']} spans in {spans}")
    print(f"  fastest of {TRACE_REPEATS} passes each: traced {traced_s:.6f} s, untraced {plain_s:.6f} s")
    for name, value in layers.items():
        print(f"  {name}  {value}")
    return {
        "correct": True,
        "attempted": len(traced["latency_ns"]),
        "failed": len(traced["failed"]),
        "metrics": with_units("per_layer", layers),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trisum" / "__init__.py").is_file():
        print(f"error: no trisum sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, deadline)
        else:
            result = measure(args.workload, args.seed, args.seconds, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.status
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
