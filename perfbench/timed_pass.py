"""One timed pass of one workload, in a process of its own.

    python3 perfbench/timed_pass.py WORKLOAD SEED [--spans FILE]

The pass first imports trisum from the checkout's src/ directory and
times that import: it comes before any other import of this script, so
it counts every module trisum needs, as in a fresh interpreter.  The
pass then starts from a fresh process's state: empty `ternary` caches
and no thm2 pair table.  It calls the workload's function on its first
`calls` inputs one after the other, times each call, checks each result
outside the timed interval and prints one JSON object: the import time,
every call's latency in nanoseconds, the indices of the calls that
failed and the peak RSS.  With --spans it first wraps the layer
boundaries (see tracing.py), adds the per-layer metrics and writes the
spans to FILE.  Exit status 3 means a wrong result.
"""

import os
import sys
from time import perf_counter_ns

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_t0 = perf_counter_ns()
sys.path.insert(0, SRC)
import trisum  # noqa: E402

IMPORT_NS = perf_counter_ns() - _t0

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from workloads import WORKLOADS, WrongOutput  # noqa: E402


class Tally:
    """What a pass did, call by call."""

    def __init__(self) -> None:
        self.latency_ns = array("q")
        self.failed: list[int] = []  # indices of calls that raised a typed error
        self.small = 0  # inputs at most 200, which theorem1 answers by brute force

    @property
    def busy_ns(self) -> int:
        return sum(self.latency_ns)


def run_calls(call, check, xs) -> Tally:
    """Call `call` on each x in turn, timing each call on its own.

    A typed error (ValueError or a subclass) counts the call as failed; any
    other exception propagates.  `check` sees each successful result
    between calls, outside the timed interval.
    """
    tally = Tally()
    for i, x in enumerate(xs):
        t0 = perf_counter_ns()
        try:
            out = call(x)
        except ValueError:
            out = None
        t1 = perf_counter_ns()
        tally.latency_ns.append(t1 - t0)
        tally.small += x <= 200
        if out is None:
            tally.failed.append(i)
        else:
            check(x, out)
    return tally


def peak_rss_mb() -> float:
    """Peak resident set of this process image, from Linux's VmHWM.

    getrusage's ru_maxrss would also count the parent's memory, which the
    child inherits at fork and keeps through exec.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM line in /proc/self/status")


def check_trisum_source() -> None:
    """Refuse a trisum imported from anywhere but the checkout."""
    if Path(trisum.__file__).resolve().parent != Path(SRC).resolve() / "trisum":
        raise ImportError(f"trisum imported from {trisum.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    check_trisum_source()
    tracer = None
    if args.spans:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    # Looked up after install() so that a traced pass calls the wrappers.
    if w.kind == "sweep":
        verify_range = trisum.verifier.verify_range
        call = lambda hi: verify_range(w.form, 0, hi)  # noqa: E731
    else:
        module = trisum.theorem1 if w.form == "thm1" else trisum.theorem2
        call = getattr(module, f"represent_{w.form}")
    xs = itertools.islice(workloads.inputs(w, args.seed), w.calls)
    try:
        tally = run_calls(call, lambda x, out: workloads.check_output(w, x, out), xs)
    except WrongOutput as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        return 3
    # read before the report below is built, which would add to the peak
    result = {
        "import_ns": IMPORT_NS,
        "peak_rss_mb": peak_rss_mb(),
        "latency_ns": tally.latency_ns.tolist(),
        "failed": tally.failed,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, trisum, tally)
        result["spans"] = len(tracer.start)
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
