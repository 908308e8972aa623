"""Record a baseline of the listed workloads in perfbench/BASELINE.json.

    python3 perfbench/baseline.py

Runs two sets of runs, one after the other: in each, run.py once per
listed workload and seed (seeds 1..10) with tracing off.  Then it runs
each workload once traced with seed 1.  For each set and end-to-end
metric it writes the median, quartiles and quartile distance over the
median; for each metric, how much worse the second set's median is than
the first's, as a share of the first; the per-layer metrics of the
traced run; and the machine: nproc, the CPU model from /proc/cpuinfo and
the Python version.  A spread or a drift beyond the metric's bound is
printed with "OVER".
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2  # the second set shows whether the medians hold within the bounds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": values}
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    sets = []
    for i in range(SETS):
        sets.append({w: summarise([run(w, seed, seconds, 0) for seed in SEEDS]) for w in names})
        for w in names:
            print(f"set {i + 1} {w}", flush=True)
            for name, s in sets[i][w].items():
                over = " OVER" if s["spread"] > metrics[name]["bound"] and name != "setup_s" else ""
                print(f"  {name} median {s['median']:.6g} spread {s['spread']:.4f}{over}", flush=True)
    workloads = {}
    for w in names:
        first, second = sets[0][w], sets[-1][w]
        worse_by = {}
        for name, m in metrics.items():
            change = (second[name]["median"] - first[name]["median"]) / first[name]["median"]
            worse_by[name] = change if m["better"] == "lower" else -change
            over = " OVER" if worse_by[name] > m["bound"] else ""
            print(f"{w} {name} second median worse by {worse_by[name]:+.4f}{over}", flush=True)
        workloads[w] = {
            "end_to_end": [s[w] for s in sets],
            "second_worse_by": worse_by,
            "per_layer": run(w, 1, seconds, 1),
        }
    baseline = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version()},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": workloads,
    }
    (HERE / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
