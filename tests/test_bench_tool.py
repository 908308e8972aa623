"""tools/bench.py, the in-process layer and sweep timer and the A/B runner: its output, not its figures."""

import importlib.util
import json
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_LAYERS = {"represent", "_two_square_splits", "_factor_rough"}
_STATS = {"calls", "per_witness", "p50_us", "p99_us", "max_us", "mean_us"}
# each timed sweep's hi and its stage names, in the order they run
_SWEEPS = {
    "conjecture": (10**6, ["full tri+even", "partial odd", "lookup"]),
    "conj_a": (10**6, ["full odd+even", "partial odd", "lookup"]),
    "conj_b": (10**6, ["full odd+even", "partial even", "lookup"]),
    "thm1": (10**7, ["full odd+odd", "partial even+even", "lookup"]),
    "thm2": (10**7, ["full odd+odd2", "partial even2+even", "lookup"]),
}


def test_layers_prints_one_json_line_per_band_and_theorem():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench.py"), "layers", "--inputs", "20", "--repeat", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert {k: result[k] for k in ("mode", "inputs", "repeat", "seed")} == {
        "mode": "layers", "inputs": 20, "repeat": 1, "seed": 1,
    }
    for band in ("large", "top"):
        assert set(result[band]) == {"thm1", "thm2"}
        for form, layers in result[band].items():
            assert set(layers) == _LAYERS, (band, form)
            for name, stats in layers.items():
                assert set(stats) == _STATS, (band, form, name)
            assert layers["represent"]["calls"] == 20
            # every witness lists at least one remainder
            assert layers["_two_square_splits"]["calls"] >= 20
            for stats in layers.values():
                if stats["calls"]:
                    assert 0 < stats["p50_us"] <= stats["p99_us"] <= stats["max_us"]
    assert set(result["sweeps"]) == set(_SWEEPS)
    for form, (hi, names) in _SWEEPS.items():
        sweep = result["sweeps"][form]
        assert set(sweep) == {"hi", "elapsed_ms", "stages", "holes", "traced_peak_kb"}, form
        assert sweep["hi"] == hi and list(sweep["stages"]) == names, form
    # every exception is a hole: the conjecture's 8 and 68, conj_a's 32
    assert result["sweeps"]["conjecture"]["holes"] >= 2
    assert result["sweeps"]["conj_a"]["holes"] >= 32
    # the small windows, cut to --inputs
    assert set(result["small"]) == {"thm2", "thm1"}
    for form, small in result["small"].items():
        extra = {"mixed_per_witness", "search_calls", "search_share"} if form == "thm2" else set()
        assert set(small) == {"hi"} | _STATS | extra, form
        assert small["hi"] == small["calls"] == 20, form
        assert 0 < small["p50_us"] <= small["max_us"], form
    thm2 = result["small"]["thm2"]
    assert 0 < thm2["search_calls"] <= 20 and 0 < thm2["search_share"] <= 1


@cache
def _load_tool():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sign_test_on_fixed_counts():
    sign_test = _load_tool().sign_test
    assert sign_test(10, 0) == sign_test(0, 10) == 2 / 2**10
    assert sign_test(9, 1) == 2 * (1 + 10) / 2**10
    assert sign_test(5, 5) == sign_test(0, 0) == 1.0


def test_ab_summary_on_fixed_runs():
    # pair by pair: ops 100/120, 110/110, 90/95, 105/100 and p50_us 2.0/1.5,
    # 2.0/2.0, 2.5/2.0, 3.0/3.5 (a/b); b wins two pairs on each, ties one
    runs_a = [{"ops": 100, "p50_us": 2.0}, {"ops": 110, "p50_us": 2.0}, {"ops": 90, "p50_us": 2.5},
              {"ops": 105, "p50_us": 3.0}]
    runs_b = [{"ops": 120, "p50_us": 1.5}, {"ops": 110, "p50_us": 2.0}, {"ops": 95, "p50_us": 2.0},
              {"ops": 100, "p50_us": 3.5}]
    summary = _load_tool().ab_summary(runs_a, runs_b, {"ops": "higher", "p50_us": "lower"})
    assert summary["ops"] == {
        "a": {"median": 102.5, "q1": 92.5, "q3": 108.75},
        "b": {"median": 105.0, "q1": 96.25, "q3": 117.5},
        "b_won": 2, "ties": 1, "p": 1.0,
    }
    assert summary["p50_us"]["a"] == {"median": 2.25, "q1": 2.0, "q3": 2.875}
    assert (summary["p50_us"]["b_won"], summary["p50_us"]["ties"]) == (2, 1)


def test_ab_needs_two_pairs():
    # refused before any copy is made or run started
    with pytest.raises(SystemExit):
        _load_tool().main(["ab", "HEAD", "HEAD", "--workload", "small_thm2", "--pairs", "1"])


def test_record_writes_each_workload_and_layers(monkeypatch, tmp_path):
    # ab, the layers run and git are stubbed: no benchmark runs here
    tool = _load_tool()
    revision = "0123456789abcdef" * 2 + "01234567"
    calls = []

    def ab(rev_a, rev_b, workload, pairs, seconds):
        calls.append((rev_a, rev_b, workload, pairs, seconds))
        return {"mode": "ab", "workload": workload}

    monkeypatch.setattr(tool, "ab", ab)
    monkeypatch.setattr(tool, "_layers_at", lambda commit: {"mode": "layers", "commit": commit})
    monkeypatch.setattr(tool, "_git", lambda *args: revision if args[0] == "rev-parse" and "^" in args[-1] else "tree")
    path = tool.record("HEAD", 3, tmp_path)
    assert path == tmp_path / "BENCH_0123456.json"
    out = json.loads(path.read_text())
    assert set(out) == {"mode", "revision", "src_tree", "machine", "python", "pairs", "seconds", "bounds",
                        "workloads", "layers", "wall_s"}
    assert (out["mode"], out["revision"], out["src_tree"], out["pairs"]) == ("record", revision, "tree", 3)
    assert out["layers"] == {"mode": "layers", "commit": revision}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert out["bounds"] == {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    assert calls == [(revision, revision, name, 3, spec["run_seconds"]) for name in names]
    assert out["seconds"] == spec["run_seconds"]
    assert out["workloads"] == {name: {"mode": "ab", "workload": name} for name in names}


def test_record_needs_two_pairs():
    with pytest.raises(SystemExit):
        _load_tool().main(["record", "HEAD", "--pairs", "1"])
