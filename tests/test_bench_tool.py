"""tools/bench.py, the in-process layer and sweep timer: its output, not its figures."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYERS = {"represent", "_two_square_splits", "_factor_rough"}
_STATS = {"calls", "per_witness", "p50_us", "p99_us", "max_us", "mean_us"}
# each timed sweep's hi and its stage names, in the order they run
_SWEEPS = {
    "conjecture": (10**6, ["full odd+even", "partial tri", "lookup"]),
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
        assert set(sweep) == {"hi", "elapsed_ms", "stages"}, form
        assert sweep["hi"] == hi and list(sweep["stages"]) == names, form
