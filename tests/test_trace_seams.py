"""The benchmark's tracer still finds every layer boundary it wraps.

perfbench/tracing.py replaces module attributes (theorem2.rep_ttt_mixed,
ternary.three_squares, ...) by recording wrappers.  A refactor that calls
a layer some other way would leave its span empty without any error;
this test drives every branch through the traced package and asks for a
span under every name.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import trisum
from trisum import theorem1, theorem2, verifier

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced(monkeypatch):
    tracing = _load_tracing()
    # set every wrapped attribute to itself first, so that monkeypatch puts
    # the unwrapped one back after the test
    for module, attr, _ in tracing.SPANNED + tracing.COUNTED:
        mod = importlib.import_module(f"trisum.{module}")
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    # a cached call would skip the layers below it on inputs seen before;
    # every cache is found by its cache_clear, so a new one is cleared too
    for info in pkgutil.iter_modules(trisum.__path__):
        mod = importlib.import_module(f"trisum.{info.name}")
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    recorder = tracing.Tracer()
    recorder.install()
    return tracing, recorder


def test_every_seam_records(traced):
    tracing, recorder = traced
    theorem2.reset_branch_counts()
    # calls go through the module attributes, which are what the tracer wraps
    for n in (150, 10**6 + 1, 10**6):  # brute, odd and even construction
        theorem1.represent_thm1(n)
    for n in (2369, 20002, 20001, 2973):  # brute, square, doubled, brute at t = 149
        theorem2.represent_thm2(n)
    verifier.verify_range("conjecture", 0, 1000)
    assert theorem2.branch_counts() == {"brute": 2, "square": 1, "doubled": 1}

    recorded = {recorder.names[code] for code in recorder.name}
    assert recorded == {name for _, _, name in tracing.SPANNED}
    assert recorder.counts["core_arith.check_nat"] > 0
