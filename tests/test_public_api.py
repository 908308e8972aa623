"""The package exports its witness and sweep doors, once each, and none of the
helpers it dropped or keeps internal; README's examples run as written."""

import doctest
import importlib
import os
import pickle
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import trisum
from trisum import cli, theorem2
from trisum.core_arith import Quad1, Quad2
from trisum.verifier import brute_quad, verify_range


def test_every_exported_name_resolves():
    assert len(trisum.__all__) == len(set(trisum.__all__))
    for name in trisum.__all__:
        assert hasattr(trisum, name), name


def test_exports_are_the_witness_and_sweep_doors():
    assert trisum.__all__ == [
        "MAX_INPUT",
        "ConstructionFailed",
        "Quad1",
        "Quad2",
        "check_nat",
        "eval_quad",
        "fallback_count",
        "represent_thm1",
        "reset_fallback_count",
        "branch_counts",
        "represent_thm2",
        "reset_branch_counts",
        "FORMS",
        "BudgetExceeded",
        "RangeReport",
        "brute_quad",
        "verify_range",
        "__version__",
    ]


# helpers that only tests called, by the module that defined them
@pytest.mark.parametrize(
    "module, name",
    [
        ("core_arith", "split_square_plus_double_tri"),
        ("core_arith", "indices_to_quad1"),
        ("core_arith", "triangular"),
        ("squares", "is_square"),
        ("squares", "eligible_three_squares"),
        ("squares", "SQUARES_MAX"),
        ("squares", "ThreeSquares"),
        ("squares", "TwoSquares"),
        ("ternary", "TernaryRep"),
        ("ternary", "rep_4t_t_t"),
        ("ternary", "balance_odd_pair"),
        ("ternary", "rep_ttt_mixed"),
        ("ternary", "rep_tt4t_mixed"),
        ("ternary", "_check_modulus"),
        ("ternary", "PreconditionViolated"),
        ("theorem2", "solve_offset_congruence"),
        ("theorem2", "NotCoprime"),
    ],
)
def test_dropped_helpers_are_unreachable(module, name):
    assert name not in trisum.__all__
    assert not hasattr(trisum, name)
    assert not hasattr(importlib.import_module(f"trisum.{module}"), name)


# the supporting layers' doors: internals that only the library calls
@pytest.mark.parametrize(
    "module, name",
    [
        ("squares", "three_squares"),
        ("squares", "two_squares"),
        ("squares", "NotRepresentable"),
        ("squares", "NoRepresentation"),
        ("ternary", "rep_square_two_tri"),
        ("ternary", "rep_2t_t_t"),
        ("ternary", "MODULI"),
    ],
)
def test_layer_internals_are_not_exported(module, name):
    assert name not in trisum.__all__
    assert not hasattr(trisum, name)
    assert hasattr(importlib.import_module(f"trisum.{module}"), name)


def test_import_loads_no_logging():
    # only the modules the import itself adds, since which ones `site`
    # preloads differs between hosts
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys\nbefore = set(sys.modules)\nimport trisum\nprint(*set(sys.modules) - before)\n"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    added = done.stdout.split()
    assert "trisum.theorem1" in added
    assert "logging" not in added


def test_readme_examples_run_as_written():
    # the >>> lines of README's python blocks, without the fences, which
    # `python -m doctest README.md` would read as part of the last output
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    test = doctest.DocTestParser().get_doctest("".join(blocks), {}, "README", str(readme), 0)
    report: list[str] = []
    failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
    assert attempted >= 3
    assert failed == 0, "".join(report)


def test_readme_command_lines_exit_zero(capsys):
    # the trisum lines of the sh block under "## Command line", run in-process
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("trisum ")]
    assert len(lines) == 5
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line


# one input per branch, with the witness and the `decompose --json` line it
# gives; the theorem-2 branch is read from the tally (2973, which the
# paper's descent took, is dry at t = 149)
@pytest.mark.parametrize(
    "theorem, n, branch, witness",
    [
        (1, 150, None, (0, 5, 0, 7)),  # exhaustive search, n <= 200
        (1, 10**6 + 1, None, (373, 334, 346, 360)),  # odd peel
        (1, 10**6, None, (351, 362, 345, 356)),  # even peel
        (2, 2369, "brute", (0, 31, 4, 14)),
        (2, 20002, "square", (18, 63, 24, 65)),
        (2, 20001, "doubled", (48, 19, 50, 6)),
        (2, 2973, "brute", (0, 13, 2, 36)),
    ],
)
def test_witness_type_in_every_branch(capsys, theorem, n, branch, witness):
    cls, represent = (Quad1, trisum.represent_thm1) if theorem == 1 else (Quad2, trisum.represent_thm2)
    theorem2.reset_branch_counts()
    w = represent(n)
    if branch is not None:
        assert branch in theorem2.branch_counts()
    assert type(w) is cls
    assert (w.a, w.b, w.c, w.d) == witness
    assert w._asdict() == dict(zip("abcd", witness))
    assert w == cls(*w) == cls(*witness)
    back = pickle.loads(pickle.dumps(w))
    assert type(back) is cls and back == w
    assert cli.main(["decompose", str(n), "--theorem", str(theorem), "--json"]) == 0
    shown = ", ".join(map(str, witness))
    assert capsys.readouterr().out == (
        f'{{"n": {n}, "form": "thm{theorem}", "witness": [{shown}], "check": true}}\n'
    )


def _outcome(call, x):
    try:
        return call(x)
    except ValueError as exc:
        return type(exc), str(exc)


# every public function that takes integers, one row per integer argument:
# the call with x in that argument, the refusal it must give, and the
# integer v whose lookalikes True, float(v) and str(v) are tried
_INTEGER_ARGUMENTS = {
    "represent_thm1": (trisum.represent_thm1, "n must be an integer", 9),
    "represent_thm2": (trisum.represent_thm2, "n must be an integer", 9),
    "brute_quad-n": (lambda x: brute_quad("thm2", x), "n must be an integer", 9),
    "brute_quad-budget": (lambda x: brute_quad("thm2", 9, budget=x), "budget must be an integer", 9),
    "verify_range-lo": (lambda x: verify_range("thm2", x, 20).exceptions, "lo must be an integer", 9),
    "verify_range-hi": (lambda x: verify_range("thm2", 0, x).exceptions, "hi must be an integer", 9),
}


@pytest.mark.parametrize("kind", [bool, float, str])
@pytest.mark.parametrize("name", list(_INTEGER_ARGUMENTS))
def test_a_lookalike_integer_is_refused_cold_and_warm(name, kind):
    # a memoised function must refuse it also after the equal int's call,
    # whose own result stays as it was
    call, refusal, v = _INTEGER_ARGUMENTS[name]
    bad = True if kind is bool else kind(v)
    good = int(bad)
    with pytest.raises(ValueError, match=refusal):
        call(bad)
    before = _outcome(call, good)
    with pytest.raises(ValueError, match=refusal):
        call(bad)
    assert _outcome(call, good) == before


def test_the_budget_takes_none_or_any_non_negative_integer():
    assert brute_quad("thm2", 9, budget=None) == brute_quad("thm2", 9, budget=10**100) is not None
    assert brute_quad("thm2", 0, budget=0) == (0, 0, 0, 0)
    with pytest.raises(ValueError, match="budget must be non-negative"):
        brute_quad("thm2", 0, budget=-1)
