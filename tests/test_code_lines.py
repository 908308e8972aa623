"""tools/code_lines.py, which counts the code lines the change log cites."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_TOOL = ROOT / "tools" / "code_lines.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SOURCE = '''"""Module docstring,
over two lines."""

# a comment-only line

import os  # a trailing comment keeps its line


def f(x):
    """One-line function docstring."""
    return (
        x + 1
    )


class C:
    """Class docstring."""

    y = os.sep
'''


def test_count_on_a_known_module(tmp_path):
    # code lines: the import, def f, the three lines of its return, class C
    # and y = ...; docstrings, the comment-only line and blank lines do not
    # count
    path = tmp_path / "sample.py"
    path.write_text(_SOURCE, encoding="utf-8")
    assert _load_tool().code_lines(path) == 7


def test_prints_each_module_and_their_sum():
    src = ROOT / "src" / "trisum"
    done = subprocess.run(
        [sys.executable, str(_TOOL), str(src)], capture_output=True, text=True, timeout=60, check=True
    )
    rows = [line.split() for line in done.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert [name for _, name in modules] == sorted(p.name for p in src.glob("*.py"))
    tool = _load_tool()
    assert [int(count) for count, _ in modules] == [tool.code_lines(src / name) for _, name in modules]
    assert int(total) == sum(int(count) for count, _ in modules)
